//! The NUPEA benchmark: one command, three workloads, every end-to-end
//! metric by name and unit, output checks, and a traced run that times
//! calls into each layer. See `README.md` beside this crate.
//!
//!     cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!         --workload cold-compile --seed 1 --seconds 20 --trace 0
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--steady N` instead runs the
//! benchmark N times with seeds `--seed`..`--seed+N-1` in child processes
//! and reports each end-to-end metric's median and spread.

mod alloc;
mod cold;
mod fault;
mod harness;
mod replay;
mod serve;
mod spans;
mod stats;

use harness::Window;
use replay::Replayed;
use spans::{Span, Tracer};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// One metric of `BENCHMARK.json`.
struct Metric {
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    bound: f64,
}

const fn m(name: &'static str, unit: &'static str, lower_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

const LOWER: bool = true;
const HIGHER: bool = false;

const END_TO_END: &[Metric] = &[
    m("setup_s", "s", LOWER, 0.25),
    m("records_per_s", "1/s", HIGHER, 0.25),
    m("record_ms_p50", "ms", LOWER, 0.25),
    m("record_ms_p90", "ms", LOWER, 0.25),
    m("ok_share", "share", HIGHER, 0.01),
    m("peak_heap_mb", "MB", LOWER, 0.1),
    m("sim_cycles_geomean", "cycles", LOWER, 0.01),
    m("nupea_speedup_vs_upea2", "x", HIGHER, 0.01),
];

const PER_LAYER: &[Metric] = &[
    m("kernels.build_ms", "ms", LOWER, 0.0),
    m("pnr.compile_ms", "ms", LOWER, 0.0),
    m("pnr.netlist_ms", "ms", LOWER, 0.0),
    m("pnr.place_ms", "ms", LOWER, 0.0),
    m("pnr.route_ms", "ms", LOWER, 0.0),
    m("pnr.timing_ms", "ms", LOWER, 0.0),
    m("pnr.compile_other_ms", "ms", LOWER, 0.0),
    m("pnr.kept_share", "share", HIGHER, 0.0),
    m("pnr.route_fail_share", "share", LOWER, 0.0),
    m("pnr.divider_mean", "divider", LOWER, 0.0),
    m("pnr.max_hops_mean", "hops", LOWER, 0.0),
    m("sim.engine_ms", "ms", LOWER, 0.0),
    m("sim.validate_ms", "ms", LOWER, 0.0),
    m("sim.firings_per_s", "1/s", HIGHER, 0.0),
    m("sim.cycles_per_s", "1/s", HIGHER, 0.0),
    m("serve.client_ms_mean", "ms", LOWER, 0.0),
    m("serve.server_ms_p50", "ms", LOWER, 0.0),
    m("serve.server_ms_p90", "ms", LOWER, 0.0),
    m("serve.transport_ms", "ms", LOWER, 0.0),
    m("serve.handler_ms", "ms", LOWER, 0.0),
    m("serve.wait_ms", "ms", LOWER, 0.0),
    m("api.parse_us", "us", LOWER, 0.0),
    m("cache.lookup_us", "us", LOWER, 0.0),
    m("cache.hit_share", "share", HIGHER, 0.0),
    m("core.serialize_us", "us", LOWER, 0.0),
    m("campaign.masked", "count", HIGHER, 0.0),
    m("campaign.recovered", "count", HIGHER, 0.0),
    m("campaign.hang", "count", LOWER, 0.0),
    m("campaign.sdc", "count", LOWER, 0.0),
    m("campaign.golden_ms", "ms", LOWER, 0.0),
    m("runner.busy_share", "share", HIGHER, 0.0),
    m("alloc.mb_per_record", "MB", LOWER, 0.0),
    m("alloc.calls_per_record", "count", LOWER, 0.0),
    m("trace.overhead_share", "share", LOWER, 0.0),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdCompile,
    ServeWarm,
    FaultCampaign,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdCompile,
        Workload::ServeWarm,
        Workload::FaultCampaign,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::ServeWarm => "serve-warm",
            Workload::FaultCampaign => "fault-campaign",
        }
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    /// Each set-up repetition's duration.
    pub setup_s: Vec<f64>,
    /// The untraced window (the first half of a traced run).
    pub main: Window,
    /// The traced half of a traced run.
    pub traced: Option<Window>,
    /// Simulated cycles of the exact set (the seed's first rounds).
    pub cycles: Vec<u64>,
    /// Geomean of UPEA2 over NUPEA cycles on the exact set.
    pub speedup: f64,
    /// Failed checks; any makes the run incorrect.
    pub failures: Vec<String>,
    /// Workload-specific per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
    /// Layer replays of the seed's first round (traced runs).
    pub replays: Vec<Replayed>,
}

impl Outcome {
    fn failed(failures: Vec<String>) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            main: Window::default(),
            traced: None,
            cycles: Vec::new(),
            speedup: 0.0,
            failures,
            layers: Vec::new(),
            replays: Vec::new(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut steady) = (DEFAULT_SEED, 10.0_f64, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--steady" => steady = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or("--workload is required (cold-compile, serve-warm, fault-campaign)")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        steady,
    })
}

/// Per-layer metrics every workload measures: from the layer replays'
/// spans, the windows' heap counters, and the traced/untraced latency.
fn replay_layers(spans: &[Span], replays: &[Replayed], o: &Outcome) -> Vec<(&'static str, f64)> {
    let compiles = spans::count(spans, "pnr.compile").max(1) as f64;
    let per_compile = |name| spans::total_ms(spans, name) / compiles;
    let compile = per_compile("pnr.compile");
    let stages = ["pnr.netlist", "pnr.place", "pnr.route", "pnr.timing"].map(per_compile);
    let pnr: Vec<_> = replays.iter().filter_map(|r| r.pnr).collect();
    let attempts = pnr.iter().map(|p| p.attempts).sum::<u32>().max(1) as f64;
    let pnr_mean = |f: fn(&replay::PnrReplay) -> u32| {
        stats::mean(&pnr.iter().map(|p| f64::from(f(p))).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (firings, cycles) = replays
        .iter()
        .filter_map(|r| r.engine_work)
        .fold((0, 0), |(f, c), (f1, c1)| (f + f1, c + c1));
    let engine_s = spans::total_ms(spans, "sim.engine") / 1e3;
    let engine_ms = spans::mean_ms(spans, "sim.engine");
    let records = o.main.attempted.max(1) as f64;
    let p50 = |w: &Window| stats::geomean_of_medians(&w.lat_ms).unwrap_or(0.0);
    let overhead = o
        .traced
        .as_ref()
        .map_or(0.0, |t| p50(t) / p50(&o.main) - 1.0);
    vec![
        ("kernels.build_ms", spans::mean_ms(spans, "kernels.build")),
        ("pnr.compile_ms", compile),
        ("pnr.netlist_ms", stages[0]),
        ("pnr.place_ms", stages[1]),
        ("pnr.route_ms", stages[2]),
        ("pnr.timing_ms", stages[3]),
        ("pnr.compile_other_ms", compile - stages.iter().sum::<f64>()),
        (
            "pnr.kept_share",
            pnr.iter().map(|p| p.kept).sum::<u32>() as f64 / attempts,
        ),
        (
            "pnr.route_fail_share",
            pnr.iter().map(|p| p.route_fails).sum::<u32>() as f64 / attempts,
        ),
        ("pnr.divider_mean", pnr_mean(|p| p.divider)),
        ("pnr.max_hops_mean", pnr_mean(|p| p.max_hops)),
        ("sim.engine_ms", engine_ms),
        ("sim.validate_ms", spans::mean_ms(spans, "sim.validate")),
        ("sim.firings_per_s", firings as f64 / engine_s),
        ("sim.cycles_per_s", cycles as f64 / engine_s),
        ("api.parse_us", spans::mean_ms(spans, "api.parse") * 1e3),
        (
            "cache.lookup_us",
            spans::mean_ms(spans, "cache.lookup") * 1e3,
        ),
        (
            "core.serialize_us",
            spans::mean_ms(spans, "core.serialize") * 1e3,
        ),
        ("campaign.golden_ms", compile + engine_ms),
        (
            "alloc.mb_per_record",
            o.main.alloc_bytes as f64 / 1e6 / records,
        ),
        (
            "alloc.calls_per_record",
            o.main.alloc_calls as f64 / records,
        ),
        ("trace.overhead_share", overhead),
    ]
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let w = &o.main;
    let cycles: Vec<f64> = o.cycles.iter().map(|&c| c as f64).collect();
    vec![
        ("setup_s", stats::median(&o.setup_s).unwrap_or(0.0)),
        ("records_per_s", w.attempted as f64 / w.secs),
        (
            "record_ms_p50",
            stats::geomean_of_medians(&w.lat_ms).unwrap_or(0.0),
        ),
        (
            "record_ms_p90",
            stats::relative_tail(&w.lat_ms, 90.0).unwrap_or(0.0),
        ),
        (
            "ok_share",
            (w.attempted - w.failed) as f64 / w.attempted.max(1) as f64,
        ),
        ("peak_heap_mb", w.peak_heap as f64 / 1e6),
        ("sim_cycles_geomean", stats::geomean(&cycles).unwrap_or(0.0)),
        ("nupea_speedup_vs_upea2", o.speedup),
    ]
}

/// The last line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    )
}

/// The value of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The commit of the checkout, read from `.git` in the working
/// directory; "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(r))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_line(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host {{\"available_parallelism\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"seconds\":{},\"trace\":{}}}",
        harness::nproc(),
        nupea::jsonl::escape(&cpu),
        nupea::jsonl::escape(env!("PERFBENCH_RUSTC_VERSION")),
        nupea::jsonl::escape(&commit()),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    )
}

fn run(args: &Args) -> ExitCode {
    println!("{}", host_line(args));
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload {
        Workload::ColdCompile => cold::run(args.seed, args.seconds, &tracer),
        Workload::ServeWarm => serve::run(args.seed, args.seconds, &tracer),
        Workload::FaultCampaign => fault::run(args.seed, args.seconds, &tracer),
    };
    let mut failures = outcome.failures.clone();
    let (table, values) = if args.trace {
        let mut values = outcome.layers.clone();
        values.extend(replay_layers(&tracer.spans(), &outcome.replays, &outcome));
        let path = format!(
            "perfbench/out/spans-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        match tracer.write(Path::new(&path)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("writing {path}: {e}"),
        }
        (PER_LAYER, values)
    } else {
        (END_TO_END, end_to_end(&outcome))
    };

    let mut printed = Vec::with_capacity(table.len());
    for metric in table {
        let v = values
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map(|&(_, v)| v);
        match v {
            Some(v) if v.is_finite() => {
                println!("{:<26} {v:>16.6} {}", metric.name, metric.unit);
                printed.push((metric.name, v, metric.unit));
            }
            _ => failures.push(format!("metric {} was not measured", metric.name)),
        }
    }
    if !args.trace && stats::relative_tail(&outcome.main.lat_ms, 90.0).is_none() {
        failures.push(format!(
            "{} records leave fewer than {} beyond p90",
            outcome.main.lat_ms.len(),
            stats::TAIL_BEYOND
        ));
    }
    println!(
        "{} records in {:.3} s; set-up runs {:?} s",
        outcome.main.attempted, outcome.main.secs, outcome.setup_s
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let attempted = outcome.main.attempted + outcome.traced.as_ref().map_or(0, |t| t.attempted);
    let failed = outcome.main.failed + outcome.traced.as_ref().map_or(0, |t| t.failed);
    let correct = failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &printed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the benchmark `n` times in child processes with consecutive seeds
/// and report each end-to-end metric's median, spread (interquartile
/// distance over median) and bound.
fn steady(args: &Args, n: u64) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut lines = Vec::new();
    for seed in args.seed..args.seed + n {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .expect("spawn benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() {
            eprintln!("seed {seed} failed:\n{stdout}");
            return ExitCode::FAILURE;
        }
        eprintln!("seed {seed}: {last}");
        lines.push(last);
    }
    // Besides each spread, compare the medians of the first and second
    // half of the runs: a small-scale version of two sets of runs of the
    // same code agreeing within the bound.
    let mut steady = true;
    for metric in END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| metric_value(l, metric.name))
            .collect();
        let spread = stats::spread(&values).unwrap_or(f64::NAN);
        let (first, second) = values.split_at(values.len() / 2);
        let halves_agree = match (stats::median(first), stats::median(second)) {
            (Some(a), Some(b)) => !stats::regressed(a, b, metric.lower_is_better, metric.bound),
            _ => true,
        };
        let verdict = if !halves_agree {
            steady = false;
            "HALVES DISAGREE"
        } else if spread <= metric.bound / 3.0 {
            "steady"
        } else if spread <= metric.bound {
            "within bound"
        } else {
            steady = false;
            "TOO NOISY"
        };
        println!(
            "{:<24} median {:>14.6} {:<7} spread {:>7.4} bound {:>5.3}  {verdict}",
            metric.name,
            stats::median(&values).unwrap_or(f64::NAN),
            metric.unit,
            spread,
            metric.bound
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    harness::mark_process_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.steady {
        Some(n) => steady(&args, n),
        None => run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_metric_values() {
        let line = result_line(true, 3, 0, &[("a", 1.25, "ms"), ("b", 2e-7, "s")]);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert_eq!(metric_value(&line, "a"), Some(1.25));
        assert_eq!(metric_value(&line, "b"), Some(2e-7));
        assert_eq!(metric_value(&line, "c"), None);
    }

    /// `BENCHMARK.json` names exactly the metrics, units, directions and
    /// bounds this binary prints and checks.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for metric in END_TO_END {
            let better = if metric.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                metric.name, metric.unit, metric.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for metric in PER_LAYER {
            let better = if metric.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"}}",
                metric.name, metric.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
            "BENCHMARK.json lists other metrics or workloads"
        );
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\":\"{}\"", w.name())));
        }
    }
}
