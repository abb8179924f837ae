//! `cold-compile`: `nproc` caller threads drive `ExperimentRunner` over
//! every registered workload at Bench scale, each compiled effcc → NUPEA
//! and domain-unaware → UPEA2 and simulated once, in a seed-drawn order
//! per round. Each record gets a fresh one-thread runner, so every
//! record pays the compile's three PnR attempts: the cold `/simulate`
//! path without HTTP.
//!
//! One caller per core rather than one caller: the cores of a virtual
//! machine need not run at the same speed, and a lone caller runs at
//! the speed of whichever core the scheduler keeps it on, which changes
//! from process to process.

use crate::harness::{self, Meter, Window};
use crate::replay::{self, Config};
use crate::spans::Tracer;
use crate::Outcome;
use nupea::runner::records_to_json;
use nupea::{
    all_workloads, jsonl, ArtifactCache, ExperimentRunner, Heuristic, MemoryModel, RunRecord,
    Scale, WorkloadSpec,
};
use std::hint::black_box;

/// FNV-1a over `workload;seed;heuristic;model;cycles` lines of the
/// check round. A change that alters simulated behaviour changes it.
const CHECK_FINGERPRINT: u64 = 0x301f_6aa2_7417_7861;

/// The two records each config becomes.
const PAIRS: [(Heuristic, MemoryModel); 2] = [
    (Heuristic::CriticalityAware, MemoryModel::Nupea),
    (Heuristic::DomainUnaware, MemoryModel::Upea(2)),
];

/// The configs of one round: every registered workload, in `order`,
/// both pairs, each with its key `workload index × 2 + pair index`.
fn round_configs(specs: &[WorkloadSpec], order: &[usize]) -> Vec<(usize, Config)> {
    let mut out = Vec::with_capacity(specs.len() * PAIRS.len());
    for &i in order {
        for (p, (heuristic, model)) in PAIRS.into_iter().enumerate() {
            let cfg = Config {
                workload: specs[i].name,
                scale: Scale::Bench,
                seed: harness::placement_seed(),
                heuristic,
                model,
            };
            out.push((i * PAIRS.len() + p, cfg));
        }
    }
    out
}

/// One record: build the workload, run the one-point sweep on a single
/// thread, serialize the record.
fn record(spec: &WorkloadSpec, cfg: &Config, tracer: &Tracer) -> RunRecord {
    tracer.span("record", 0, |root| {
        let w = tracer.span("kernels.build", root, |_| spec.build_default(cfg.scale));
        let mut runner = ExperimentRunner::new();
        runner.threads(1);
        let wh = runner.workload(w);
        let sh = runner.system(cfg.system());
        runner.point(wh, sh, cfg.heuristic, cfg.model);
        let report = tracer.span("core.runner", root, |_| runner.run());
        let json = tracer.span("core.serialize", root, |_| {
            records_to_json(&report.records, false)
        });
        black_box(json);
        report
            .records
            .into_iter()
            .next()
            .expect("one point, one record")
    })
}

fn fingerprint(records: &[RunRecord], seeds: &[u64]) -> u64 {
    let mut text = String::new();
    for (r, seed) in records.iter().zip(seeds) {
        text.push_str(&format!(
            "{};{seed};{};{};{}\n",
            r.workload,
            r.heuristic,
            r.model.label(),
            r.cycles
        ));
    }
    jsonl::fnv1a(text.as_bytes())
}

/// The set-up: one check round in registry order through the record
/// path on the window's threads (it doubles as the warm-up), held to the
/// committed fingerprint.
fn check_round(specs: &[WorkloadSpec]) -> Result<(), String> {
    let quiet = Tracer::new(false);
    let order: Vec<usize> = (0..specs.len()).collect();
    let cfgs: Vec<Config> = round_configs(specs, &order)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let records: Vec<RunRecord> = harness::each_parallel(&cfgs, harness::nproc(), |c| {
        record(&specs[c_index(specs, c)], c, &quiet)
    })
    .into_iter()
    .map(|(r, _)| r)
    .collect();
    if let Some(bad) = records.iter().find(|r| r.error.is_some()) {
        return Err(format!(
            "check round: {} failed: {:?}",
            bad.workload, bad.error
        ));
    }
    let seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
    let got = fingerprint(&records, &seeds);
    if got != CHECK_FINGERPRINT {
        return Err(format!(
            "check round fingerprint {got:#018x} != committed {CHECK_FINGERPRINT:#018x}: simulated behaviour changed"
        ));
    }
    Ok(())
}

fn c_index(specs: &[WorkloadSpec], c: &Config) -> usize {
    specs
        .iter()
        .position(|s| s.name == c.workload)
        .expect("config names a registered workload")
}

/// Records of one window, with the configs that produced them.
struct Done {
    window: Window,
    records: Vec<(usize, Config, RunRecord)>,
}

fn window(specs: &[WorkloadSpec], seed: u64, seconds: f64, tracer: &Tracer) -> Done {
    let meter = Meter::start();
    let mut lat = Vec::new();
    let mut records = Vec::new();
    harness::rounds(&meter, seconds, |r| {
        let order = harness::shuffled(specs.len(), seed, &[r as u64]);
        let cfgs = round_configs(specs, &order);
        let done = harness::each_parallel(&cfgs, harness::nproc(), |(_, cfg)| {
            record(&specs[c_index(specs, cfg)], cfg, tracer)
        });
        for ((key, cfg), (rec, ms)) in cfgs.into_iter().zip(done) {
            lat.push((key, ms));
            records.push((r, cfg, rec));
        }
    });
    let failed = records.iter().filter(|(_, _, r)| r.error.is_some()).count() as u64;
    Done {
        window: meter.stop(lat, failed),
        records,
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let specs = all_workloads();
    let mut failures = Vec::new();
    let setup_s = match harness::set_up(|| check_round(&specs), |()| ()) {
        Ok(((), times)) => times,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };

    let (main, traced) = if tracer.on() {
        let base = window(&specs, seed, seconds / 2.0, &Tracer::new(false));
        let traced = window(&specs, seed, seconds / 2.0, tracer);
        (base, Some(traced))
    } else {
        (window(&specs, seed, seconds, tracer), None)
    };

    // Exact metrics: the first EXACT_ROUNDS rounds, the same configs in
    // every run with this seed.
    let exact: Vec<&(usize, Config, RunRecord)> = main
        .records
        .iter()
        .filter(|(r, _, _)| *r < harness::EXACT_ROUNDS)
        .collect();
    let cycles: Vec<u64> = exact.iter().map(|(_, _, rec)| rec.cycles).collect();
    let ratios: Vec<f64> = exact
        .chunks(PAIRS.len())
        .map(|pair| pair[1].2.cycles as f64 / pair[0].2.cycles as f64)
        .collect();
    let speedup = crate::stats::geomean(&ratios).unwrap_or(0.0);
    for (_, cfg, rec) in main
        .records
        .iter()
        .chain(traced.iter().flat_map(|t| &t.records))
    {
        if let Some(e) = &rec.error {
            failures.push(format!("{} seed {}: {e}", cfg.workload, cfg.seed));
        }
    }

    let mut layers = vec![
        ("campaign.masked", 0.0),
        ("campaign.recovered", 0.0),
        ("campaign.hang", 0.0),
        ("campaign.sdc", 0.0),
    ];
    layers.extend(crate::serve::not_reached());
    let mut replays = Vec::new();
    if let Some(t) = &traced {
        // Busy share of the runner threads: the runners' own compile
        // and simulate time over threads × the traced window's wall time.
        let busy: u64 = t
            .records
            .iter()
            .map(|(_, _, r)| r.compile_micros + r.sim_micros)
            .sum();
        let capacity = harness::nproc() as f64 * t.window.secs;
        layers.push(("runner.busy_share", busy as f64 / 1e6 / capacity));
        let cache = ArtifactCache::new(2 * specs.len());
        for (_, cfg, _) in exact.iter().filter(|(r, _, _)| *r == 0) {
            match replay::replay(cfg, &cache, tracer, 0) {
                Ok(r) => replays.push(r),
                Err(e) => failures.push(e),
            }
        }
    }
    Outcome {
        setup_s,
        main: main.window,
        traced: traced.map(|t| t.window),
        cycles,
        speedup,
        failures,
        layers,
        replays,
    }
}
