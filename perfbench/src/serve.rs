//! `serve-warm`: an in-process `nupea-serve` at `ServeOptions::default()`
//! under a closed loop of one connection, which sends its next
//! `/simulate` as soon as the reply arrives. Requests go in rounds, each
//! round every registered workload at Bench scale under NUPEA once, in
//! an order the seed draws afresh for every round; the configs fit the
//! default artifact cache and are compiled during set-up, so the window
//! never compiles.
//!
//! One connection, not one per core: the server executes one batch at a
//! time and gathers a batch for a fixed 2 ms after the first request
//! arrives, while each request is rebuilt and hashed before it is
//! queued. With one connection per core, whether a request joined its
//! neighbour's batch or waited for it turned on that race, and the
//! figures were bimodal from run to run. Free-running connections
//! settled for a whole run into step (both in one batch) or alternation
//! (each waits for the other). With both connections held in lockstep,
//! the share of requests that missed the window sat near the 10% that
//! p90 measures (12 s windows: 68–74 or 84–87 requests/s, p90 31–33 or
//! 20–21 ms). Cycling one seed-drawn order also made a request's
//! neighbour, and with it `record_ms_p90`, a property of the seed (seed
//! 1 gave 27.1 and 26.8 ms in two runs, seed 2 32.4 and 33.9 ms). One
//! connection races nothing, and a fresh order per round keeps the
//! seed to the order of configs.
//!
//! Before it starts the server, the workload fixes glibc's mmap
//! threshold ([`crate::alloc::fix_mmap_threshold`] gives the reason).

use crate::harness::{self, Meter, Window};
use crate::replay::{self, Config, Replayed};
use crate::spans::{self, Span, Tracer};
use crate::Outcome;
use nupea::{all_workloads, jsonl, ArtifactCache, Heuristic, MemoryModel, Scale};
use nupea_serve::client;
use nupea_serve::{ServeOptions, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Handler stages the replay times, in the order the server runs them.
const HANDLER_STAGES: [&str; 5] = [
    "api.parse",
    "kernels.build",
    "cache.lookup",
    "core.run",
    "core.serialize",
];

/// Replies per `/healthz` transport probe in a traced window; sparse,
/// so the probes barely change the load.
const TRANSPORT_EVERY: usize = 8;

/// One `/simulate` round trip.
struct Sample {
    lat_ms: f64,
    config: usize,
    status: u16,
    body_hash: u64,
}

/// Start a server and warm it: compile every config into its cache, then
/// run each once so its input image exists before the window. The
/// warm-up uses one connection per core.
fn start(bodies: &[String]) -> Result<Server, String> {
    let conns = harness::nproc();
    let server = Server::start(&ServeOptions::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    for path in ["/compile", "/simulate"] {
        let next = AtomicUsize::new(0);
        let send_all = || -> Result<(), String> {
            while let Some(body) = bodies.get(next.fetch_add(1, Ordering::Relaxed)) {
                let resp = client::post(addr, path, body).map_err(|e| format!("{path}: {e}"))?;
                if resp.status != 200 {
                    return Err(format!("{path} {body}: status {}", resp.status));
                }
            }
            Ok(())
        };
        let warmed: Result<(), String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns).map(|_| s.spawn(send_all)).collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        });
        if let Err(e) = warmed {
            stop(server);
            return Err(e);
        }
    }
    Ok(server)
}

fn stop(server: Server) {
    server.shutdown();
    let _ = server.wait();
}

/// The config of the `i`-th request of a window: rounds of every config
/// once, each round in its own order drawn from `seed`.
fn config_of(i: usize, configs: usize, seed: u64) -> usize {
    harness::shuffled(configs, seed, &[(i / configs) as u64])[i % configs]
}

/// The closed loop: one connection sends its next request as soon as
/// the reply arrives. Request `i` of the window is config
/// [`config_of`]`(i)`. Traced, a `/healthz` round trip follows every
/// [`TRANSPORT_EVERY`]th request: the transport cost without handler
/// work.
fn load(
    addr: SocketAddr,
    bodies: &[String],
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let config = config_of(i, bodies.len(), seed);
        let t0 = Instant::now();
        let resp = tracer.span("serve.client", 0, |_| {
            client::post(addr, "/simulate", &bodies[config])
        });
        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (status, body_hash) = match resp {
            Ok(r) => (r.status, jsonl::fnv1a(&r.body)),
            Err(_) => (0, 0),
        };
        out.push(Sample {
            lat_ms,
            config,
            status,
            body_hash,
        });
        if tracer.on() && i.is_multiple_of(TRANSPORT_EVERY) {
            let _ = tracer.span("serve.transport", 0, |_| {
                client::request(addr, "GET", "/healthz", "")
            });
        }
    }
    out
}

/// The figures read from `/stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    p50_us: u64,
    p90_us: u64,
    hits: u64,
    misses: u64,
}

fn stats(addr: SocketAddr) -> Result<Stats, String> {
    let body = client::request(addr, "GET", "/stats", "")
        .map_err(|e| format!("/stats: {e}"))?
        .body_str();
    let sim = body
        .find("\"simulate\":{")
        .map(|i| &body[i..])
        .ok_or("/stats has no simulate histogram")?;
    let field = |text: &str, k: &str| jsonl::u64_field(text, k).ok_or(format!("/stats: no {k}"));
    Ok(Stats {
        p50_us: field(sim, "p50_us")?,
        p90_us: field(sim, "p90_us")?,
        hits: field(&body, "hits")?,
        misses: field(&body, "misses")?,
    })
}

/// Mark samples whose reply is not the expected body; returns the
/// number of failures.
fn check(samples: &[Sample], expected: &[Replayed], failures: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for s in samples {
        let want = &expected[s.config];
        let ok = s.status == 200
            && want.error.is_none()
            && s.body_hash == jsonl::fnv1a(want.body.as_bytes());
        if !ok {
            failed += 1;
            if failed <= 3 {
                failures.push(format!(
                    "config {} answered status {} with a body that differs from the in-process record",
                    s.config, s.status
                ));
            }
        }
    }
    failed
}

/// The serve layer's figures from a traced window's samples, the
/// server's `/stats` after it, and the handler replays under span
/// `replays`. Handler, wait and transport add up to the client mean.
fn layers(
    samples: &[Sample],
    spans: &[Span],
    replays: u64,
    before: Stats,
    after: Stats,
) -> Vec<(&'static str, f64)> {
    let lat: Vec<f64> = samples.iter().map(|s| s.lat_ms).collect();
    let client_ms = crate::stats::mean(&lat).unwrap_or(0.0);
    let transport_ms = spans::mean_ms(spans, "serve.transport");
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "replay" && s.parent == replays)
        .map(|s| s.id)
        .collect();
    let handler: Vec<f64> = roots
        .iter()
        .map(|&root| {
            spans
                .iter()
                .filter(|s| s.parent == root && HANDLER_STAGES.contains(&s.name))
                .map(Span::ms)
                .sum()
        })
        .collect();
    let handler_ms = crate::stats::mean(&handler).unwrap_or(0.0);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    vec![
        ("serve.client_ms_mean", client_ms),
        ("serve.server_ms_p50", after.p50_us as f64 / 1e3),
        ("serve.server_ms_p90", after.p90_us as f64 / 1e3),
        ("serve.transport_ms", transport_ms),
        ("serve.handler_ms", handler_ms),
        ("serve.wait_ms", client_ms - handler_ms - transport_ms),
        (
            "cache.hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ]
}

/// Replay every config in-process under one `serve.replay` span.
fn replay_all(
    cfgs: &[Config],
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> (u64, Vec<Replayed>) {
    let cache = ArtifactCache::new(cfgs.len());
    tracer.span("serve.replay", 0, |parent| {
        let mut out = Vec::with_capacity(cfgs.len());
        for cfg in cfgs {
            match replay::replay(cfg, &cache, tracer, parent) {
                Ok(r) => out.push(r),
                Err(e) => failures.push(e),
            }
        }
        (parent, out)
    })
}

/// The serve layer's figures, all 0, for workloads that do not reach
/// it.
pub fn not_reached() -> Vec<(&'static str, f64)> {
    [
        "serve.client_ms_mean",
        "serve.server_ms_p50",
        "serve.server_ms_p90",
        "serve.transport_ms",
        "serve.handler_ms",
        "serve.wait_ms",
        "cache.hit_share",
    ]
    .into_iter()
    .map(|name| (name, 0.0))
    .collect()
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    crate::alloc::fix_mmap_threshold();
    let specs = all_workloads();
    let cfgs: Vec<Config> = specs
        .iter()
        .map(|spec| Config {
            workload: spec.name,
            scale: Scale::Bench,
            seed: harness::placement_seed(),
            heuristic: Heuristic::CriticalityAware,
            model: MemoryModel::Nupea,
        })
        .collect();
    let bodies: Vec<String> = cfgs.iter().map(Config::body).collect();
    let mut failures = Vec::new();
    let (server, setup_s) = match harness::set_up(|| start(&bodies), stop) {
        Ok(ok) => ok,
        Err(e) => {
            failures.push(e);
            return Outcome::failed(failures);
        }
    };
    let addr = server.addr();

    let before = stats(addr);
    let quiet = Tracer::new(false);
    let window = |secs: f64, tracer: &Tracer| -> (Window, Vec<Sample>) {
        let meter = Meter::start();
        let samples = load(addr, &bodies, seed, secs, tracer);
        let lat = samples.iter().map(|s| (s.config, s.lat_ms)).collect();
        (meter.stop(lat, 0), samples)
    };
    let (mut main, main_samples) =
        window(if tracer.on() { seconds / 2.0 } else { seconds }, &quiet);
    let mut traced = tracer.on().then(|| window(seconds / 2.0, tracer));
    let after = stats(addr);
    stop(server);

    let (parent, expected) = replay_all(&cfgs, tracer, &mut failures);
    if expected.len() != cfgs.len() {
        return Outcome::failed(failures);
    }
    main.failed = check(&main_samples, &expected, &mut failures);
    if let Some((w, samples)) = &mut traced {
        w.failed = check(samples, &expected, &mut failures);
    }

    let cycles: Vec<u64> = expected.iter().map(|r| r.cycles).collect();
    let mut ratios = Vec::new();
    let twin_cache = ArtifactCache::new(cfgs.len());
    for (cfg, nupea) in cfgs.iter().zip(&expected) {
        match replay::replay(&cfg.upea2_twin(), &twin_cache, &quiet, 0) {
            Ok(t) if t.error.is_none() => ratios.push(t.cycles as f64 / nupea.cycles as f64),
            Ok(t) => failures.push(format!("{} UPEA2 twin: {:?}", cfg.workload, t.error)),
            Err(e) => failures.push(e),
        }
    }

    let mut layer_values = vec![
        ("runner.busy_share", 0.0),
        ("campaign.masked", 0.0),
        ("campaign.recovered", 0.0),
        ("campaign.hang", 0.0),
        ("campaign.sdc", 0.0),
    ];
    if let Some((_, samples)) = &traced {
        match (before, after) {
            (Ok(b), Ok(a)) => layer_values.extend(layers(samples, &tracer.spans(), parent, b, a)),
            (Err(e), _) | (_, Err(e)) => failures.push(e),
        }
    }
    Outcome {
        setup_s,
        main,
        traced: traced.map(|(w, _)| w),
        cycles,
        speedup: crate::stats::geomean(&ratios).unwrap_or(0.0),
        failures,
        layers: layer_values,
        replays: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_sends_each_config_once_in_its_own_order() {
        let n = 18;
        let rounds: Vec<Vec<usize>> = (0..4)
            .map(|r| (r * n..(r + 1) * n).map(|i| config_of(i, n, 7)).collect())
            .collect();
        for round in &rounds {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
        assert_ne!(rounds[0], rounds[1], "each round draws a fresh order");
        assert_eq!(config_of(5, n, 7), config_of(5, n, 7));
    }
}
