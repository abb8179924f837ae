//! `fault-campaign`: `FaultCampaign` with every fault class of
//! `CampaignConfig::full()` over every registered workload at Test scale
//! on `nproc` threads. A record is one workload's campaign of
//! [`INJECTIONS`] short injected runs, each carrying watchdog hang
//! detection and avoid-set re-placement, so per-run fixed cost outweighs
//! the event loop.
//!
//! The `nproc` threads are `nproc` callers, each running its own
//! one-thread campaign, rather than one caller running an `nproc`-thread
//! campaign: a one-workload campaign runs its golden compile and run on
//! one thread before it fans out, and a campaign over many workloads
//! keeps every core busy in that phase too. Busy cores also keep the
//! figures from depending on which virtual core a lone thread lands on.

use crate::harness::{self, Meter};
use crate::replay::{self, Config};
use crate::spans::Tracer;
use crate::Outcome;
use nupea::{
    all_workloads, ArtifactCache, CampaignConfig, CampaignReport, FaultCampaign, Heuristic,
    MemoryModel, OutcomeClass, Scale, WorkloadSpec,
};
use std::hint::black_box;

/// Injections per workload campaign. Three campaigns per workload (each
/// with its own seed) make up the preset's 24 injections per workload;
/// smaller campaigns give the window enough records for a tail
/// percentile.
const INJECTIONS: u32 = 8;
/// Committed per-class counts (masked, recovered, hang, sdc) of the
/// check round. A change that alters campaign outcomes changes them.
const CHECK_COUNTS: [usize; 4] = [66, 59, 11, 8];

/// One workload campaign: build the Test-scale workload, run the
/// campaign, serialize its report.
fn record(
    spec: &WorkloadSpec,
    sys_seed: u64,
    campaign_seed: u64,
    tracer: &Tracer,
) -> Result<CampaignReport, String> {
    tracer.span("record", 0, |root| {
        let w = tracer.span("kernels.build", root, |_| spec.build_default(Scale::Test));
        let mut cfg = CampaignConfig::full();
        cfg.seed = campaign_seed;
        cfg.injections = INJECTIONS;
        cfg.threads = 1;
        let sys = Config::golden(spec.name, sys_seed).system();
        let mut campaign = FaultCampaign::new(cfg).with_system(sys);
        campaign.workload(w);
        let report = tracer
            .span("core.campaign", root, |_| campaign.run())
            .map_err(|e| format!("{} campaign: {e}", spec.name))?;
        black_box(tracer.span("campaign.report_json", root, |_| report.to_json()));
        if report.records.len() != INJECTIONS as usize {
            return Err(format!(
                "{} campaign classified {} of {INJECTIONS} injections",
                spec.name,
                report.records.len()
            ));
        }
        Ok(report)
    })
}

fn counts<'a>(reports: impl IntoIterator<Item = &'a CampaignReport>) -> [usize; 4] {
    let mut out = [0; 4];
    for r in reports {
        for (slot, class) in out.iter_mut().zip(OutcomeClass::ALL) {
            *slot += r.count(class);
        }
    }
    out
}

fn check_round(specs: &[WorkloadSpec]) -> Result<(), String> {
    let quiet = Tracer::new(false);
    let seed = CampaignConfig::full().seed;
    let reports = harness::each_parallel(specs, harness::nproc(), |spec| {
        record(spec, harness::placement_seed(), seed, &quiet)
    })
    .into_iter()
    .map(|(report, _)| report)
    .collect::<Result<Vec<_>, _>>()?;
    let got = counts(&reports);
    if got != CHECK_COUNTS {
        return Err(format!(
            "check round counts (masked, recovered, hang, sdc) {got:?} != committed {CHECK_COUNTS:?}: campaign outcomes changed"
        ));
    }
    Ok(())
}

impl Config {
    /// The fault-free golden run a campaign compiles and simulates.
    fn golden(workload: &'static str, seed: u64) -> Config {
        Config {
            workload,
            scale: Scale::Test,
            seed,
            heuristic: Heuristic::CriticalityAware,
            model: MemoryModel::Nupea,
        }
    }
}

/// The campaign seed of workload `i` in round `r`. It does not depend on
/// the benchmark seed: every run injects the same faults, so the work in
/// a window is the same from seed to seed and only its order (drawn from
/// the benchmark seed) changes. Seed-drawn campaign seeds made the tail
/// latency a property of the seed: hang and re-placement draws decide
/// which campaigns run long.
fn campaign_seed(r: usize, i: usize) -> u64 {
    harness::mix(CampaignConfig::full().seed, &[r as u64, i as u64])
}

/// One finished record: round, golden config, report (or error).
type Done = (usize, Config, Result<CampaignReport, String>);

fn window(
    specs: &[WorkloadSpec],
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> (harness::Window, Vec<Done>) {
    let meter = Meter::start();
    let mut lat = Vec::new();
    let mut done = Vec::new();
    harness::rounds(&meter, seconds, |r| {
        let order = harness::shuffled(specs.len(), seed, &[r as u64]);
        let reports = harness::each_parallel(&order, harness::nproc(), |&i| {
            let golden = harness::placement_seed();
            record(&specs[i], golden, campaign_seed(r, i), tracer)
        });
        for (i, (report, ms)) in order.into_iter().zip(reports) {
            lat.push((i, ms));
            let golden = Config::golden(specs[i].name, harness::placement_seed());
            done.push((r, golden, report));
        }
    });
    let failed = done.iter().filter(|(_, _, r)| r.is_err()).count() as u64;
    (meter.stop(lat, failed), done)
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
        (base, Some(window(&specs, seed, seconds / 2.0, tracer)))
    } else {
        (window(&specs, seed, seconds, tracer), None)
    };
    for (_, _, r) in main.1.iter().chain(traced.iter().flat_map(|t| &t.1)) {
        if let Err(e) = r {
            failures.push(e.clone());
        }
    }

    let exact: Vec<(&Config, &CampaignReport)> = main
        .1
        .iter()
        .filter(|(r, _, _)| *r < harness::EXACT_ROUNDS)
        .filter_map(|(_, cfg, rep)| rep.as_ref().ok().map(|rep| (cfg, rep)))
        .collect();
    let cycles: Vec<u64> = exact
        .iter()
        .map(|(_, rep)| rep.records[0].golden_cycles)
        .collect();
    // The first round's golden configs: the UPEA2 twins' and the layer
    // replays' inputs.
    let first_round = &exact[..specs.len().min(exact.len())];
    let quiet = Tracer::new(false);
    let cache = ArtifactCache::new(specs.len());
    let mut ratios = Vec::new();
    for (cfg, rep) in first_round {
        match replay::replay(&cfg.upea2_twin(), &cache, &quiet, 0) {
            Ok(t) if t.error.is_none() => {
                ratios.push(t.cycles as f64 / rep.records[0].golden_cycles as f64);
            }
            Ok(t) => failures.push(format!("{} UPEA2 twin: {:?}", cfg.workload, t.error)),
            Err(e) => failures.push(e),
        }
    }

    let [masked, recovered, hang, sdc] = counts(exact.iter().map(|(_, rep)| *rep));
    let mut layers = vec![
        ("runner.busy_share", 0.0),
        ("campaign.masked", masked as f64),
        ("campaign.recovered", recovered as f64),
        ("campaign.hang", hang as f64),
        ("campaign.sdc", sdc as f64),
    ];
    layers.extend(crate::serve::not_reached());
    let mut replays = Vec::new();
    if tracer.on() {
        let cache = ArtifactCache::new(specs.len());
        for (cfg, _) in first_round {
            match replay::replay(cfg, &cache, tracer, 0) {
                Ok(r) => replays.push(r),
                Err(e) => failures.push(e),
            }
        }
    }
    Outcome {
        setup_s,
        main: main.0,
        traced: traced.map(|t| t.0),
        cycles,
        speedup: crate::stats::geomean(&ratios).unwrap_or(0.0),
        failures,
        layers,
        replays,
    }
}
