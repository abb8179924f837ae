//! One config replayed through each layer's public functions, in the
//! order the serve handler calls them: `ConfigRequest::parse`, `build`,
//! `config_hash` + `ArtifactCache::get_or_compile`, `run_compiled`,
//! `records_to_json`. Untraced, it yields the record body the program
//! must produce for the config (the serve-warm byte check). Traced, it
//! also times `SystemConfig::compile`, the three PnR attempts stage by
//! stage, and an unvalidated engine run followed by `Workload::validate`.

use crate::spans::Tracer;
use nupea::runner::{records_to_json, run_compiled};
use nupea::{
    config_hash, ArtifactCache, Heuristic, MemoryModel, PnrError, RetryPolicy, Scale, SimOptions,
    SystemConfig, Workload,
};
use nupea_pnr::{place::place, route, timing, Netlist, PlaceConfig};
use nupea_serve::api::ConfigRequest;

/// The seed step between `SystemConfig::compile`'s PnR attempts.
const ATTEMPT_STEP: u64 = 0x9E37_79B9;
/// PnR attempts per compile.
const ATTEMPTS: u64 = 3;

/// One (workload, placement seed, heuristic, model) configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: &'static str,
    pub scale: Scale,
    pub seed: u64,
    pub heuristic: Heuristic,
    pub model: MemoryModel,
}

impl Config {
    /// The `/simulate` request body naming this config.
    pub fn body(&self) -> String {
        let scale = match self.scale {
            Scale::Test => "test",
            Scale::Bench => "bench",
        };
        format!(
            "{{\"workload\":\"{}\",\"scale\":\"{scale}\",\"heuristic\":\"{}\",\"model\":\"{}\",\"seed\":{}}}",
            self.workload,
            self.heuristic,
            self.model.label().to_ascii_lowercase(),
            self.seed
        )
    }

    /// The system the config compiles for.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::builder().seed(self.seed).build()
    }

    /// The same workload and seed compiled domain-unaware and run under
    /// UPEA2: the baseline of the paper's headline speedup.
    pub fn upea2_twin(&self) -> Config {
        Config {
            heuristic: Heuristic::DomainUnaware,
            model: MemoryModel::Upea(2),
            ..*self
        }
    }
}

/// What the PnR stage replay saw over the three attempts.
#[derive(Debug, Default, Clone, Copy)]
pub struct PnrReplay {
    pub attempts: u32,
    /// Attempts whose timing beat every earlier attempt (the results the
    /// compile keeps; the rest is discarded work).
    pub kept: u32,
    pub route_fails: u32,
    pub divider: u32,
    pub max_hops: u32,
}

/// The replay's result for one config.
#[derive(Debug)]
pub struct Replayed {
    /// `records_to_json` of the record, as the serve handler answers it.
    pub body: String,
    pub cycles: u64,
    pub error: Option<String>,
    /// Present on traced replays.
    pub pnr: Option<PnrReplay>,
    /// Firings and cycles of the traced engine replay.
    pub engine_work: Option<(u64, u64)>,
}

/// Replay `cfg` through every layer (see the module docs) under span
/// `parent`. `cache` is the replay's own artifact cache: a miss compiles
/// untimed, then the handler's hit path is timed.
pub fn replay(
    cfg: &Config,
    cache: &ArtifactCache,
    tracer: &Tracer,
    parent: u64,
) -> Result<Replayed, String> {
    tracer.span("replay", parent, |root| {
        let body = cfg.body();
        let req = tracer.span("api.parse", root, |_| ConfigRequest::parse(&body))?;
        let (workload, sys) = tracer.span("kernels.build", root, |_| req.build())?;
        let h = req.heuristic;
        let (warm, _) = cache.get_or_compile(config_hash(&workload, &sys, h), &workload, &sys, h);
        let warm = warm.map_err(|e| format!("{}: compile failed: {e}", cfg.workload))?;
        let (mut pnr, mut engine_work) = (None, None);
        if tracer.on() {
            pnr = Some(replay_compile(&workload, &sys, h, tracer, root)?);
            // Generate the artifact's input image before timing runs.
            let _ = run_compiled(&warm, req.model, None, RetryPolicy::None, false);
            engine_work = Some(replay_engine(&warm, req.model, tracer, root)?);
        }
        let (compiled, cached) = tracer.span("cache.lookup", root, |_| {
            let hash = config_hash(&workload, &sys, h);
            cache.get_or_compile(hash, &workload, &sys, h)
        });
        let compiled =
            compiled.map_err(|e| format!("{}: cache lookup failed: {e}", cfg.workload))?;
        let (mut record, _) = tracer.span("core.run", root, |_| {
            run_compiled(&compiled, req.model, None, RetryPolicy::None, false)
        });
        record.compile_cached = cached;
        let cycles = record.cycles;
        let error = record.error.clone();
        let body = tracer.span("core.serialize", root, |_| {
            records_to_json(&[record], false)
        });
        Ok(Replayed {
            body,
            cycles,
            error,
            pnr,
            engine_work,
        })
    })
}

/// Time `SystemConfig::compile`, then replay its attempts through
/// `Netlist::from_dfg`, `place`, `route` and `timing::analyze`, and check
/// the replay picks the same timing the compile kept.
fn replay_compile(
    workload: &Workload,
    sys: &SystemConfig,
    h: Heuristic,
    tracer: &Tracer,
    parent: u64,
) -> Result<PnrReplay, String> {
    let compiled = tracer.span("pnr.compile", parent, |_| sys.compile(workload, h));
    let compiled = compiled.map_err(|e| format!("{}: compile failed: {e}", workload.name))?;
    let dfg = workload.kernel.dfg();
    let fabric = &sys.fabric;
    let mut r = PnrReplay::default();
    let mut best: Option<(u32, u32)> = None;
    tracer.span("pnr.stages", parent, |stages| {
        for k in 0..ATTEMPTS {
            r.attempts += 1;
            let netlist = tracer.span("pnr.netlist", stages, |_| Netlist::from_dfg(dfg));
            let place_cfg = PlaceConfig {
                heuristic: h,
                seed: sys.seed.wrapping_add(k.wrapping_mul(ATTEMPT_STEP)),
                effort: sys.effort,
                avoid: sys.avoid.clone(),
            };
            let placement =
                match tracer.span("pnr.place", stages, |_| place(fabric, &netlist, &place_cfg)) {
                    Ok(p) => p,
                    Err(PnrError::Unplaceable(_)) => break,
                    Err(_) => continue,
                };
            let Ok(routing) = tracer.span("pnr.route", stages, |_| {
                route(fabric, &netlist, &placement.pe_of)
            }) else {
                r.route_fails += 1;
                continue;
            };
            let t = tracer.span("pnr.timing", stages, |_| {
                timing::analyze(fabric, routing.max_hops)
            });
            if best.is_none_or(|b| (t.divider, t.max_hops) < b) {
                best = Some((t.divider, t.max_hops));
                r.kept += 1;
            }
        }
    });
    let kept = (
        compiled.placed.timing.divider,
        compiled.placed.timing.max_hops,
    );
    if best != Some(kept) {
        return Err(format!(
            "{}: PnR replay kept {best:?}, compile kept {kept:?}",
            workload.name
        ));
    }
    (r.divider, r.max_hops) = kept;
    Ok(r)
}

/// One unvalidated engine run, then the reference check on its outputs.
/// Returns the run's firings and cycles.
fn replay_engine(
    compiled: &nupea::Compiled,
    model: MemoryModel,
    tracer: &Tracer,
    parent: u64,
) -> Result<(u64, u64), String> {
    let name = compiled.workload().name;
    let out = tracer.span("sim.engine", parent, |_| {
        compiled.simulate_with(&SimOptions::new(model).no_validate().keep_memory())
    });
    let out = out.map_err(|e| format!("{name}: engine run failed: {e}"))?;
    let mem = out.memory.expect("memory was requested");
    tracer
        .span("sim.validate", parent, |_| {
            compiled.workload().validate(&mem, &out.stats.sinks)
        })
        .map_err(|e| format!("{name}: outputs differ from the reference: {e}"))?;
    Ok((out.stats.firings, out.stats.cycles))
}
