//! One worker process of a sharded chaos-test run (see
//! `tests/shard_chaos.rs` and DESIGN.md §11).
//!
//!     shard_worker faults <dir> <shards> <worker-id> [ttl_ms] [heartbeat_ms]
//!     shard_worker dse    <dir> <shards> <worker-id> [ttl_ms] [heartbeat_ms]
//!
//! Every worker of a run hardcodes the same small campaign / search
//! configuration (the sharded protocols require all workers to agree on
//! the work-item space), claims shards through the coordination journal
//! in `<dir>`, and exits 0 once every shard is done — including shards
//! finished by other workers. On success it prints one JSON stats line:
//!
//!     {"claimed":3,"completed":3,"stolen":1,"fenced":0}
//!
//! The chaos test SIGKILLs workers at random points and asserts that the
//! survivors steal the dead workers' shards, that a resumed worker
//! claims nothing, and that the merged reports are byte-identical to the
//! single-process run.

use nupea::campaign::{CampaignConfig, FaultCampaign};
use nupea::shard::{ShardOptions, WorkerStats};
use nupea::Scale;
use nupea_dse::{DseConfig, SearchSpace};
use nupea_kernels::workloads::workload_by_name;
use std::path::Path;
use std::process::ExitCode;

/// The chaos campaign: the smoke preset narrowed to two workloads × twelve
/// injections. Must match `tests/shard_chaos.rs`.
fn chaos_campaign() -> FaultCampaign {
    let mut cfg = CampaignConfig::smoke();
    cfg.injections = 12;
    cfg.threads = 2;
    let mut campaign = FaultCampaign::new(cfg);
    for name in ["spmv", "spmspv"] {
        campaign.workload(workload_by_name(name).unwrap().build_default(Scale::Test));
    }
    campaign
}

/// The chaos search space: six candidates over one workload. Must match
/// `tests/shard_chaos.rs`.
fn chaos_space() -> SearchSpace {
    SearchSpace {
        domain_cols: vec![3],
        d0_cols: vec![2, 3],
        cache_words: vec![64 * 1024],
        effort: 32,
        ..SearchSpace::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(dir), Some(shards), Some(worker)) =
        (args.first(), args.get(1), args.get(2), args.get(3))
    else {
        eprintln!(
            "usage: shard_worker <faults|dse> <dir> <shards> <worker-id> [ttl_ms] [heartbeat_ms]"
        );
        return ExitCode::FAILURE;
    };
    let Ok(shards) = shards.parse::<u32>() else {
        eprintln!("shard_worker: bad shard count {shards:?}");
        return ExitCode::FAILURE;
    };
    let num = |i: usize, default: u64| args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let opts = ShardOptions {
        shards,
        worker: worker.clone(),
        ttl_ms: num(4, 1_500),
        heartbeat_ms: num(5, 150),
        ..ShardOptions::default()
    };
    let dir = Path::new(dir);
    let stats: Result<WorkerStats, String> = match mode.as_str() {
        "faults" => chaos_campaign()
            .run_shard_worker(dir, &opts)
            .map_err(|e| e.to_string()),
        "dse" => {
            let spmspv = workload_by_name("spmspv")
                .expect("spmspv exists")
                .build_default(Scale::Test);
            nupea_dse::run_shard_worker(
                &chaos_space(),
                &DseConfig::default(),
                &[spmspv],
                dir,
                &opts,
            )
            .map_err(|e| e.to_string())
        }
        m => {
            eprintln!("shard_worker: unknown mode {m:?}");
            return ExitCode::FAILURE;
        }
    };
    match stats {
        Ok(s) => {
            println!(
                "{{\"claimed\":{},\"completed\":{},\"stolen\":{},\"fenced\":{}}}",
                s.claimed, s.completed, s.stolen, s.fenced
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shard_worker[{}]: {e}", opts.worker);
            ExitCode::FAILURE
        }
    }
}
