//! Place-and-route identity: every registered workload at Test scale,
//! under every heuristic and every one of `compile`'s three attempt seeds,
//! must place and route exactly as before. One hash covers each attempt's
//! `pe_of`, every routed tree's source, terminals and depths, `max_hops`,
//! `wire_segments`, PathFinder iterations and divider (or its error), plus
//! the divider `SystemConfig::compile` keeps and one avoid-set re-place.
//!
//! This is the safety net for router and placer speed-ups that must not
//! change a single route. A change that is meant to alter routes must show
//! equal or better dividers, hops and cycles, and then update `EXPECTED`
//! to the hash the failure message prints.

use nupea::{Heuristic, Scale, SystemConfig};
use nupea_kernels::workloads::all_workloads;
use nupea_pnr::{pnr, PlaceConfig, Placed, PnrConfig, PnrError};

const EXPECTED: u64 = 0x808c_6887_3e75_ef3f;

const HEURISTICS: [Heuristic; 3] = [
    Heuristic::DomainUnaware,
    Heuristic::OnlyDomainAware,
    Heuristic::CriticalityAware,
];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn placed(&mut self, p: &Placed) {
        self.word(p.pe_of.len() as u64);
        for pe in &p.pe_of {
            self.word(u64::from(pe.0));
        }
        let r = &p.routing;
        self.word(r.trees.len() as u64);
        for t in &r.trees {
            self.word(u64::from(t.src.0));
            self.word(t.terminals.len() as u64);
            for &(pe, hops) in &t.terminals {
                self.word(u64::from(pe.0));
                self.word(u64::from(hops));
            }
        }
        self.word(u64::from(r.max_hops));
        self.word(r.wire_segments as u64);
        self.word(u64::from(r.iterations));
        self.word(u64::from(p.timing.divider));
    }

    fn result(&mut self, r: &Result<Placed, PnrError>) {
        match r {
            Ok(p) => {
                self.word(0);
                self.placed(p);
            }
            Err(PnrError::Unplaceable(_)) => self.word(1),
            Err(PnrError::Unroutable { overused }) => {
                self.word(2);
                self.word(*overused as u64);
            }
        }
    }
}

/// `compile`'s attempt seeds for a base seed.
fn attempt_seed(base: u64, attempt: u64) -> u64 {
    base.wrapping_add(attempt.wrapping_mul(0x9E37_79B9))
}

#[test]
fn pnr_is_identical_across_workloads_heuristics_and_seeds() {
    let sys = SystemConfig::monaco_12x12();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Test);
        let dfg = w.kernel.dfg();
        for heuristic in HEURISTICS {
            let attempts: Vec<Result<Placed, PnrError>> = (0..3)
                .map(|k| {
                    let place = PlaceConfig {
                        heuristic,
                        seed: attempt_seed(sys.seed, k),
                        effort: sys.effort,
                        avoid: Vec::new(),
                    };
                    pnr(dfg, &sys.fabric, &PnrConfig { place })
                })
                .collect();
            for a in &attempts {
                h.result(a);
            }
            // The divider compile keeps: first best (divider, max_hops)
            // in attempt order.
            let kept = attempts
                .iter()
                .flatten()
                .map(|p| (p.timing.divider, p.routing.max_hops))
                .reduce(|best, x| if x < best { x } else { best });
            h.word(kept.map_or(u64::MAX, |(d, _)| u64::from(d)));
        }
    }
    // One degraded-mode re-place through the public compile path: the PE
    // of spmspv's first memory instruction has failed.
    let spmspv = all_workloads()
        .into_iter()
        .find(|s| s.name == "spmspv")
        .expect("spmspv is registered")
        .build_default(Scale::Test);
    let golden = sys
        .compile(&spmspv, Heuristic::CriticalityAware)
        .expect("spmspv compiles");
    let failed = spmspv
        .kernel
        .dfg()
        .iter()
        .find(|(_, n)| n.op.is_memory())
        .map(|(id, _)| golden.placed.pe_of[id.index()])
        .expect("spmspv has a memory instruction");
    let mut degraded = sys.clone();
    degraded.avoid = vec![failed];
    let replaced = degraded
        .compile(&spmspv, Heuristic::CriticalityAware)
        .expect("spmspv re-places around one failed PE");
    assert!(
        !replaced.placed.pe_of.contains(&failed),
        "re-place must avoid {failed:?}"
    );
    h.placed(&golden.placed);
    h.placed(&replaced.placed);
    assert_eq!(
        h.0, EXPECTED,
        "place-and-route output changed: hash {:#018x}",
        h.0
    );
}
