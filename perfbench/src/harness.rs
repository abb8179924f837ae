//! What every workload shares: the timed window, repeated set-up, round
//! pacing, and seed mixing.

use crate::alloc;
use nupea::SystemConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Rounds every timed window completes, so the exact metrics always
/// cover the same configs for a seed.
pub const EXACT_ROUNDS: usize = 2;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Mark process start; call first thing in `main`.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// One timed window's results.
#[derive(Debug, Default)]
pub struct Window {
    /// One (config, latency) pair per record, in completion order. The
    /// config is an index into the workload's own config list.
    pub lat_ms: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub secs: f64,
    /// Highest live heap during the window.
    pub peak_heap: u64,
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
}

/// Timer and heap meter for one window.
pub struct Meter {
    t0: Instant,
    a0: alloc::Snapshot,
}

impl Meter {
    pub fn start() -> Self {
        alloc::reset_peak();
        Meter {
            t0: Instant::now(),
            a0: alloc::snapshot(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Close the window over `lat_ms`, one (config, latency) pair per
    /// attempted record.
    pub fn stop(self, lat_ms: Vec<(usize, f64)>, failed: u64) -> Window {
        let secs = self.elapsed();
        let a1 = alloc::snapshot();
        Window {
            attempted: lat_ms.len() as u64,
            lat_ms,
            failed,
            secs,
            peak_heap: a1.peak,
            alloc_bytes: a1.bytes - self.a0.bytes,
            alloc_calls: a1.calls - self.a0.calls,
        }
    }
}

/// Run `once` [`SETUPS`] times, retiring each result before the next,
/// and keep the last. The first repetition is timed from process start.
pub fn set_up<S>(
    mut once: impl FnMut() -> Result<S, String>,
    mut retire: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(old) = kept.take() {
            retire(old);
        }
        let t0 = match k {
            0 => *PROCESS_START.get().expect("process start marked"),
            _ => Instant::now(),
        };
        kept = Some(once()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// Apply `f` to every item on `threads` threads, each taking the next
/// untaken item, and return (result, milliseconds) per item in input
/// order.
pub fn each_parallel<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<(T, f64)> {
    assert_load_fits(threads);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let t0 = Instant::now();
                        let result = f(item);
                        out.push((i, result, t0.elapsed().as_secs_f64() * 1e3));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _, _)| i);
    done.into_iter().map(|(_, t, ms)| (t, ms)).collect()
}

/// Call `round(r)` for r = 0, 1, … and stop once another round would
/// likely end past `seconds`, after at least [`EXACT_ROUNDS`] rounds.
/// Whole rounds keep every window's workload mix identical.
pub fn rounds(meter: &Meter, seconds: f64, mut round: impl FnMut(usize)) {
    let mut r = 0;
    loop {
        round(r);
        r += 1;
        let el = meter.elapsed();
        if r >= EXACT_ROUNDS && el + el / r as f64 > seconds {
            return;
        }
    }
}

/// The placement seed of every config: the program's default, what a
/// request without a `seed` gets. Seed-drawn placement seeds make runs
/// fail at random: effcc leaves `vww` unroutable (all three PnR attempts
/// fail) at about one placement seed in twenty, and `ic` at rarer ones.
pub fn placement_seed() -> u64 {
    SystemConfig::monaco_12x12().seed
}

/// A permutation of `0..n` drawn from `seed` and `parts` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64, parts: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = mix(seed, parts);
    for i in (1..n).rev() {
        x = mix(x, &[i as u64]);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// SplitMix64 of `seed` mixed with `parts`: the benchmark's input
/// generator (the program only ever sees the configs it yields).
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x ^= p.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(x << 6);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// Load threads and connections: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fail loudly if a load generator would exceed the core count.
pub fn assert_load_fits(threads: usize) {
    assert!(
        threads >= 1 && threads <= nproc(),
        "load uses {threads} threads or connections but only {} cores are available",
        nproc()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads_parts() {
        assert_eq!(mix(7, &[1, 2]), mix(7, &[1, 2]));
        assert_ne!(mix(7, &[1, 2]), mix(7, &[2, 1]));
        assert_ne!(mix(7, &[1]), mix(8, &[1]));
    }

    #[test]
    fn each_parallel_keeps_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let out = each_parallel(&items, nproc(), |&x| x * x);
        let squares: Vec<u64> = out.into_iter().map(|(y, _)| y).collect();
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(18, 3, &[0]);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_eq!(a, shuffled(18, 3, &[0]));
        assert_ne!(a, shuffled(18, 4, &[0]));
    }
}
