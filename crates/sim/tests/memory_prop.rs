//! Property test: `SimMemory` stores only its used prefix, yet behaves
//! word for word like a dense, zero-initialised array of its capacity.
//! Seeded random sequences of allocations, writes and checked accesses
//! run against both and must agree on every result.

use nupea_rng::Xoshiro256;
use nupea_sim::{MemParams, SimMemory};

/// The dense reference: every word of the capacity, plus the allocator.
struct Dense {
    words: Vec<i64>,
    next_free: usize,
    line_words: usize,
}

impl Dense {
    fn new(p: &MemParams) -> Self {
        Dense {
            words: vec![0; p.mem_words],
            next_free: 0,
            line_words: p.line_words,
        }
    }

    fn alloc(&mut self, len: usize) -> Option<i64> {
        let base = self.next_free;
        let end = base + len;
        (end <= self.words.len()).then(|| {
            self.next_free = end.next_multiple_of(self.line_words);
            base as i64
        })
    }

    fn try_read(&self, addr: i64) -> Option<i64> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.words.get(a))
            .copied()
    }

    fn try_write(&mut self, addr: i64, value: i64) -> bool {
        match usize::try_from(addr)
            .ok()
            .and_then(|a| self.words.get_mut(a))
        {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }
}

/// An address from one of five classes: inside the stored prefix, past
/// it but below capacity, at or just above capacity, negative, or huge.
fn addr(rng: &mut Xoshiro256, stored: usize, cap: usize) -> i64 {
    match rng.index(5) {
        0 if stored > 0 => rng.index(stored) as i64,
        0 | 1 => rng.range_usize(stored.min(cap - 1), cap - 1) as i64,
        2 => (cap + rng.index(3)) as i64,
        3 => *[-1, -2, -(cap as i64), i64::MIN]
            .get(rng.index(4))
            .expect("index below 4"),
        _ => i64::MAX - rng.index(2) as i64,
    }
}

/// `==` holds from both sides: the shorter stored prefix may be either.
fn equal_both_ways(a: &SimMemory, b: &SimMemory) -> bool {
    a.eq(b) && b.eq(a)
}

/// Every stored word matches the reference, and every unstored one is zero.
fn assert_matches(m: &SimMemory, r: &Dense, ctx: &str) {
    let stored = m.words();
    assert!(stored.len() <= m.capacity(), "{ctx}: prefix past capacity");
    assert_eq!(m.capacity(), r.words.len(), "{ctx}: capacity");
    assert_eq!(stored, &r.words[..stored.len()], "{ctx}: stored prefix");
    assert!(
        r.words[stored.len()..].iter().all(|&w| w == 0),
        "{ctx}: reference has data past the stored prefix"
    );
    assert_eq!(m.used(), r.next_free, "{ctx}: allocator");
}

fn run_sequence(seed: u64, p: &MemParams, steps: usize) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut m = SimMemory::new(p);
    let mut r = Dense::new(p);
    let cap = p.mem_words;
    let mut regions: Vec<(i64, usize)> = Vec::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        let value = rng.range_i64(-1000, 1000);
        match rng.index(7) {
            0 => {
                let len = rng.index(40);
                if let Some(base) = r.alloc(len) {
                    assert_eq!(m.alloc(len), base, "{ctx}: alloc base");
                    regions.push((base, len));
                }
            }
            1 => {
                let data: Vec<i64> = (0..rng.index(40)).map(|_| rng.range_i64(-50, 50)).collect();
                if let Some(base) = r.alloc(data.len()) {
                    r.words[base as usize..base as usize + data.len()].copy_from_slice(&data);
                    assert_eq!(m.alloc_init(&data), base, "{ctx}: alloc_init base");
                    regions.push((base, data.len()));
                }
            }
            2 => {
                let a = rng.index(cap);
                m.write(a, value);
                r.words[a] = value;
                assert_eq!(m.read(a), value, "{ctx}: read after write");
            }
            3 => {
                let a = addr(&mut rng, m.words().len(), cap);
                assert_eq!(
                    m.try_write(a, value),
                    r.try_write(a, value),
                    "{ctx}: try_write({a})"
                );
            }
            4 => {
                let a = addr(&mut rng, m.words().len(), cap);
                assert_eq!(m.try_read(a), r.try_read(a), "{ctx}: try_read({a})");
            }
            5 if m.words().len() < cap => {
                // Writing zero past the prefix stores more words but
                // changes no contents: still equal to an untouched copy.
                let before = m.clone();
                let a = rng.range_usize(m.words().len(), cap - 1);
                m.write(a, 0);
                assert!(equal_both_ways(&m, &before), "{ctx}: zero write at {a}");
                m.write(a, value | 1);
                assert!(m != before, "{ctx}: nonzero write at {a} must differ");
                m.write(a, 0);
                assert!(m == before, "{ctx}: rewritten zero at {a}");
            }
            5 => {}
            _ => {
                // A clone is independent of its source.
                let mut c = m.clone();
                assert!(c == m, "{ctx}: clone equals source");
                let a = rng.index(cap);
                let old = m.read(a);
                c.write(a, old.wrapping_add(1));
                assert_eq!(m.read(a), old, "{ctx}: clone write leaked into source");
                assert!(c != m, "{ctx}: modified clone still equal");
            }
        }
        for &(base, len) in &regions {
            assert_eq!(
                m.slice(base, len),
                &r.words[base as usize..base as usize + len],
                "{ctx}: region at {base}"
            );
        }
        assert_matches(&m, &r, &ctx);
    }
    // Materialising the whole store changes no contents.
    let before = m.clone();
    assert_eq!(m.words_mut(), &r.words[..], "seed {seed}: words_mut");
    assert_eq!(m.words().len(), cap, "seed {seed}: words_mut stores all");
    assert!(equal_both_ways(&m, &before), "seed {seed}: materialised");
}

#[test]
fn sim_memory_matches_dense_reference() {
    let small = MemParams {
        mem_words: 300,
        ..MemParams::tiny()
    };
    for seed in 0..40 {
        run_sequence(seed, &small, 400);
    }
    for seed in 100..104 {
        run_sequence(seed, &MemParams::tiny(), 400);
    }
}

#[test]
fn equality_needs_equal_capacity() {
    let a = SimMemory::new(&MemParams::tiny());
    let b = SimMemory::new(&MemParams {
        mem_words: 8192,
        ..MemParams::tiny()
    });
    assert!(a != b);
}

#[test]
fn clone_of_a_sparse_full_size_memory_stores_only_the_prefix() {
    let p = MemParams::default();
    assert_eq!(p.mem_words, 2 * 1024 * 1024);
    let mut m = SimMemory::new(&p);
    let base = m.alloc_init(&[1, 2, 3, 4, 5]);
    m.write(40, 7);
    let c = m.clone();
    assert_eq!(c.capacity(), p.mem_words);
    assert_eq!(c.words().len(), 41, "only the written prefix is stored");
    assert_eq!(c.slice(base, 5), &[1, 2, 3, 4, 5]);
    assert_eq!(c.try_read(p.mem_words as i64 - 1), Some(0));
    assert_eq!(c.try_read(p.mem_words as i64), None);
    assert!(c == m);
    // The interpreter's view is the whole logical memory.
    let mut full = c.clone();
    assert_eq!(full.words_mut().len(), p.mem_words);
    assert!(equal_both_ways(&full, &m));
}
