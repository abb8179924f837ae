//! The benchmark's statistics: medians, quartiles, the tail-percentile
//! rule, geometric means, and the run-to-run spread check.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads computed here match the ones computed from the
/// printed results.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let cut = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

/// The interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-th percentile (nearest rank), reported only when at least
/// [`TAIL_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < TAIL_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Each config's median latency; `samples` are (config, latency) pairs.
fn config_medians(samples: &[(usize, f64)]) -> BTreeMap<usize, f64> {
    let mut by_config: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(config, lat) in samples {
        by_config.entry(config).or_default().push(lat);
    }
    by_config
        .into_iter()
        .filter_map(|(config, lats)| Some((config, median(&lats)?)))
        .collect()
}

/// The typical record latency of a window whose records come from
/// several configs: the geometric mean over configs of each config's
/// median. Every config weighs the same, so the figure does not fall
/// into a gap between configs of very different cost, as a median
/// pooled over all records can, and a slowdown confined to some configs
/// still moves it. `samples` are (config, latency) pairs.
pub fn geomean_of_medians(samples: &[(usize, f64)]) -> Option<f64> {
    geomean(&config_medians(samples).into_values().collect::<Vec<_>>())
}

/// The typical record's `p`-th percentile latency: [`geomean_of_medians`]
/// scaled by a tail ratio. Each record's latency is divided by its
/// config's median; the records, in completion order, are cut into
/// consecutive chunks just long enough for [`tail`]'s rule, and the
/// tail ratio is the median of the chunks' `p`-th percentiles.
///
/// Dividing by the config's median makes the tail the records'
/// variation around their own config, not the cost of whichever configs
/// happen to be the largest. The median over chunks keeps a burst of
/// slow records confined to a few seconds of the window (the host
/// stalling the process) from setting the whole window's tail: such
/// bursts came and went from run to run and made a pooled percentile
/// bimodal. `samples` are (config, latency) pairs in completion order.
pub fn relative_tail(samples: &[(usize, f64)], p: f64) -> Option<f64> {
    let medians = config_medians(samples);
    let ratios: Vec<f64> = samples
        .iter()
        .map(|&(config, lat)| lat / medians[&config])
        .collect();
    let n = ratios.len();
    let chunk = (TAIL_BEYOND as f64 * 100.0 / (100.0 - p)).ceil() as usize;
    let chunks = n / chunk.max(1);
    let tails = (0..chunks)
        .map(|k| tail(&ratios[k * n / chunks..(k + 1) * n / chunks], p))
        .collect::<Option<Vec<f64>>>()?;
    Some(geomean_of_medians(samples)? * median(&tails)?)
}

/// Mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Whether `second` is worse than `first` by more than `bound` (a share
/// of `first`), for a metric where `lower` is better or not.
pub fn regressed(first: f64, second: f64, lower_is_better: bool, bound: f64) -> bool {
    let worse = if lower_is_better {
        second - first
    } else {
        first - second
    };
    worse > bound * first.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // index is clamped and the weights extrapolate past the ends.
        assert_eq!(quartiles(&[7.0, 5.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), Some(90.0));
        assert_eq!(tail(&v[..99], 90.0), None, "99 samples leave 9 beyond p90");
        assert_eq!(tail(&v, 99.0), None);
        assert_eq!(tail(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
    }

    #[test]
    fn regression_check_respects_direction_and_bound() {
        assert!(!regressed(100.0, 104.0, true, 0.05));
        assert!(regressed(100.0, 106.0, true, 0.05));
        assert!(
            !regressed(100.0, 50.0, true, 0.05),
            "faster is not a regression"
        );
        assert!(regressed(100.0, 94.0, false, 0.05));
        assert!(!regressed(100.0, 96.0, false, 0.05));
    }

    #[test]
    fn geomean_of_medians_weighs_every_config_alike() {
        // Config 0: median 2; config 1: median 32 (one outlier ignored).
        let samples = [
            (0, 1.0),
            (0, 2.0),
            (0, 9.0),
            (1, 32.0),
            (1, 31.0),
            (1, 900.0),
        ];
        assert!((geomean_of_medians(&samples).unwrap() - 8.0).abs() < 1e-12);
        // More records of one config do not shift the figure.
        let mut skewed = samples.to_vec();
        skewed.extend([(0, 2.0); 20]);
        assert!((geomean_of_medians(&skewed).unwrap() - 8.0).abs() < 1e-12);
        // A slowdown confined to one config moves it.
        let slow: Vec<_> = samples
            .iter()
            .map(|&(c, l)| (c, if c == 1 { l * 4.0 } else { l }))
            .collect();
        assert!((geomean_of_medians(&slow).unwrap() - 16.0).abs() < 1e-12);
        assert_eq!(geomean_of_medians(&[]), None);
    }

    #[test]
    fn relative_tail_scales_the_typical_latency_by_the_tail_ratio() {
        // Two configs, 100 records each, medians 2 and 8; every tenth
        // record of each runs at three times its config's median.
        let mut samples = Vec::new();
        for (config, base) in [(0, 2.0), (1, 8.0)] {
            for i in 0..100 {
                let slow = if i % 10 == 0 { 3.0 } else { 1.0 };
                samples.push((config, base * slow));
            }
        }
        // The ratios are 180 ones and 20 threes; the typical latency is
        // geomean(2, 8) = 4. Nearest rank 160 of 200 is a one, rank 182
        // a three (18 ratios beyond it).
        assert!((relative_tail(&samples, 80.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((relative_tail(&samples, 91.0).unwrap() - 12.0).abs() < 1e-12);
        // 50 records leave 5 beyond p90: no figure.
        assert_eq!(relative_tail(&samples[..50], 90.0), None);
    }

    #[test]
    fn relative_tail_ignores_a_burst_confined_to_few_chunks() {
        // 1000 records of one config, median 10; every tenth runs at 12.
        // Then 150 records in a row run at 30: a stall of the host.
        let steady: Vec<(usize, f64)> = (0..1000)
            .map(|i| (0, if i % 10 == 0 { 12.0 } else { 10.0 }))
            .collect();
        let mut stalled = steady.clone();
        for s in &mut stalled[400..550] {
            s.1 = 30.0;
        }
        // Nearest rank 90 of each 100-record chunk is a 10: its ten
        // records beyond include the 12s.
        assert!((relative_tail(&steady, 90.0).unwrap() - 10.0).abs() < 1e-12);
        assert!((relative_tail(&stalled, 90.0).unwrap() - 10.0).abs() < 1e-12);
        // A percentile pooled over the window falls inside the burst.
        let pooled: Vec<f64> = stalled.iter().map(|s| s.1).collect();
        assert_eq!(tail(&pooled, 90.0), Some(30.0));
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
