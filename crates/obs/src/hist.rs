//! Fixed-bucket histograms with atomic counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tts_units::json::Json;

/// The bucket a value lands in: bucket `i` covers `(edge[i-1], edge[i]]`
/// (closed on the right), bucket 0 is `(-inf, edge[0]]`, and the final
/// bucket `edges.len()` is `(edge[last], +inf)`.
///
/// Exposed so the property tests can pin the edge semantics.
#[must_use]
pub fn bucket_index(edges: &[f64], v: f64) -> usize {
    edges.partition_point(|&e| e < v)
}

/// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of a fixed-bucket
/// histogram from its `edges` and per-bucket `counts` (`edges.len() + 1`
/// entries, overflow bucket last), optionally sharpened by the observed
/// `min`/`max`.
///
/// The estimate finds the bucket holding the ⌈q·total⌉-th observation and
/// interpolates linearly inside it, which carries a documented
/// **bucket-edge bias**: observations are assumed uniform within a bucket,
/// so a quantile landing in bucket `(lo, hi]` can be off by up to the
/// bucket width (with power-of-two latency edges, up to 2× in value). The
/// bucket is first clamped to the observed `min`/`max` when they are
/// supplied; an unbounded end bucket with no observed bound collapses to
/// its finite edge. Exact invariants: the estimate always lies within the
/// chosen bucket's closure and, given `min`/`max`, within `[min, max]`;
/// `q = 1` reports the top nonempty bucket's (clamped) upper bound; and
/// the estimator is monotone in `q`.
///
/// Returns `None` on an empty histogram, a NaN or out-of-range `q`, or a
/// `counts`/`edges` length mismatch.
#[must_use]
pub fn quantile_from_counts(
    edges: &[f64],
    counts: &[u64],
    min: Option<f64>,
    max: Option<f64>,
    q: f64,
) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) || counts.len() != edges.len() + 1 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // The rank of the observation we are after, in [1, total].
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 || below + c < rank {
            below += c;
            continue;
        }
        // Bucket i, (edge[i-1], edge[i]] with infinite ends, holds the
        // ranked observation; no observation lies outside [min, max].
        let lo = if i == 0 {
            f64::NEG_INFINITY
        } else {
            edges[i - 1]
        };
        let hi = edges.get(i).copied().unwrap_or(f64::INFINITY);
        let lo = min.map_or(lo, |m| lo.max(m));
        let hi = max.map_or(hi, |m| hi.min(m));
        let (lo, hi) = match (lo.is_finite(), hi.is_finite()) {
            (false, _) => (hi, hi),
            (_, false) => (lo, lo),
            _ => (lo, hi),
        };
        let frac = (rank - below) as f64 / c as f64;
        return Some(lo + (hi - lo) * frac);
    }
    None
}

/// Shared histogram state: per-bucket counts plus order-free aggregates
/// (total, min, max). All updates are relaxed atomics, so totals are
/// invariant under thread interleaving.
#[derive(Debug)]
pub(crate) struct HistCore {
    edges: Vec<f64>,
    /// One count per bucket; `edges.len() + 1` entries (overflow bucket
    /// last).
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistCore {
    pub(crate) fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        Self {
            edges: edges.to_vec(),
            counts: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    pub(crate) fn edges(&self) -> &[f64] {
        &self.edges
    }

    pub(crate) fn record(&self, v: f64) {
        if v.is_nan() {
            // A NaN has no bucket and would poison min/max; dropping it
            // keeps recording order-independent.
            return;
        }
        self.counts[bucket_index(&self.edges, v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        atomic_order_free(&self.min_bits, v, |cur, v| v < cur);
        atomic_order_free(&self.max_bits, v, |cur, v| v > cur);
    }

    /// One consistent read of the counts, and the min/max when any
    /// observation has landed.
    fn load(&self) -> (Vec<u64>, Option<f64>, Option<f64>) {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let nonempty = counts.iter().any(|&c| c > 0);
        let bound =
            |bits: &AtomicU64| nonempty.then(|| f64::from_bits(bits.load(Ordering::Relaxed)));
        (counts, bound(&self.min_bits), bound(&self.max_bits))
    }

    /// See [`quantile_from_counts`]; `None` while empty or for an invalid
    /// `q`.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let (counts, min, max) = self.load();
        quantile_from_counts(&self.edges, &counts, min, max, q)
    }

    /// Renders `{edges, counts, total, min, max, quantiles}` (min/max and
    /// the quantile entries `null` while empty). The `quantiles` member
    /// carries the [`quantile_from_counts`] estimates at p50/p90/p99/p999
    /// — derived purely from counts, so it is exactly as deterministic as
    /// the counts themselves.
    pub(crate) fn to_json(&self) -> Json {
        let total = self.total.load(Ordering::Relaxed);
        let (counts, min, max) = self.load();
        let num_or_null = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let quantiles = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)]
            .iter()
            .map(|&(name, q)| {
                (
                    name.to_string(),
                    num_or_null(quantile_from_counts(&self.edges, &counts, min, max, q)),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "edges".to_string(),
                Json::Arr(self.edges.iter().map(|&e| Json::Num(e)).collect()),
            ),
            (
                "counts".to_string(),
                Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("total".to_string(), Json::Num(total as f64)),
            ("min".to_string(), num_or_null(min)),
            ("max".to_string(), num_or_null(max)),
            ("quantiles".to_string(), Json::Obj(quantiles)),
        ])
    }
}

/// CAS loop updating `cell` to `v` whenever `better(current, v)` holds.
/// Min/max are order-free, so concurrent updates converge to the same
/// value regardless of interleaving.
fn atomic_order_free(cell: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while better(f64::from_bits(cur), v) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// A fixed-bucket histogram handle; see [`crate::MetricsSink::histogram`]
/// for the bucket semantics.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCore>>);

impl Histogram {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        Self(None)
    }

    pub(crate) fn live(core: Arc<HistCore>) -> Self {
        Self(Some(core))
    }

    /// Records one observation (NaN observations are dropped).
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Whether this handle records anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The estimated `q`-quantile of the recorded observations (`None`
    /// while disabled or empty); see [`quantile_from_counts`] for the
    /// estimator and its bucket-edge bias.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.as_ref().and_then(|core| core.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

    #[test]
    fn quantile_empty_and_invalid_q() {
        assert_eq!(quantile_from_counts(&EDGES, &[0; 5], None, None, 0.5), None);
        assert_eq!(
            quantile_from_counts(&EDGES, &[1; 5], None, None, f64::NAN),
            None
        );
        assert_eq!(quantile_from_counts(&EDGES, &[1; 5], None, None, 1.5), None);
        // counts/edges length mismatch is an error, not a guess.
        assert_eq!(quantile_from_counts(&EDGES, &[1; 4], None, None, 0.5), None);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 10 observations all in (2, 4]: every quantile lands there.
        let counts = [0, 0, 10, 0, 0];
        let p50 = quantile_from_counts(&EDGES, &counts, None, None, 0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "{p50}");
        // rank 5 of 10 → 2 + 2·(5/10) = 3.0 under uniform interpolation.
        assert!((p50 - 3.0).abs() < 1e-12, "{p50}");
        let p100 = quantile_from_counts(&EDGES, &counts, None, None, 1.0).unwrap();
        assert!((p100 - 4.0).abs() < 1e-12, "{p100}");
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let counts = [3, 7, 11, 2, 1];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = quantile_from_counts(&EDGES, &counts, None, None, q).unwrap();
            assert!(v >= last, "q={q}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn quantile_end_buckets_use_min_max_when_supplied() {
        // All mass in the overflow bucket: without a max the finite edge
        // is reported; with one, the estimate interpolates up to it.
        let counts = [0, 0, 0, 0, 10];
        let blunt = quantile_from_counts(&EDGES, &counts, None, None, 0.999).unwrap();
        assert!((blunt - 8.0).abs() < 1e-12, "{blunt}");
        let sharp = quantile_from_counts(&EDGES, &counts, None, Some(16.0), 1.0).unwrap();
        assert!((sharp - 16.0).abs() < 1e-12, "{sharp}");
        // All mass below the first edge: min tightens the lower bound.
        let counts = [10, 0, 0, 0, 0];
        let lo = quantile_from_counts(&EDGES, &counts, Some(0.0), None, 0.1).unwrap();
        assert!((0.0..=1.0).contains(&lo), "{lo}");
    }

    #[test]
    fn every_quantile_lies_within_the_observed_range() {
        for values in [
            &[2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.0, 2.55, 2.65, 2.75][..],
            &[0.2, 0.3, 1.5, 3.0, 7.0, 9.0, 12.0][..],
            &[5.0][..],
        ] {
            let core = HistCore::new(&EDGES);
            for &v in values {
                core.record(v);
            }
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            for i in 0..=100 {
                let v = core.quantile(i as f64 / 100.0).unwrap();
                assert!((min..=max).contains(&v), "{values:?} q={i}%: {v}");
            }
        }
    }

    #[test]
    fn histogram_handle_quantile_and_json_quantiles() {
        let core = std::sync::Arc::new(HistCore::new(&EDGES));
        let h = Histogram::live(core);
        assert_eq!(h.quantile(0.5), None, "empty");
        for v in [0.5, 1.5, 3.0, 3.5, 6.0] {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "{p50}");
        assert_eq!(Histogram::disabled().quantile(0.5), None);
    }
}
