//! Streaming usage-profile estimation: ingest call traces incrementally,
//! maintain transition sufficient statistics online, and emit **delta
//! sets** — only the rows whose transition probabilities actually moved —
//! so downstream consumers (the fleet-refresh driver, the `stream` CLI
//! command) can re-evaluate dirty cones instead of whole fleets.
//!
//! # Batch equivalence
//!
//! [`StreamingEstimator`] is pinned to
//! [`estimate_dtmc`](crate::estimate::estimate_dtmc): after ingesting
//! traces `t₁ … tₙ` in any split, [`StreamingEstimator::estimate`] produces
//! a chain whose state set (in first-occurrence order) and per-edge
//! transition probabilities are **bitwise** equal to
//! `estimate_dtmc(&[t₁, …, tₙ])`. This holds because both sides compute
//! every probability as `(count + smoothing) / (row_total + smoothing · n)`
//! from integer-valued `f64` counts: integer sums below 2⁵³ are exact in
//! any order, so the division sees identical operands. The differential
//! suite (`tests/streaming_differential.rs`) replays random traces against
//! random split boundaries to enforce the pin.
//!
//! # Delta sets
//!
//! [`StreamingEstimator::drain_deltas`] compares the current estimate
//! against the last drained snapshot and emits changed rows **atomically**:
//! when any edge of a source state moved past the threshold, the whole
//! row's current probabilities are emitted together. Row atomicity is what
//! keeps downstream parameter patches stochastic — a single-edge patch
//! would break the row-sum invariant mid-application. At threshold `0.0`
//! every numerically changed row is emitted, so applying every drained
//! delta reproduces the full batch estimate exactly.

use std::collections::HashMap;

use archrel_markov::{Dtmc, DtmcBuilder, StateLabel};

use crate::estimate::EstimatorOptions;
use crate::{ProfileError, Result};

/// Environment variable naming the default delta-set threshold.
pub const DELTA_THRESHOLD_ENV: &str = "ARCHREL_DELTA_THRESHOLD";

/// Parses a delta-set threshold: a finite probability movement in
/// `[0, 1)`. Returns `None` on anything else (non-numeric, negative, ≥ 1,
/// NaN/inf).
pub fn parse_delta_threshold(raw: &str) -> Option<f64> {
    let value: f64 = raw.trim().parse().ok()?;
    (value.is_finite() && (0.0..1.0).contains(&value)).then_some(value)
}

/// Reads [`DELTA_THRESHOLD_ENV`], defaulting to `0.0` (emit every change)
/// when unset or empty.
///
/// # Panics
///
/// Panics on an unparseable value, naming the accepted range — the repo's
/// hard-error convention for environment toggles (silently ignoring a typo
/// would re-evaluate far more or far less than the operator asked for).
pub fn delta_threshold_from_env() -> f64 {
    match std::env::var(DELTA_THRESHOLD_ENV) {
        Ok(raw) if !raw.trim().is_empty() => parse_delta_threshold(&raw).unwrap_or_else(|| {
            panic!(
                "unrecognized {DELTA_THRESHOLD_ENV} value `{raw}`: expected a \
                 finite probability threshold in [0, 1)"
            )
        }),
        _ => 0.0,
    }
}

/// One source state's refreshed outgoing distribution: every observed
/// successor with its **current** estimated probability. Emitted whole so
/// the row stays stochastic under any downstream patching scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta<S> {
    /// The source state whose row moved.
    pub from: S,
    /// `(successor, new probability)` in first-observation order.
    pub edges: Vec<(S, f64)>,
}

/// The rows that moved past the threshold since the previous drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSet<S> {
    /// Changed rows, in first-observation order of their source states.
    pub rows: Vec<RowDelta<S>>,
}

impl<S> DeltaSet<S> {
    /// `true` when nothing moved past the threshold.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total `(edge, probability)` pairs across all emitted rows.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(|r| r.edges.len()).sum()
    }
}

/// Sufficient statistics of one source state: successor counts in
/// first-observation order (for deterministic emission), the row total,
/// and the probabilities last emitted through a delta set.
#[derive(Debug, Clone)]
struct RowCounts<S> {
    /// `(successor, count)` in first-observation order.
    successors: Vec<(S, f64)>,
    /// Successor → index into `successors`.
    index: HashMap<S, usize>,
    /// Per-successor probability at the last drain (`0.0` before the
    /// successor was ever emitted).
    emitted: Vec<f64>,
}

impl<S: StateLabel> RowCounts<S> {
    fn new() -> Self {
        RowCounts {
            successors: Vec::new(),
            index: HashMap::new(),
            emitted: Vec::new(),
        }
    }

    fn observe(&mut self, to: &S) {
        match self.index.get(to) {
            Some(&i) => self.successors[i].1 += 1.0,
            None => {
                self.index.insert(to.clone(), self.successors.len());
                self.successors.push((to.clone(), 1.0));
                self.emitted.push(0.0);
            }
        }
    }

    /// Current estimated probability of successor `i` —
    /// [`estimate_dtmc`]'s arithmetic on the same operands: the row total
    /// is an exact integer sum, so any accumulation order yields the same
    /// `f64`, and the division is then bit-identical.
    fn probability(&self, i: usize, smoothing: f64) -> f64 {
        let total: f64 = self.successors.iter().map(|(_, c)| c).sum::<f64>()
            + smoothing * self.successors.len() as f64;
        (self.successors[i].1 + smoothing) / total
    }
}

/// Incremental (streaming) counterpart of [`estimate_dtmc`]: ingests traces
/// one at a time, keeps transition counts online, and reports changed rows
/// as [`DeltaSet`]s. See the module docs for the batch-equivalence and
/// row-atomicity contracts.
///
/// [`estimate_dtmc`]: crate::estimate::estimate_dtmc
#[derive(Debug, Clone)]
pub struct StreamingEstimator<S: StateLabel> {
    opts: EstimatorOptions,
    /// Every state ever observed, in first-occurrence order — the order
    /// batch estimation interns states in.
    states: Vec<S>,
    state_index: HashMap<S, usize>,
    /// Source states with at least one observed outgoing transition, in
    /// first-observation order.
    rows: Vec<S>,
    counts: HashMap<S, RowCounts<S>>,
    traces: u64,
    transitions: u64,
}

impl<S: StateLabel> StreamingEstimator<S> {
    /// A streaming estimator with the pure-MLE options.
    pub fn new() -> Self {
        StreamingEstimator::with_options(EstimatorOptions::default())
    }

    /// A streaming estimator with explicit [`EstimatorOptions`].
    pub fn with_options(opts: EstimatorOptions) -> Self {
        StreamingEstimator {
            opts,
            states: Vec::new(),
            state_index: HashMap::new(),
            rows: Vec::new(),
            counts: HashMap::new(),
            traces: 0,
            transitions: 0,
        }
    }

    /// Ingests one trace (a visited-state sequence), updating the
    /// transition counts. Empty and single-state traces still declare
    /// their states (matching batch estimation's "stable presence" pass)
    /// but contribute no transitions.
    pub fn observe(&mut self, trace: &[S]) {
        self.traces += 1;
        for s in trace {
            if !self.state_index.contains_key(s) {
                self.state_index.insert(s.clone(), self.states.len());
                self.states.push(s.clone());
            }
        }
        for w in trace.windows(2) {
            self.transitions += 1;
            if !self.counts.contains_key(&w[0]) {
                self.rows.push(w[0].clone());
            }
            self.counts
                .entry(w[0].clone())
                .or_insert_with(RowCounts::new)
                .observe(&w[1]);
        }
    }

    /// Ingests every trace of a batch, in order.
    pub fn observe_all<T: AsRef<[S]>>(&mut self, traces: impl IntoIterator<Item = T>) {
        for trace in traces {
            self.observe(trace.as_ref());
        }
    }

    /// Number of traces ingested so far.
    pub fn traces_ingested(&self) -> u64 {
        self.traces
    }

    /// Number of transitions (trace windows) observed so far.
    pub fn transitions_observed(&self) -> u64 {
        self.transitions
    }

    /// Number of distinct states observed so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The current estimated probability of `from → to`, or `None` when
    /// the transition was never observed.
    pub fn transition_probability(&self, from: &S, to: &S) -> Option<f64> {
        let row = self.counts.get(from)?;
        let &i = row.index.get(to)?;
        Some(row.probability(i, self.opts.smoothing))
    }

    /// Builds the full current estimate — bitwise what
    /// [`estimate_dtmc`](crate::estimate::estimate_dtmc) returns on the
    /// concatenation of every ingested trace: identical state set in
    /// identical (first-occurrence) intern order, identical edge support,
    /// identical per-edge probability bits.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NoData`] when no transition has been observed.
    pub fn estimate(&self) -> Result<Dtmc<S>> {
        if self.transitions == 0 {
            return Err(ProfileError::NoData);
        }
        let mut builder = DtmcBuilder::new();
        for s in &self.states {
            builder = builder.state(s.clone());
        }
        for from in &self.rows {
            let row = &self.counts[from];
            for (i, (to, _)) in row.successors.iter().enumerate() {
                builder = builder.transition(
                    from.clone(),
                    to.clone(),
                    row.probability(i, self.opts.smoothing),
                );
            }
        }
        Ok(builder.build()?)
    }

    /// Emits the rows whose estimated probabilities moved past `threshold`
    /// since the previous drain, and marks them emitted. A row is emitted
    /// **whole** (every observed successor with its current probability)
    /// when any of its edges moved by strictly more than `threshold` in
    /// absolute value — including edges appearing for the first time,
    /// whose previous emitted probability counts as `0.0`. At threshold
    /// `0.0` every numeric change is emitted.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is outside `[0, 1)` — the same contract
    /// [`parse_delta_threshold`] enforces for operator input.
    pub fn drain_deltas(&mut self, threshold: f64) -> DeltaSet<S> {
        assert!(
            threshold.is_finite() && (0.0..1.0).contains(&threshold),
            "delta threshold must lie in [0, 1), got {threshold}"
        );
        let mut rows = Vec::new();
        for from in &self.rows {
            let row = self.counts.get_mut(from).expect("row exists");
            let moved = (0..row.successors.len()).any(|i| {
                let p = row.probability(i, self.opts.smoothing);
                (p - row.emitted[i]).abs() > threshold
            });
            if !moved {
                continue;
            }
            let mut edges = Vec::with_capacity(row.successors.len());
            for i in 0..row.successors.len() {
                let p = row.probability(i, self.opts.smoothing);
                row.emitted[i] = p;
                edges.push((row.successors[i].0.clone(), p));
            }
            rows.push(RowDelta {
                from: from.clone(),
                edges,
            });
        }
        DeltaSet { rows }
    }
}

impl<S: StateLabel> Default for StreamingEstimator<S> {
    fn default() -> Self {
        StreamingEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_dtmc;

    fn traces() -> Vec<Vec<&'static str>> {
        vec![
            vec!["s", "a", "end"],
            vec!["s", "b", "end"],
            vec!["s", "a", "s", "a", "end"],
            vec!["s", "b", "end"],
            vec!["s", "a", "end"],
        ]
    }

    /// Per-edge bitwise comparison over the union of both chains' edges,
    /// plus state-set/order equality — the batch-equivalence contract.
    fn assert_chains_equal(streamed: &Dtmc<&'static str>, batch: &Dtmc<&'static str>) {
        assert_eq!(streamed.states(), batch.states(), "state intern order");
        for from in batch.states() {
            for (to, p) in batch.successors(from).unwrap() {
                let q = streamed.transition_probability(from, to).unwrap();
                assert_eq!(p.to_bits(), q.to_bits(), "{from:?} -> {to:?}");
            }
            assert_eq!(
                streamed.successors(from).unwrap().len(),
                batch.successors(from).unwrap().len(),
                "support of {from:?}"
            );
        }
    }

    #[test]
    fn flush_matches_batch_estimate_bitwise() {
        let all = traces();
        for split in 0..=all.len() {
            let mut est = StreamingEstimator::new();
            est.observe_all(&all[..split]);
            est.observe_all(&all[split..]);
            let streamed = est.estimate().unwrap();
            let batch = estimate_dtmc(&all, EstimatorOptions::default()).unwrap();
            assert_chains_equal(&streamed, &batch);
        }
    }

    #[test]
    fn smoothing_matches_batch_estimate_bitwise() {
        let all = traces();
        let opts = EstimatorOptions { smoothing: 0.7 };
        let mut est = StreamingEstimator::with_options(opts);
        est.observe_all(&all);
        assert_chains_equal(
            &est.estimate().unwrap(),
            &estimate_dtmc(&all, opts).unwrap(),
        );
    }

    #[test]
    fn no_data_rejected() {
        let est: StreamingEstimator<&str> = StreamingEstimator::new();
        assert!(matches!(est.estimate(), Err(ProfileError::NoData)));
        let mut est = StreamingEstimator::new();
        est.observe(&["only"]);
        assert!(matches!(est.estimate(), Err(ProfileError::NoData)));
        assert_eq!(est.state_count(), 1);
    }

    #[test]
    fn deltas_are_row_atomic_and_complete_at_zero_threshold() {
        let mut est = StreamingEstimator::new();
        est.observe(&["s", "a", "end"]);
        let first = est.drain_deltas(0.0);
        // Both observed rows emitted whole.
        assert_eq!(first.rows.len(), 2);
        assert_eq!(first.rows[0].from, "s");
        assert_eq!(first.rows[0].edges, vec![("a", 1.0)]);
        // Nothing moved since: drain is empty.
        assert!(est.drain_deltas(0.0).is_empty());
        // A new successor of `s` re-emits the whole `s` row (both edges),
        // but leaves the untouched `a` row alone.
        est.observe(&["s", "b", "end"]);
        let second = est.drain_deltas(0.0);
        let s_row: Vec<&RowDelta<&str>> = second.rows.iter().filter(|r| r.from == "s").collect();
        assert_eq!(s_row.len(), 1);
        assert_eq!(s_row[0].edges, vec![("a", 0.5), ("b", 0.5)]);
        assert!(!second.rows.iter().any(|r| r.from == "a"));
        // The emitted probabilities are exactly the current estimate.
        let b_row = second.rows.iter().find(|r| r.from == "b").unwrap();
        assert_eq!(b_row.edges, vec![("end", 1.0)]);
    }

    #[test]
    fn threshold_suppresses_small_moves() {
        let mut est = StreamingEstimator::new();
        for _ in 0..100 {
            est.observe(&["s", "a", "end"]);
        }
        est.observe(&["s", "b", "end"]);
        est.drain_deltas(0.0);
        // One more a-observation moves p(s→a) from 100/101 to 101/102:
        // a ~1e-4 move, below a 0.05 threshold.
        est.observe(&["s", "a", "end"]);
        assert!(est.drain_deltas(0.05).is_empty());
        // But the move is still pending: a zero-threshold drain emits it.
        let pending = est.drain_deltas(0.0);
        assert_eq!(pending.rows.len(), 1);
        assert_eq!(pending.rows[0].from, "s");
        assert_eq!(pending.edge_count(), 2);
    }

    #[test]
    fn proportional_growth_emits_nothing() {
        let mut est = StreamingEstimator::new();
        est.observe(&["s", "a", "s", "b", "end"]);
        est.drain_deltas(0.0);
        // Doubling every count of the `s` row leaves its probabilities
        // bit-identical; only rows that numerically moved are emitted.
        est.observe(&["s", "a", "s", "b", "end"]);
        assert!(est.drain_deltas(0.0).is_empty());
    }

    #[test]
    fn counters_track_ingestion() {
        let mut est = StreamingEstimator::new();
        est.observe_all(traces());
        assert_eq!(est.traces_ingested(), 5);
        assert_eq!(est.transitions_observed(), 12);
        assert_eq!(est.state_count(), 4);
        assert!(est.transition_probability(&"s", &"a").is_some());
        assert!(est.transition_probability(&"a", &"b").is_none());
    }

    #[test]
    fn threshold_parsing_accepts_the_documented_range() {
        assert_eq!(parse_delta_threshold("0"), Some(0.0));
        assert_eq!(parse_delta_threshold(" 0.25 "), Some(0.25));
        assert_eq!(parse_delta_threshold("1e-6"), Some(1e-6));
        assert_eq!(parse_delta_threshold("1.0"), None);
        assert_eq!(parse_delta_threshold("-0.1"), None);
        assert_eq!(parse_delta_threshold("NaN"), None);
        assert_eq!(parse_delta_threshold("inf"), None);
        assert_eq!(parse_delta_threshold("fast"), None);
    }

    #[test]
    #[should_panic(expected = "delta threshold must lie in [0, 1)")]
    fn drain_rejects_out_of_range_thresholds() {
        let mut est: StreamingEstimator<&str> = StreamingEstimator::new();
        est.drain_deltas(1.5);
    }
}
