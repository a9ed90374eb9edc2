//! Batch evaluation: many `(service, bindings)` queries over one assembly.
//!
//! Parameter sweeps — reliability curves over a demand range (Fig. 6),
//! sensitivity stencils, Monte Carlo uncertainty samples, service-selection
//! enumerations — all reduce to evaluating one [`Assembly`] at many points.
//! [`BatchEvaluator`] partitions such a query list across worker threads
//! that share a single [`Evaluator`], and therefore a single
//! content-addressed solve cache keyed by `(service, resolved-parameter
//! fingerprint)`: each distinct per-service absorbing-chain solve happens
//! exactly once per sweep no matter which worker reaches it first.
//!
//! Output ordering is deterministic — results come back in query order
//! regardless of the worker count — and the computed *values* are identical
//! to a sequential run: every cache entry is the result of the same pure
//! evaluation procedure, so a cache hit returns bit-for-bit the number the
//! worker would have computed itself.
//!
//! Results are **not** shared across queries when the evaluator runs in
//! [`CycleMode::FixedPoint`](crate::CycleMode::FixedPoint) and the assembly
//! actually contains a cycle: values computed from intermediate estimates
//! are approximations, so the evaluator never persists them (see
//! `Evaluator::eval_fixed_point`), and each query pays for its own fixed
//! point.

use archrel_expr::Bindings;
use archrel_model::{Probability, ServiceId};

use crate::eval::CacheStats;
use crate::{EvalOptions, Evaluator, Result, SolverPolicy};

/// One evaluation request: a target service and its parameter bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The service whose failure probability is requested.
    pub service: ServiceId,
    /// Bindings for the service's formal parameters.
    pub env: Bindings,
}

impl Query {
    /// Builds a query.
    pub fn new(service: impl Into<ServiceId>, env: Bindings) -> Self {
        Query {
            service: service.into(),
            env,
        }
    }
}

/// Summary of one `evaluate_all` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Queries evaluated.
    pub queries: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Cache activity during this sweep (difference of before/after
    /// snapshots of the shared evaluator's counters).
    pub cache: CacheStats,
}

/// Multi-threaded batch front-end over a shared [`Evaluator`].
///
/// # Examples
///
/// ```
/// use archrel_core::batch::{BatchEvaluator, Query};
/// use archrel_model::paper;
///
/// let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
/// let batch = BatchEvaluator::new(&assembly).with_workers(4);
/// let queries: Vec<Query> = (1..=64)
///     .map(|i| Query::new(paper::SEARCH, paper::search_bindings(4.0, (i * 64) as f64, 1.0)))
///     .collect();
/// let results = batch.evaluate_all(&queries);
/// assert_eq!(results.len(), queries.len());
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
#[derive(Debug)]
pub struct BatchEvaluator<'a> {
    evaluator: Evaluator<'a>,
    workers: usize,
}

impl<'a> BatchEvaluator<'a> {
    /// Builds a batch evaluator with default options and a worker count
    /// matching the machine's available parallelism.
    pub fn new(assembly: &'a archrel_model::Assembly) -> Self {
        BatchEvaluator::with_options(assembly, EvalOptions::default())
    }

    /// Builds a batch evaluator with explicit evaluation options.
    pub fn with_options(assembly: &'a archrel_model::Assembly, options: EvalOptions) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchEvaluator {
            evaluator: Evaluator::with_options(assembly, options),
            workers,
        }
    }

    /// Builds a batch evaluator with an explicit [`SolverPolicy`] and
    /// otherwise-default options.
    pub fn with_solver(assembly: &'a archrel_model::Assembly, solver: SolverPolicy) -> Self {
        BatchEvaluator::with_options(
            assembly,
            EvalOptions {
                solver,
                ..EvalOptions::default()
            },
        )
    }

    /// Wraps an existing evaluator (sharing its warm cache).
    pub fn from_evaluator(evaluator: Evaluator<'a>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchEvaluator { evaluator, workers }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a cooperative cancellation token to the underlying
    /// evaluator (see [`Evaluator::with_cancellation`]): every worker
    /// checks it, so one tripped token aborts the whole sweep with typed
    /// per-query errors.
    #[must_use]
    pub fn with_cancellation(mut self, token: crate::CancelToken) -> Self {
        self.evaluator = self.evaluator.with_cancellation(token);
        self
    }

    /// The underlying shared evaluator.
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// Worker threads the next sweep will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cache counters accumulated over the evaluator's whole lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.evaluator.cache_stats()
    }

    /// Evaluates `Pfail` for every query, in query order.
    ///
    /// Queries are striped across the worker threads; every worker writes
    /// results into its own disjoint slots, so the output order never
    /// depends on scheduling. Within its stripe each worker groups queries
    /// by target service and answers every group through
    /// [`Evaluator::failure_probabilities`], so a group of two or more
    /// points compiles the target's assembly program before its first
    /// point. Program and recursive results are bitwise-identical, so the
    /// grouping is invisible in the output. Failures are per-query: one
    /// malformed query yields an `Err` in its slot without poisoning the
    /// rest.
    pub fn evaluate_all(&self, queries: &[Query]) -> Vec<Result<Probability>> {
        self.grouped_sweep(queries, false)
    }

    /// Like [`BatchEvaluator::evaluate_all`], returning reliabilities.
    pub fn reliabilities(&self, queries: &[Query]) -> Vec<Result<Probability>> {
        self.grouped_sweep(queries, true)
    }

    /// Evaluates every query and also reports the sweep's cache activity.
    pub fn evaluate_all_summarized(
        &self,
        queries: &[Query],
    ) -> (Vec<Result<Probability>>, BatchSummary) {
        let before = self.evaluator.cache_stats();
        let results = self.evaluate_all(queries);
        let after = self.evaluator.cache_stats();
        let summary = BatchSummary {
            queries: queries.len() as u64,
            workers: self.workers as u64,
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                solves: after.solves - before.solves,
                solve_nanos: after.solve_nanos - before.solve_nanos,
                plan_hits: after.plan_hits - before.plan_hits,
                plan_misses: after.plan_misses - before.plan_misses,
                rank1_solves: after.rank1_solves - before.rank1_solves,
                full_solves: after.full_solves - before.full_solves,
                block_points: after.block_points - before.block_points,
                block_flushes: after.block_flushes - before.block_flushes,
                extract_nanos: after.extract_nanos - before.extract_nanos,
                stage_nanos: after.stage_nanos - before.stage_nanos,
                replay_nanos: after.replay_nanos - before.replay_nanos,
                plan_evictions: after.plan_evictions - before.plan_evictions,
                memo_hits: after.memo_hits - before.memo_hits,
                memo_misses: after.memo_misses - before.memo_misses,
                pin_hits: after.pin_hits - before.pin_hits,
                programs_compiled: after.programs_compiled - before.programs_compiled,
                fixed_point_sweeps: after.fixed_point_sweeps - before.fixed_point_sweeps,
                aitken_accels: after.aitken_accels - before.aitken_accels,
                aitken_fallbacks: after.aitken_fallbacks - before.aitken_fallbacks,
                program_loop_sccs: after.program_loop_sccs - before.program_loop_sccs,
                scc_iterations: after.scc_iterations - before.scc_iterations,
                store_hits: after.store_hits - before.store_hits,
                store_misses: after.store_misses - before.store_misses,
                store_validate_rejects: after.store_validate_rejects
                    - before.store_validate_rejects,
                store_writes: after.store_writes - before.store_writes,
            },
        };
        (results, summary)
    }

    /// Striped, service-grouped sweep: every worker answers its stripe's
    /// queries for one service through one batch call.
    fn grouped_sweep(&self, queries: &[Query], complement: bool) -> Vec<Result<Probability>> {
        striped(queries.len(), self.workers, |stripe| {
            // Group the stripe's queries by service, preserving stripe
            // order within each group; every group becomes one batch call.
            let mut groups: Vec<(&ServiceId, Vec<usize>)> = Vec::new();
            for (pos, &i) in stripe.iter().enumerate() {
                let service = &queries[i].service;
                match groups.iter_mut().find(|(s, _)| *s == service) {
                    Some((_, group)) => group.push(pos),
                    None => groups.push((service, vec![pos])),
                }
            }
            let mut out: Vec<Option<Result<Probability>>> = Vec::new();
            out.resize_with(stripe.len(), || None);
            for (service, group) in groups {
                let envs: Vec<&Bindings> =
                    group.iter().map(|&pos| &queries[stripe[pos]].env).collect();
                for (&pos, r) in group
                    .iter()
                    .zip(self.evaluator.failure_probabilities(service, &envs))
                {
                    out[pos] = Some(if complement {
                        r.map(|p| p.complement())
                    } else {
                        r
                    });
                }
            }
            out.into_iter()
                .map(|r| r.expect("every query answered"))
                .collect()
        })
    }
}

/// Answers `Pfail` for many parameter points of one service, striping the
/// points across up to `workers` threads; every stripe is one
/// [`Evaluator::failure_probabilities`] call. Output is in input order and
/// bitwise-independent of the worker count.
pub(crate) fn striped_probabilities(
    evaluator: &Evaluator<'_>,
    service: &ServiceId,
    envs: &[&Bindings],
    workers: usize,
) -> Vec<Result<Probability>> {
    striped(envs.len(), workers, |stripe| {
        let stripe_envs: Vec<&Bindings> = stripe.iter().map(|&i| envs[i]).collect();
        evaluator.failure_probabilities(service, &stripe_envs)
    })
}

/// Splits the indices `0..n` into up to `workers` stripes (worker `w`
/// takes `w`, `w + workers`, ...), runs `run_stripe` on each stripe on its
/// own scoped thread, and returns the outputs **in index order**.
///
/// `run_stripe` returns one output per stripe index, in stripe order. For
/// sweep-shaped inputs, neighbouring items usually share sub-solves, so
/// striping spreads the cache-warming misses across workers instead of
/// letting one worker take all of them; each stripe fills a disjoint set
/// of output slots, which makes the order deterministic by construction.
pub(crate) fn striped<U, F>(n: usize, workers: usize, run_stripe: F) -> Vec<U>
where
    U: Send,
    F: Fn(&[usize]) -> Vec<U> + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        let all: Vec<usize> = (0..n).collect();
        return run_stripe(&all);
    }
    let stripes: Vec<Vec<usize>> = (0..workers)
        .map(|w| (w..n).step_by(workers).collect())
        .collect();
    let run_stripe = &run_stripe;
    let outputs: Vec<Vec<U>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .iter()
            .map(|stripe| scope.spawn(move |_| run_stripe(stripe)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stripe worker panicked"))
            .collect()
    })
    .expect("stripe worker panicked");
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (stripe, output) in stripes.iter().zip(outputs) {
        assert_eq!(stripe.len(), output.len(), "one output per stripe index");
        for (&i, u) in stripe.iter().zip(output) {
            slots[i] = Some(u);
        }
    }
    slots
        .into_iter()
        .map(|u| u.expect("every index is in exactly one stripe"))
        .collect()
}

/// Runs `f` over `items` on up to `workers` scoped threads, returning the
/// outputs **in input order** (see [`striped`]). `f` receives the item's
/// input index alongside the item.
pub(crate) fn parallel_map_indexed<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    striped(items.len(), workers, |stripe| {
        stripe.iter().map(|&i| f(i, &items[i])).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CycleMode;
    use archrel_model::paper;

    fn paper_queries(n: usize) -> (archrel_model::Assembly, Vec<Query>) {
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let queries = (0..n)
            .map(|i| {
                Query::new(
                    paper::SEARCH,
                    paper::search_bindings(4.0, 64.0 * (1 + i % 32) as f64, 1.0),
                )
            })
            .collect();
        (assembly, queries)
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let (assembly, queries) = paper_queries(96);
        let sequential: Vec<_> = {
            let eval = Evaluator::new(&assembly);
            queries
                .iter()
                .map(|q| eval.failure_probability(&q.service, &q.env).unwrap())
                .collect()
        };
        for workers in [1, 2, 5, 8] {
            let batch = BatchEvaluator::new(&assembly).with_workers(workers);
            let got = batch.evaluate_all(&queries);
            for (s, g) in sequential.iter().zip(&got) {
                let g = g.as_ref().unwrap();
                assert_eq!(
                    s.value().to_bits(),
                    g.value().to_bits(),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn per_query_errors_do_not_poison_the_batch() {
        let (assembly, mut queries) = paper_queries(8);
        queries[3] = Query::new("no-such-service", Bindings::new());
        let batch = BatchEvaluator::new(&assembly).with_workers(4);
        let results = batch.evaluate_all(&queries);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.is_err(), i == 3, "slot {i}");
        }
    }

    #[test]
    fn repeated_queries_hit_the_shared_cache() {
        let (assembly, _) = paper_queries(0);
        let env = paper::search_bindings(4.0, 4096.0, 1.0);
        let queries: Vec<Query> = (0..64)
            .map(|_| Query::new(paper::SEARCH, env.clone()))
            .collect();
        let batch = BatchEvaluator::new(&assembly).with_workers(4);
        let (results, summary) = batch.evaluate_all_summarized(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(summary.queries, 64);
        // 64 identical queries: at most a few top-level misses while the
        // first evaluations race, then hits all the way.
        assert!(summary.cache.hits >= 32, "{:?}", summary.cache);
        assert!(summary.cache.solves < 64, "{:?}", summary.cache);
    }

    #[test]
    fn reliabilities_complement_failures() {
        let (assembly, queries) = paper_queries(16);
        let batch = BatchEvaluator::new(&assembly).with_workers(3);
        let fail = batch.evaluate_all(&queries);
        let rel = batch.reliabilities(&queries);
        for (f, r) in fail.iter().zip(&rel) {
            let (f, r) = (f.as_ref().unwrap(), r.as_ref().unwrap());
            assert!((f.value() + r.value() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn every_solver_policy_batches_and_agrees() {
        let (assembly, queries) = paper_queries(24);
        let dense =
            BatchEvaluator::with_solver(&assembly, SolverPolicy::Dense).evaluate_all(&queries);
        for policy in [SolverPolicy::Auto, SolverPolicy::Sparse] {
            let got = BatchEvaluator::with_solver(&assembly, policy)
                .with_workers(4)
                .evaluate_all(&queries);
            for (d, g) in dense.iter().zip(&got) {
                let (d, g) = (d.as_ref().unwrap(), g.as_ref().unwrap());
                assert!(
                    (d.value() - g.value()).abs() < 1e-10,
                    "{policy:?}: {} vs {}",
                    d.value(),
                    g.value()
                );
            }
        }
    }

    #[test]
    fn fixed_point_mode_is_supported_per_query() {
        use archrel_expr::Expr;
        use archrel_model::{
            AssemblyBuilder, CompositeService, FailureModel, FlowBuilder, FlowState, Service,
            ServiceCall, SimpleService, StateId,
        };
        // svc: with prob 0.5 recurse, else call a leaf with Pfail 0.2.
        let flow = FlowBuilder::new()
            .state(FlowState::new("again", vec![ServiceCall::new("svc")]))
            .state(FlowState::new(
                "base",
                vec![ServiceCall::new("leaf").with_param("x", Expr::zero())],
            ))
            .transition(StateId::Start, "again", Expr::num(0.5))
            .transition(StateId::Start, "base", Expr::num(0.5))
            .transition("again", StateId::End, Expr::one())
            .transition("base", StateId::End, Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(Service::Simple(SimpleService::new(
                "leaf",
                "x",
                FailureModel::Constant { probability: 0.2 },
            )))
            .service(Service::Composite(
                CompositeService::new("svc", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap();
        let batch = BatchEvaluator::with_options(
            &assembly,
            EvalOptions {
                cycle_mode: CycleMode::FixedPoint {
                    max_iterations: 200,
                    tolerance: 1e-12,
                },
                ..EvalOptions::default()
            },
        )
        .with_workers(4);
        let queries: Vec<Query> = (0..8).map(|_| Query::new("svc", Bindings::new())).collect();
        let results = batch.evaluate_all(&queries);
        for r in &results {
            assert!((r.as_ref().unwrap().value() - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (assembly, _) = paper_queries(0);
        let batch = BatchEvaluator::new(&assembly);
        assert!(batch.evaluate_all(&[]).is_empty());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            let out = parallel_map_indexed(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }
}
