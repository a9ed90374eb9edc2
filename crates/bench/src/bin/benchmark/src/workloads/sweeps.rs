//! `analysis_sweeps`: in-process, one worker, alternating an uncertainty
//! propagation over a 1024-state chain with binding sensitivities of a
//! 1024-state, 64-parameter chain, both at `EvalOptions::default()`.
//!
//! Sweep drivers are where staging and lane-blocked replay live; at the
//! default solver policy they take the extract-and-solve path instead, and
//! the per-phase counters of the shared plan cache show where the time
//! goes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use archrel_bench::scenarios::{
    parameterized_flow_assembly, synthetic_flow_assembly, SyntheticTopology,
};
use archrel_core::improvement::Lever;
use archrel_core::sensitivity::{binding_sensitivities_with_workers, Sensitivity};
use archrel_core::uncertainty::{
    interval, propagate_with_plan_cache, FactorDistribution, UncertainQuantity, UncertaintySummary,
};
use archrel_core::{CacheStats, EvalOptions, Evaluator, PlanCache};
use archrel_dsl::print_assembly;
use archrel_expr::Bindings;
use archrel_model::{Assembly, Probability, ServiceId};

use super::{ms, ratio, secs, Ctx, Outcome};
use crate::inputs::{fingerprint, Rng};
use crate::trace::Tracer;

/// Sensitivity parameters re-derived from fresh evaluations.
const CHECKED_PARAMS: usize = 4;
const STEP_PFAIL: f64 = 1e-5;
/// The library's relative finite-difference step.
const REL_STEP: f64 = 1e-4;

struct Setup {
    chain: Assembly,
    params: Assembly,
    env: Bindings,
    quantities: Vec<UncertainQuantity>,
    bracket: (Probability, Probability),
    plans: Arc<PlanCache>,
    samples: usize,
}

impl Setup {
    fn build(ctx: &Ctx) -> Result<Setup, String> {
        let s = ctx.scale;
        let chain = synthetic_flow_assembly(SyntheticTopology::Chain, s.sweep_states, STEP_PFAIL)
            .map_err(|e| e.to_string())?;
        let (params, env) = parameterized_flow_assembly(s.sweep_states, s.sens_params, STEP_PFAIL)
            .map_err(|e| e.to_string())?;
        let quantities = vec![UncertainQuantity {
            lever: Lever::ServiceFailure("unit".into()),
            distribution: FactorDistribution::Uniform {
                low: 0.5,
                high: 2.0,
            },
        }];
        let bracket =
            interval(&chain, &app(), &Bindings::new(), &quantities).map_err(|e| e.to_string())?;
        Ok(Setup {
            chain,
            params,
            env,
            quantities,
            bracket,
            plans: Arc::new(PlanCache::new()),
            samples: s.samples,
        })
    }

    fn propagate(&self, seed: u64) -> archrel_core::Result<UncertaintySummary> {
        propagate_with_plan_cache(
            &self.chain,
            &app(),
            &Bindings::new(),
            &self.quantities,
            self.samples,
            seed,
            1,
            EvalOptions::default(),
            &self.plans,
        )
    }

    fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::with_plan_cache(
            &self.params,
            EvalOptions::default(),
            Arc::clone(&self.plans),
        )
    }
}

fn app() -> ServiceId {
    ServiceId::from("app")
}

fn sensitivities(s: &Setup, evaluator: &Evaluator<'_>) -> archrel_core::Result<Vec<Sensitivity>> {
    binding_sensitivities_with_workers(evaluator, &app(), &s.env, 1)
}

fn summary_bits(u: &UncertaintySummary) -> [u64; 5] {
    [
        u.samples as u64,
        u.mean.to_bits(),
        u.p05.to_bits(),
        u.p50.to_bits(),
        u.p95.to_bits(),
    ]
}

fn by_name(sens: &[Sensitivity]) -> BTreeMap<String, u64> {
    sens.iter()
        .map(|s| (s.name.clone(), s.derivative.to_bits()))
        .collect()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed, 3);
    let unc_seed = rng.next_u64();

    // Set-up: scenarios, the analytic bracket, and one warm round whose
    // answers become the reference every measured round must reproduce.
    let started = Instant::now();
    let s = Setup::build(ctx)?;
    let ref_summary = s.propagate(unc_seed).map_err(|e| e.to_string())?;
    let ref_sens = by_name(&sensitivities(&s, &s.evaluator()).map_err(|e| e.to_string())?);
    out.setup_s = secs(started);
    let chain_text = print_assembly(&s.chain).map_err(|e| e.to_string())?;
    let params_text = print_assembly(&s.params).map_err(|e| e.to_string())?;
    out.fingerprints
        .push(("chain_model", fingerprint(chain_text.as_bytes())));
    out.fingerprints
        .push(("sensitivity_model", fingerprint(params_text.as_bytes())));
    out.fingerprints
        .push(("uncertainty_seed", fingerprint(&unc_seed.to_le_bytes())));

    // The reference derivatives of a seeded subset of parameters, each from
    // three fresh default evaluations.
    let names: Vec<String> = s.env.iter().map(|(n, _)| n.to_string()).collect();
    let checked: Vec<String> = (0..CHECKED_PARAMS.min(names.len()))
        .map(|_| names[rng.index(names.len())].clone())
        .collect();
    for name in &checked {
        let x0 = s.env.get(name).expect("binding exists");
        let h = if x0 == 0.0 {
            REL_STEP
        } else {
            x0.abs() * REL_STEP
        };
        let at = |x: f64| {
            let mut env = s.env.clone();
            env.insert(name.as_str(), x);
            Evaluator::new(&s.params)
                .failure_probability(&app(), &env)
                .map(|p| p.value())
        };
        match (at(x0 + h), at(x0 - h)) {
            (Ok(up), Ok(down)) => {
                let want = (up - down) / (2.0 * h);
                let got = f64::from_bits(ref_sens[name]);
                out.check_bits(&format!("sensitivity d/d{name}"), got, want);
            }
            (Err(e), _) | (_, Err(e)) => out.fail(format!("fresh evaluation for {name}: {e}")),
        }
    }
    let (low, high) = (s.bracket.0.value(), s.bracket.1.value());
    if !(low <= ref_summary.p05 && ref_summary.p95 <= high && low <= ref_summary.mean) {
        out.fail(format!(
            "uncertainty summary {ref_summary:?} outside the analytic bracket [{low:e}, {high:e}]"
        ));
    }

    let points = (s.samples + 3 * s.env.iter().count()) as f64;
    let mut totals = CacheStats::default();
    let mut solve_ns = 0u64;
    let mut rounds = 0usize;
    let (mut busy_s, mut unc_s, mut sens_s) = (0.0, 0.0, 0.0);
    let measured = Instant::now();
    while ctx.more(measured, rounds) {
        let before = s.plans.stats();
        let t0 = Instant::now();
        let summary = s.propagate(unc_seed);
        let t1 = Instant::now();
        let mid = s.plans.stats();
        let evaluator = s.evaluator();
        let t2 = Instant::now();
        let sens = sensitivities(&s, &evaluator);
        let t3 = Instant::now();
        let after = s.plans.stats();
        let local = evaluator.local_stats();
        out.latency_ms.push(ms(t3 - t0));
        busy_s += (t3 - t0).as_secs_f64();
        unc_s += (t1 - t0).as_secs_f64();
        sens_s += (t3 - t2).as_secs_f64();
        rounds += 1;
        out.attempted += 2;
        match summary {
            Ok(u) if summary_bits(&u) == summary_bits(&ref_summary) => {}
            Ok(u) => out.fail(format!(
                "uncertainty summary {u:?} differs from {ref_summary:?}"
            )),
            Err(e) => out.fail(format!("uncertainty: {e}")),
        }
        match sens {
            Ok(v) if by_name(&v) == ref_sens => {}
            Ok(_) => out.fail("sensitivities differ from the reference round".into()),
            Err(e) => out.fail(format!("sensitivity: {e}")),
        }
        let unc = delta(&mid, &before);
        let sen = delta(&after, &mid);
        totals.merge(&unc);
        totals.merge(&sen);
        solve_ns += local.solve_nanos;
        if tracer.enabled() {
            let root = tracer.span("round", None, t0, t3);
            let u = tracer.span("core.uncertainty.propagate", Some(root), t0, t1);
            phase_children(tracer, u, &unc, 0);
            let c = tracer.span("core.sensitivity.binding_sensitivities", Some(root), t2, t3);
            phase_children(tracer, c, &sen, local.solve_nanos);
        }
    }
    out.throughput_per_s = rounds as f64 / busy_s;
    out.peak_rss_mb = crate::host::proc_status_mb("self", "VmHWM").unwrap_or(0.0);
    let per_point = |ns: u64| ns as f64 / (points * rounds as f64);
    let probes = points as usize - s.samples;
    out.notes.push(format!(
        "per round: {} uncertainty samples ({:.1}/s), then {probes} sensitivity probes ({:.1}/s)",
        s.samples,
        (s.samples * rounds) as f64 / unc_s,
        (probes * rounds) as f64 / sens_s,
    ));
    if tracer.enabled() {
        out.layer(
            "core.staged.stage_ns_per_point",
            per_point(totals.stage_nanos),
        );
        out.layer(
            "markov.plan.replay_ns_per_point",
            per_point(totals.replay_nanos),
        );
        out.layer(
            "core.eval.extract_ns_per_point",
            per_point(totals.extract_nanos),
        );
        out.layer("core.eval.solve_ns_per_point", per_point(solve_ns));
        out.layer(
            "core.eval.block_points_ratio",
            totals.block_points as f64 / (points * rounds as f64),
        );
        out.layer(
            "core.plan_cache.hit_ratio",
            ratio(
                totals.plan_hits as f64,
                (totals.plan_hits + totals.plan_misses) as f64,
            ),
        );
        out.table = Some(tracer.table("unattributed"));
    }
    Ok(())
}

/// Counter activity between two plan-cache snapshots.
fn delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        block_points: after.block_points - before.block_points,
        extract_nanos: after.extract_nanos - before.extract_nanos,
        stage_nanos: after.stage_nanos - before.stage_nanos,
        replay_nanos: after.replay_nanos - before.replay_nanos,
        ..CacheStats::default()
    }
}

/// The phase counters of one driver call, as child spans of it.
fn phase_children(tracer: &mut Tracer, parent: usize, phases: &CacheStats, solve_ns: u64) {
    tracer.child("core.staged.stage", parent, phases.stage_nanos);
    tracer.child("markov.plan.replay", parent, phases.replay_nanos);
    tracer.child("core.eval.extract", parent, phases.extract_nanos);
    tracer.child("core.eval.solve", parent, solve_ns);
}
