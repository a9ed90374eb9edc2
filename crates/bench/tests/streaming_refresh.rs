//! Fleet-scale streaming differential: the full pipeline — seeded fleet,
//! per-service [`StreamingEstimator`]s, delta drains, [`FleetRefresh`] —
//! must land on exactly (bitwise) the state the batch path produces:
//! re-estimate every service with [`StreamingEstimator::estimate`] (itself
//! pinned to `estimate_dtmc`) and re-solve on a fresh evaluator over its
//! own plan cache.

use std::collections::HashMap;

use archrel_bench::scenarios::{generate_fleet, Fleet, FleetService, FleetSpec};
use archrel_core::{EvalOptions, Evaluator, FleetRefresh, SolverPolicy};
use archrel_expr::Bindings;
use archrel_markov::Dtmc;
use archrel_model::ServiceId;
use archrel_profile::streaming::StreamingEstimator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_fleet() -> Fleet {
    generate_fleet(&FleetSpec {
        entries: 12,
        backends: 8,
        replica_groups: 2,
        aggregates: 2,
        zipf_exponent: 1.1,
        seed: 9,
    })
    .expect("fleet generates")
}

fn auto() -> EvalOptions {
    EvalOptions {
        solver: SolverPolicy::Auto,
        ..EvalOptions::default()
    }
}

fn state_rank(state: &str) -> usize {
    if state == "end" {
        usize::MAX
    } else {
        state[1..].parse().expect("session states are s{i}")
    }
}

/// One `start → … → end` trace through the given edge (advance without
/// overshooting, take the edge, leave by the furthest-forward successor).
fn coverage_trace(chain: &Dtmc<String>, from: &str, to: &str) -> Vec<String> {
    let mut trace = vec!["start".to_string()];
    while trace.last().unwrap() != from {
        let next = chain
            .successors(trace.last().unwrap())
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .filter(|s| state_rank(s) <= state_rank(from))
            .max_by_key(|s| state_rank(s))
            .expect("edge source reachable")
            .clone();
        trace.push(next);
    }
    trace.push(to.to_string());
    while trace.last().unwrap() != "end" {
        let next = chain
            .successors(trace.last().unwrap())
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .max_by_key(|s| state_rank(s))
            .expect("no dead ends")
            .clone();
        trace.push(next);
    }
    trace
}

fn random_walk(chain: &Dtmc<String>, rng: &mut StdRng) -> Vec<String> {
    let mut trace = vec!["start".to_string()];
    while trace.last().unwrap() != "end" && trace.len() < 4096 {
        let successors = chain.successors(trace.last().unwrap()).unwrap();
        let u = rng.gen::<f64>();
        let mut acc = 0.0;
        let mut chosen = successors.last().unwrap().0;
        for (s, p) in &successors {
            acc += p;
            if u < acc {
                chosen = s;
                break;
            }
        }
        let next = chosen.clone();
        trace.push(next);
    }
    trace
}

/// Per-service stream: estimator + `(from, to) → param` edge map.
struct Stream {
    estimator: StreamingEstimator<String>,
    edge_params: HashMap<(String, String), String>,
}

impl Stream {
    fn new(svc: &FleetService) -> Self {
        Stream {
            estimator: StreamingEstimator::new(),
            edge_params: svc
                .edges
                .iter()
                .map(|e| ((e.from.clone(), e.to.clone()), e.param.clone()))
                .collect(),
        }
    }

    fn ingest_bootstrap(&mut self, svc: &FleetService, walks: usize, rng: &mut StdRng) {
        for e in &svc.edges {
            self.estimator
                .observe(&coverage_trace(&svc.chain, &e.from, &e.to));
        }
        for _ in 0..walks {
            self.estimator.observe(&random_walk(&svc.chain, rng));
        }
    }

    fn drain_into(&mut self, threshold: f64, out: &mut Vec<(String, f64)>) {
        for row in self.estimator.drain_deltas(threshold).rows {
            for (to, p) in row.edges {
                if let Some(param) = self.edge_params.get(&(row.from.clone(), to)) {
                    out.push((param.clone(), p));
                }
            }
        }
    }

    fn batch_env(&self, svc: &FleetService) -> Bindings {
        let dtmc = self.estimator.estimate().expect("traces ingested");
        let mut env = Bindings::new();
        for e in &svc.edges {
            env.insert(
                &e.param,
                dtmc.transition_probability(&e.from, &e.to).unwrap(),
            );
        }
        env
    }
}

fn registered(fleet: &Fleet) -> Vec<&FleetService> {
    fleet
        .services
        .iter()
        .filter(|s| !s.edges.is_empty())
        .collect()
}

/// Asserts every registered service's refresh state is bitwise the batch
/// re-estimate + re-solve reference on a fresh evaluator.
fn assert_matches_batch(fleet: &Fleet, streams: &[Stream], refresh: &FleetRefresh) {
    let evaluator = Evaluator::with_options(&fleet.assembly, refresh.evaluator().options());
    for (svc, stream) in registered(fleet).into_iter().zip(streams) {
        let id: ServiceId = svc.service.as_str().into();
        let ref_env = stream.batch_env(svc);
        let env = refresh.env(&id).expect("registered");
        for e in &svc.edges {
            assert_eq!(
                env.get(&e.param).unwrap().to_bits(),
                ref_env.get(&e.param).unwrap().to_bits(),
                "{}/{} diverged from the batch estimate",
                svc.service,
                e.param
            );
        }
        let want = evaluator
            .failure_probability(&id, &ref_env)
            .unwrap()
            .value();
        let got = refresh.failure(&id).unwrap().value();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: delta refresh {got} vs batch reference {want}",
            svc.service
        );
    }
}

#[test]
fn streamed_fleet_matches_batch_reference_bitwise() {
    let fleet = small_fleet();
    let services = registered(&fleet);
    let mut refresh = FleetRefresh::new(&fleet.assembly, auto());
    for svc in &services {
        let varied: Vec<String> = svc.edges.iter().map(|e| e.param.clone()).collect();
        refresh
            .register(svc.service.as_str().into(), svc.ground_env.clone(), &varied)
            .expect("registers");
    }

    // Bootstrap: coverage + seeded sessions everywhere, one flat apply.
    let mut rng = StdRng::seed_from_u64(2026);
    let mut streams: Vec<Stream> = services.iter().map(|s| Stream::new(s)).collect();
    let mut deltas = Vec::new();
    for (stream, svc) in streams.iter_mut().zip(&services) {
        stream.ingest_bootstrap(svc, 6, &mut rng);
        stream.drain_into(0.0, &mut deltas);
    }
    let stats = refresh.apply(&deltas).expect("bootstrap applies");
    assert_eq!(stats.services_refreshed, services.len());
    assert_matches_batch(&fleet, &streams, &refresh);

    // Incremental round: new sessions for three services only; everything
    // else must not even be visited, yet the whole fleet stays pinned.
    deltas.clear();
    for i in [0usize, 5, services.len() - 1] {
        for _ in 0..10 {
            streams[i]
                .estimator
                .observe(&random_walk(&services[i].chain, &mut rng));
        }
        streams[i].drain_into(0.0, &mut deltas);
    }
    let stats = refresh.apply(&deltas).expect("round applies");
    assert!(stats.services_refreshed <= 3);
    assert_eq!(
        stats.services_untouched,
        services.len() - stats.services_refreshed
    );
    assert_matches_batch(&fleet, &streams, &refresh);
}

#[test]
fn thresholded_drains_suppress_rows_but_keep_the_fleet_consistent() {
    let fleet = small_fleet();
    let services = registered(&fleet);
    let mut refresh = FleetRefresh::new(&fleet.assembly, auto());
    for svc in &services {
        let varied: Vec<String> = svc.edges.iter().map(|e| e.param.clone()).collect();
        refresh
            .register(svc.service.as_str().into(), svc.ground_env.clone(), &varied)
            .expect("registers");
    }
    let mut rng = StdRng::seed_from_u64(7);
    let mut streams: Vec<Stream> = services.iter().map(|s| Stream::new(s)).collect();
    let mut deltas = Vec::new();
    for (stream, svc) in streams.iter_mut().zip(&services) {
        stream.ingest_bootstrap(svc, 6, &mut rng);
        stream.drain_into(0.0, &mut deltas);
    }
    refresh.apply(&deltas).expect("bootstrap applies");

    // A second tiny batch of traffic under a coarse threshold: most rows
    // move by far less than 0.45, so almost everything is suppressed —
    // but whatever *is* emitted arrives as whole rows, so every applied
    // env row still sums to one and the refresh stays self-consistent.
    deltas.clear();
    let mut suppressed = 0usize;
    for (stream, svc) in streams.iter_mut().zip(&services) {
        stream.estimator.observe(&random_walk(&svc.chain, &mut rng));
        let before = deltas.len();
        stream.drain_into(0.45, &mut deltas);
        if deltas.len() == before {
            suppressed += 1;
        }
    }
    assert!(
        suppressed > 0,
        "a 0.45 threshold must suppress some services"
    );
    refresh
        .apply(&deltas)
        .expect("thresholded apply stays valid");

    // Self-consistency: each service's stored failure is exactly what a
    // fresh evaluation of its *applied* env produces (the env may lag the
    // estimators — that is the threshold's contract).
    let evaluator = Evaluator::with_options(&fleet.assembly, refresh.evaluator().options());
    for svc in &services {
        let id: ServiceId = svc.service.as_str().into();
        let env = refresh.env(&id).unwrap().clone();
        let want = evaluator.failure_probability(&id, &env).unwrap().value();
        assert_eq!(
            refresh.failure(&id).unwrap().value().to_bits(),
            want.to_bits()
        );
    }
}

#[test]
fn unknown_and_duplicate_params_are_rejected() {
    let fleet = small_fleet();
    let services = registered(&fleet);
    let mut refresh = FleetRefresh::new(&fleet.assembly, auto());
    let varied: Vec<String> = services[0].edges.iter().map(|e| e.param.clone()).collect();
    refresh
        .register(
            services[0].service.as_str().into(),
            services[0].ground_env.clone(),
            &varied,
        )
        .expect("registers");
    // A second service claiming the same usage parameter is refused.
    let err = refresh
        .register(
            services[1].service.as_str().into(),
            services[1].ground_env.clone(),
            &varied,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unique owner"), "{err}");
    // A delta naming an unregistered parameter rejects the whole batch.
    let err = refresh
        .apply(&[("nobody_owns_this".to_string(), 0.5)])
        .unwrap_err();
    assert!(
        err.to_string().contains("no registered fleet service"),
        "{err}"
    );
}
