//! Reusable synthetic scenarios for experiments and benchmarks.

use archrel_core::propagation::PropagationOptions;
use archrel_expr::{Bindings, Expr};
use archrel_markov::{Dtmc, DtmcBuilder};
use archrel_model::{
    catalog, Assembly, AssemblyBuilder, CompletionModel, CompositeService, DependencyModel,
    FailureModel, FlowBuilder, FlowState, Result as ModelResult, Service, ServiceCall,
    SimpleService, StateId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Figure 6 sweep grid: `(ϕ₁ values, γ values, list sizes)`.
///
/// List sizes are powers of two from 2⁶ to 2¹³ — the plotted range the
/// calibration in `EXPERIMENTS.md` targets.
pub fn fig6_grid() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let phis = vec![1e-6, 5e-6];
    let gammas = vec![1e-1, 5e-2, 2.5e-2, 5e-3];
    let lists: Vec<f64> = (6..=13).map(|e| f64::from(1 << e)).collect();
    (phis, gammas, lists)
}

/// A linear chain of `depth` composite services, each with `width` states;
/// every state calls a shared CPU and the next service in the chain: a deep
/// nesting of composite invocations.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn chain_assembly(depth: usize, width: usize) -> ModelResult<Assembly> {
    let mut builder = AssemblyBuilder::new().service(catalog::cpu_resource("cpu", 1e9, 1e-9));
    for level in 0..depth {
        let mut flow = FlowBuilder::new();
        let mut previous = StateId::Start;
        for s in 0..width {
            let mut calls = vec![ServiceCall::new("cpu")
                .with_param(catalog::CPU_PARAM, Expr::param("work") * Expr::num(10.0))];
            // The last state of each level calls the next level down.
            if s == width - 1 && level + 1 < depth {
                calls.push(
                    ServiceCall::new(format!("svc{}", level + 1))
                        .with_param("work", Expr::param("work")),
                );
            }
            let id = StateId::named(format!("s{s}"));
            flow = flow.state(FlowState::new(id.clone(), calls)).transition(
                previous,
                id.clone(),
                Expr::one(),
            );
            previous = id;
        }
        flow = flow.transition(previous, StateId::End, Expr::one());
        builder = builder.service(Service::Composite(CompositeService::new(
            format!("svc{level}"),
            vec!["work".to_string()],
            flow.build()?,
        )?));
    }
    builder.build()
}

/// A single-state assembly with `replicas` requests to one backend, under a
/// chosen completion and dependency model — the sharing ablation scenario.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn replicated_assembly(
    replicas: usize,
    backend_pfail: f64,
    completion: CompletionModel,
    dependency: DependencyModel,
) -> ModelResult<Assembly> {
    let calls: Vec<ServiceCall> = (0..replicas)
        .map(|_| ServiceCall::new("backend").with_param("x", Expr::num(1.0)))
        .collect();
    let flow = FlowBuilder::new()
        .state(
            FlowState::new("replicated", calls)
                .with_completion(completion)
                .with_dependency(dependency),
        )
        .transition(StateId::Start, "replicated", Expr::one())
        .transition("replicated", StateId::End, Expr::one())
        .build()?;
    AssemblyBuilder::new()
        .service(catalog::blackbox_service("backend", "x", backend_pfail))
        .service(Service::Composite(CompositeService::new(
            "app",
            vec![],
            flow,
        )?))
        .build()
}

/// Shape of a [`synthetic_flow_assembly`] flow graph.
///
/// All three are absorbing DAG flows whose augmented chain has `states + 3`
/// Markov states; they differ in branching structure and therefore in the
/// density the solver dispatch sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticTopology {
    /// One sequential path: every state has a single successor.
    Chain,
    /// `branches` parallel chains between `Start` and `End`, entered with
    /// probability `1/branches` each.
    FanOut {
        /// Number of parallel chains (≥ 1).
        branches: usize,
    },
    /// A layered graph, `width` states per layer, each state transitioning
    /// to **every** state of the next layer with probability `1/width` —
    /// the densest of the three shapes.
    Mesh {
        /// States per layer (≥ 1).
        width: usize,
    },
}

/// A single composite service whose flow has (about) `states` named states in
/// the requested topology, every state issuing one call to a shared blackbox
/// with failure probability `step_pfail`. This is the scalable input for the
/// staged-sweep differential tests and the benchmark's sweep workload: `states`
/// runs up to ~10⁴.
///
/// `FanOut`/`Mesh` round `states` down to a multiple of the branch count /
/// layer width (minimum one chain link or layer).
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn synthetic_flow_assembly(
    topology: SyntheticTopology,
    states: usize,
    step_pfail: f64,
) -> ModelResult<Assembly> {
    let call = || vec![ServiceCall::new("unit").with_param("x", Expr::num(1.0))];
    let name = |i: usize| StateId::named(format!("s{i}"));
    let mut flow = FlowBuilder::new();
    match topology {
        SyntheticTopology::Chain => {
            let states = states.max(1);
            for i in 0..states {
                flow = flow.state(FlowState::new(name(i), call()));
            }
            flow = flow.transition(StateId::Start, name(0), Expr::one());
            for i in 1..states {
                flow = flow.transition(name(i - 1), name(i), Expr::one());
            }
            flow = flow.transition(name(states - 1), StateId::End, Expr::one());
        }
        SyntheticTopology::FanOut { branches } => {
            let branches = branches.max(1);
            let len = (states / branches).max(1);
            let enter = Expr::num(1.0 / branches as f64);
            for b in 0..branches {
                for s in 0..len {
                    let i = b * len + s;
                    flow = flow.state(FlowState::new(name(i), call()));
                    flow = if s == 0 {
                        flow.transition(StateId::Start, name(i), enter.clone())
                    } else {
                        flow.transition(name(i - 1), name(i), Expr::one())
                    };
                }
                flow = flow.transition(name(b * len + len - 1), StateId::End, Expr::one());
            }
        }
        SyntheticTopology::Mesh { width } => {
            let width = width.max(1);
            let layers = (states / width).max(1);
            let split = Expr::num(1.0 / width as f64);
            for i in 0..layers * width {
                flow = flow.state(FlowState::new(name(i), call()));
            }
            for j in 0..width {
                flow = flow.transition(StateId::Start, name(j), split.clone());
            }
            for l in 1..layers {
                for from in 0..width {
                    for to in 0..width {
                        flow = flow.transition(
                            name((l - 1) * width + from),
                            name(l * width + to),
                            split.clone(),
                        );
                    }
                }
            }
            for j in 0..width {
                flow = flow.transition(name((layers - 1) * width + j), StateId::End, Expr::one());
            }
        }
    }
    AssemblyBuilder::new()
        .service(catalog::blackbox_service("unit", "x", step_pfail))
        .service(Service::Composite(CompositeService::new(
            "app",
            vec![],
            flow.build()?,
        )?))
        .build()
}

/// A sequential `states`-state flow whose calls cycle through `params`
/// formal parameters — the scalable input for the sensitivity sweeps.
///
/// State `i` issues one call to a shared per-unit blackbox with demand
/// `v{i % params}`, and the `app` composite declares `v0..v{params-1}` as
/// formals, so every returned binding genuinely moves the answer (the
/// finite-difference stencil probes `3 × params` points). The returned
/// [`Bindings`] place each parameter at a distinct demand in `[1, 2)`.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn parameterized_flow_assembly(
    states: usize,
    params: usize,
    step_pfail: f64,
) -> ModelResult<(Assembly, Bindings)> {
    let states = states.max(1);
    let params = params.clamp(1, states);
    let name = |i: usize| StateId::named(format!("s{i}"));
    let formal = |j: usize| format!("v{j}");
    let mut flow = FlowBuilder::new();
    for i in 0..states {
        flow = flow.state(FlowState::new(
            name(i),
            vec![ServiceCall::new("unit").with_param("x", Expr::param(formal(i % params)))],
        ));
    }
    flow = flow.transition(StateId::Start, name(0), Expr::one());
    for i in 1..states {
        flow = flow.transition(name(i - 1), name(i), Expr::one());
    }
    flow = flow.transition(name(states - 1), StateId::End, Expr::one());
    let assembly = AssemblyBuilder::new()
        .service(Service::Simple(SimpleService::new(
            "unit",
            "x",
            FailureModel::PerUnit {
                probability: step_pfail,
            },
        )))
        .service(Service::Composite(CompositeService::new(
            "app",
            (0..params).map(formal).collect(),
            flow.build()?,
        )?))
        .build()?;
    let mut env = Bindings::new();
    for j in 0..params {
        env.insert(formal(j), 1.0 + j as f64 / params as f64);
    }
    Ok((assembly, env))
}

/// A deep **shared-DAG** assembly — the acceptance scenario for the
/// compiled assembly-program path.
///
/// Every layer holds `width` composites, each a 64-state sequential flow
/// with one call per state. Layer-0 states call the `leaves` CPU resources
/// with state-dependent demand scales; higher-layer node `i` calls nodes
/// `i` and `(i+1) % width` of the layer below (a diamond per node, so each
/// lower node is shared by two parents) and fills the remaining states
/// with direct CPU calls. The single `app` root calls every node of the
/// top layer.
///
/// Every call forwards the formal parameter `work` **unchanged**, so a
/// shared sub-service receives bit-identical actual parameters from all of
/// its parents, and every node's flow is a multi-state sequence (one call
/// per state) — the shape where the program's cached flow skeletons and
/// pinned plans pay off against per-visit chain rebuilding.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn shared_dag_assembly(depth: usize, width: usize, leaves: usize) -> ModelResult<Assembly> {
    let depth = depth.max(1);
    let width = width.max(1);
    let leaves = leaves.max(1);
    let mut builder = AssemblyBuilder::new();
    for i in 0..leaves {
        // Slightly different failure rates keep the leaves distinguishable.
        builder = builder.service(catalog::cpu_resource(
            format!("cpu{i}"),
            1e9,
            1e-6 * (i + 1) as f64,
        ));
    }
    let leaf_call = |i: usize, scale: f64| {
        ServiceCall::new(format!("cpu{}", i % leaves))
            .with_param(catalog::CPU_PARAM, Expr::param("work") * Expr::num(scale))
    };
    let forward = |name: String| ServiceCall::new(name).with_param("work", Expr::param("work"));
    // One call per state, states chained Start -> s0 -> ... -> End.
    let sequence = |calls: Vec<ServiceCall>| -> ModelResult<_> {
        let mut flow = FlowBuilder::new();
        let mut previous = StateId::Start;
        for (s, call) in calls.into_iter().enumerate() {
            let id = StateId::named(format!("s{s}"));
            flow = flow
                .state(FlowState::new(id.clone(), vec![call]))
                .transition(previous, id.clone(), Expr::one());
            previous = id;
        }
        flow.transition(previous, StateId::End, Expr::one()).build()
    };
    // States per node: long enough that per-state call resolution and the
    // per-visit chain rebuild dominate the recursive walk.
    const SPAN: usize = 64;
    for l in 0..depth {
        for i in 0..width {
            let calls: Vec<ServiceCall> = (0..SPAN)
                .map(|s| match (l, s) {
                    (0, _) => leaf_call(i + s, (10 + s) as f64),
                    (_, 0) => forward(format!("d{}_{}", l - 1, i)),
                    (_, 32) => forward(format!("d{}_{}", l - 1, (i + 1) % width)),
                    _ => leaf_call(i + s, (2 + s) as f64),
                })
                .collect();
            builder = builder.service(Service::Composite(CompositeService::new(
                format!("d{l}_{i}"),
                vec!["work".to_string()],
                sequence(calls)?,
            )?));
        }
    }
    let roots: Vec<ServiceCall> = (0..width)
        .map(|i| forward(format!("d{}_{}", depth - 1, i)))
        .collect();
    builder
        .service(Service::Composite(CompositeService::new(
            "app",
            vec!["work".to_string()],
            sequence(roots)?,
        )?))
        .build()
}

/// A **recursive mesh** assembly — the acceptance scenario for the
/// compiled fixed-point path.
///
/// `k` mutually recursive services `r0..r{k-1}` sit at the bottom: each is
/// a 64-state flow whose first state re-enters the mesh (calling
/// `r{(i+1) % k}`, forwarding `work` **unchanged** so recursion keys
/// repeat per sweep) with probability `q`, and whose remaining states form
/// a sequential chain of CPU-leaf calls. A fan-out tier `t0..t{fanout-1}`
/// sits above — each tier service enters the mesh once (with a
/// tier-specific demand transform, so the mesh iterates at `fanout`
/// distinct parameter points per sweep) and fills its other states with
/// leaf calls — and the single `app` root calls every tier service.
///
/// Every composite can reach the mesh, so the whole tree is inside the
/// fixed-point loop cone: the scenario isolates what the compiled program
/// buys *inside* converging sweeps (compiled expressions, register files,
/// cached chain skeletons, pinned plans) against the recursive evaluator's
/// per-visit rebuild.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid inputs).
pub fn recursive_mesh_assembly(
    k: usize,
    fanout: usize,
    leaves: usize,
    q: f64,
) -> ModelResult<Assembly> {
    let k = k.max(1);
    let fanout = fanout.max(1);
    let leaves = leaves.max(1);
    const SPAN: usize = 64;
    let mut builder = AssemblyBuilder::new();
    for i in 0..leaves {
        builder = builder.service(catalog::cpu_resource(
            format!("cpu{i}"),
            1e9,
            1e-6 * (i + 1) as f64,
        ));
    }
    let leaf_call = |i: usize, scale: f64| {
        ServiceCall::new(format!("cpu{}", i % leaves))
            .with_param(catalog::CPU_PARAM, Expr::param("work") * Expr::num(scale))
    };
    let forward = |name: String| ServiceCall::new(name).with_param("work", Expr::param("work"));
    // Mesh members: Start -> rec (prob q) | s0 (prob 1-q) -> s1 -> ... -> End.
    for i in 0..k {
        let mut flow = FlowBuilder::new().state(FlowState::new(
            "rec",
            vec![forward(format!("r{}", (i + 1) % k))],
        ));
        let mut previous = StateId::named("s0");
        flow = flow
            .transition(StateId::Start, "rec", Expr::num(q))
            .transition(StateId::Start, "s0", Expr::num(1.0 - q))
            .transition(StateId::named("rec"), StateId::End, Expr::one());
        for s in 0..SPAN - 2 {
            let id = StateId::named(format!("s{s}"));
            flow = flow.state(FlowState::new(
                id.clone(),
                vec![leaf_call(i + s, (3 + s) as f64)],
            ));
            if s > 0 {
                flow = flow.transition(previous, id.clone(), Expr::one());
            }
            previous = id;
        }
        flow = flow.transition(previous, StateId::End, Expr::one());
        builder = builder.service(Service::Composite(CompositeService::new(
            format!("r{i}"),
            vec!["work".to_string()],
            flow.build()?,
        )?));
    }
    // Fan-out tier: one mesh entry (tier-specific transform) per service,
    // the other states are leaf calls.
    let sequence = |calls: Vec<ServiceCall>| -> ModelResult<_> {
        let mut flow = FlowBuilder::new();
        let mut previous = StateId::Start;
        for (s, call) in calls.into_iter().enumerate() {
            let id = StateId::named(format!("s{s}"));
            flow = flow
                .state(FlowState::new(id.clone(), vec![call]))
                .transition(previous, id.clone(), Expr::one());
            previous = id;
        }
        flow.transition(previous, StateId::End, Expr::one()).build()
    };
    for t in 0..fanout {
        let calls: Vec<ServiceCall> = (0..SPAN)
            .map(|s| {
                if s == 0 {
                    ServiceCall::new(format!("r{}", t % k)).with_param(
                        "work",
                        Expr::param("work") * Expr::num((t + 2) as f64) + Expr::num(1.0),
                    )
                } else {
                    leaf_call(t + s, (2 + s) as f64)
                }
            })
            .collect();
        builder = builder.service(Service::Composite(CompositeService::new(
            format!("t{t}"),
            vec!["work".to_string()],
            sequence(calls)?,
        )?));
    }
    let roots: Vec<ServiceCall> = (0..fanout).map(|t| forward(format!("t{t}"))).collect();
    builder
        .service(Service::Composite(CompositeService::new(
            "app",
            vec!["work".to_string()],
            sequence(roots)?,
        )?))
        .build()
}

/// Shape of a seeded web-scale service fleet (see [`generate_fleet`]).
///
/// The fleet has four tiers:
///
/// - **backends**: shared simple blackbox services — the hotspots every
///   other tier's calls concentrate on under a zipf popularity law;
/// - **replica groups**: composites issuing `n` redundant backend calls
///   under a `k`-out-of-`n` completion model;
/// - **entries**: the bulk of the fleet — session composites whose flow
///   transitions are **bare usage parameters** estimated from traffic.
///   Every call resolves to a simple backend, so entries compile to
///   staged sweeps (the streaming fast path);
/// - **aggregates**: trace-driven composites whose states call replica
///   *groups* (composite targets), so they decline staging and exercise
///   the dirty-cone generic fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Session (entry) composites — the staged-sweep tier.
    pub entries: usize,
    /// Shared backend hotspot services.
    pub backends: usize,
    /// `k`-out-of-`n` replica-group composites.
    pub replica_groups: usize,
    /// Aggregate composites over replica groups — the fallback tier.
    pub aggregates: usize,
    /// Zipf popularity exponent for backend choice and usage weights.
    pub zipf_exponent: f64,
    /// Generator seed: identical specs generate identical fleets.
    pub seed: u64,
}

impl FleetSpec {
    /// A web-scale spec totalling (about) `services` services: ~1% shared
    /// backends, ~0.5% replica groups, ~1% aggregates, the rest entries.
    pub fn web_scale(services: usize, seed: u64) -> FleetSpec {
        let services = services.max(16);
        let backends = (services / 100).max(8);
        let replica_groups = (services / 200).max(4);
        let aggregates = (services / 100).max(4);
        FleetSpec {
            entries: services
                .saturating_sub(backends + replica_groups + aggregates)
                .max(1),
            backends,
            replica_groups,
            aggregates,
            zipf_exponent: 1.1,
            seed,
        }
    }

    /// Total services the spec generates (all four tiers).
    pub fn total_services(&self) -> usize {
        self.entries + self.backends + self.replica_groups + self.aggregates
    }
}

/// One usage-parameterized flow edge of a fleet service: the formal
/// parameter carrying the edge's probability, and the flow states it
/// connects (`start`/`end` name the session boundary states, matching
/// the trace alphabet of [`FleetService::chain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEdge {
    /// Fleet-unique usage parameter name bound to this edge.
    pub param: String,
    /// Source trace state.
    pub from: String,
    /// Destination trace state.
    pub to: String,
}

/// One trace-driven fleet service (an entry or an aggregate) with its
/// ground-truth usage profile.
#[derive(Debug, Clone)]
pub struct FleetService {
    /// Service id in the fleet assembly.
    pub service: String,
    /// Usage parameters, one per branching flow edge.
    pub edges: Vec<FleetEdge>,
    /// Ground-truth usage DTMC over the trace alphabet
    /// (`start → s0 → … → end`), the distribution traffic is sampled
    /// from. Absorbing at `end`.
    pub chain: Dtmc<String>,
    /// Env binding every usage parameter to its ground-truth probability.
    pub ground_env: Bindings,
    /// Normalized zipf usage weight (how much of the fleet's traffic this
    /// service receives).
    pub weight: f64,
    /// Whether every call of the service resolves to a simple backend
    /// (staged-sweep eligible) or to composites (generic fallback tier).
    pub staged_eligible: bool,
}

/// A generated web-scale fleet (see [`FleetSpec`] and [`generate_fleet`]).
pub struct Fleet {
    /// All tiers assembled: backends, replica groups, entries, aggregates.
    pub assembly: Assembly,
    /// Trace-driven services (entries first, then aggregates), each with
    /// its ground-truth usage chain and zipf traffic weight.
    pub services: Vec<FleetService>,
    /// Error-propagation taints: imperfect per-backend error detection on
    /// the hottest backends over a high default, for
    /// [`archrel_core::propagation::evaluate`] studies on entry services.
    pub propagation: PropagationOptions,
}

impl Fleet {
    /// The trace-driven service owning `param`, if any.
    pub fn owner_of(&self, param: &str) -> Option<&FleetService> {
        self.services
            .iter()
            .find(|s| s.edges.iter().any(|e| e.param == param))
    }
}

/// Normalized zipf weights `w_i ∝ 1/(i+1)^s` over `n` ranks.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}

/// Samples an index from cumulative weights by inversion (the compat
/// `rand` exposes only uniform `gen::<f64>()`).
fn sample_index(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    match cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
        Ok(i) | Err(i) => i.min(cumulative.len() - 1),
    }
}

/// Generates a seeded web-scale fleet: identical specs produce identical
/// assemblies, chains, parameter names, and weights (the generator draws
/// every random quantity from one `StdRng` seeded with `spec.seed`, in a
/// fixed order).
///
/// Entry flows are stamped from a small set of session templates
/// (branching chains, skip edges, and an optional retry loop) so the
/// compiled-plan cache amortizes across the whole tier, while every
/// branching transition carries a fleet-unique bare usage parameter
/// (`u{i}_{from}_{to}`) whose value streams in from estimated traffic.
/// Ground-truth branch probabilities stay in `[0.15, 0.85]` so bootstrap
/// traffic observes every edge quickly.
///
/// # Errors
///
/// Propagates model-construction errors (none for valid specs).
pub fn generate_fleet(spec: &FleetSpec) -> ModelResult<Fleet> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut builder = AssemblyBuilder::new();

    // Backends: log-uniform failure probabilities in [1e-5, 1e-2].
    for b in 0..spec.backends {
        let pfail = 10f64.powf(-5.0 + 3.0 * rng.gen::<f64>());
        builder = builder.service(catalog::blackbox_service(format!("b{b}"), "x", pfail));
    }
    // Backend popularity: zipf by index, so `b0` is always the hottest
    // shared hotspot (which is also where the propagation taints sit).
    let backend_weights = zipf_weights(spec.backends, spec.zipf_exponent);
    let backend_cum: Vec<f64> = backend_weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let pick_backend = |rng: &mut StdRng| sample_index(&backend_cum, rng);

    // Replica groups: n redundant calls to one hot backend, k-out-of-n.
    for g in 0..spec.replica_groups {
        let n = 3 + (rng.gen::<f64>() * 3.0) as usize; // 3..=5
        let k = (n / 2 + 1).min(n); // majority
        let target = format!("b{}", pick_backend(&mut rng));
        let calls: Vec<ServiceCall> = (0..n)
            .map(|_| ServiceCall::new(target.clone()).with_param("x", Expr::num(1.0)))
            .collect();
        let flow = FlowBuilder::new()
            .state(
                FlowState::new("replicated", calls)
                    .with_completion(CompletionModel::KOutOfN { k })
                    .with_dependency(DependencyModel::Independent),
            )
            .transition(StateId::Start, "replicated", Expr::one())
            .transition("replicated", StateId::End, Expr::one())
            .build()?;
        builder = builder.service(Service::Composite(CompositeService::new(
            format!("g{g}"),
            vec![],
            flow,
        )?));
    }

    let mut services = Vec::with_capacity(spec.entries + spec.aggregates);

    // Entries: session flows stamped from 8 templates; calls hit zipf-hot
    // backends, branching transitions carry bare usage params.
    for e in 0..spec.entries {
        let template = e % 8;
        let targets: Vec<String> = (0..session_states(template))
            .map(|_| format!("b{}", pick_backend(&mut rng)))
            .collect();
        let fleet_service = session_service(
            format!("e{e}"),
            template,
            &targets,
            &format!("u{e}"),
            &mut rng,
        )?;
        builder = builder.service(fleet_service.0);
        services.push(fleet_service.1);
    }

    // Aggregates: the same session shapes, but every call targets a
    // replica-group composite — staging declines, the generic dirty-cone
    // path serves them.
    for a in 0..spec.aggregates {
        let template = a % 8;
        let targets: Vec<String> = (0..session_states(template))
            .map(|_| {
                let g = (rng.gen::<f64>() * spec.replica_groups as f64) as usize;
                format!("g{}", g.min(spec.replica_groups - 1))
            })
            .collect();
        let fleet_service = session_service(
            format!("a{a}"),
            template,
            &targets,
            &format!("ua{a}"),
            &mut rng,
        )?;
        builder = builder.service(fleet_service.0);
        services.push(fleet_service.1);
    }

    // Zipf traffic weights over the trace-driven services.
    let weights = zipf_weights(services.len(), spec.zipf_exponent);
    for (service, w) in services.iter_mut().zip(weights) {
        service.weight = w;
    }

    // Propagation taints: the 25% hottest backends detect errors with a
    // degraded seed-drawn probability; everything else detects at 0.99.
    let mut propagation = PropagationOptions::uniform(0.99).expect("valid detection");
    for b in 0..spec.backends.div_ceil(4) {
        let detection = 0.5 + 0.4 * rng.gen::<f64>();
        propagation = propagation
            .with_service(format!("b{b}"), detection)
            .expect("valid detection");
    }

    Ok(Fleet {
        assembly: builder.build()?,
        services,
        propagation,
    })
}

/// Flow states of session template `t` (templates 0–7 cycle through
/// lengths 4–11).
fn session_states(template: usize) -> usize {
    4 + (template % 8)
}

/// Builds one trace-driven session composite: a branching chain over
/// `targets.len()` states (state `si` calls `targets[i]` with unit
/// demand), a skip edge every third state, and a retry loop back to `s0`
/// on odd templates. Branching transitions are bare usage parameters
/// named `{prefix}_{from}_{to}`; ground-truth probabilities are drawn
/// from `rng` into `[0.15, 0.85]`.
fn session_service(
    name: String,
    template: usize,
    targets: &[String],
    prefix: &str,
    rng: &mut StdRng,
) -> ModelResult<(Service, FleetService)> {
    let k = targets.len();
    let state = |i: usize| format!("s{i}");
    let mut flow = FlowBuilder::new();
    for (i, target) in targets.iter().enumerate() {
        // Backends take a demand formal; replica-group composites take none.
        let call = if target.starts_with('b') {
            ServiceCall::new(target.clone()).with_param("x", Expr::num(1.0))
        } else {
            ServiceCall::new(target.clone())
        };
        flow = flow.state(FlowState::new(state(i), vec![call]));
    }
    let mut edges: Vec<FleetEdge> = Vec::new();
    let mut ground_env = Bindings::new();
    let mut chain = DtmcBuilder::new().state("start".to_string());
    for i in 0..k {
        chain = chain.state(state(i));
    }
    chain = chain.state("end".to_string());
    let mut formals: Vec<String> = Vec::new();
    // One closure adds an edge in all three representations at once: the
    // flow transition, the ground-truth chain, and the param bookkeeping.
    let mut add = |flow: &mut FlowBuilder,
                   chain: &mut DtmcBuilder<String>,
                   from: &str,
                   to: &str,
                   p: Option<f64>| {
        let from_id = if from == "start" {
            StateId::Start
        } else {
            StateId::named(from)
        };
        let to_id = if to == "end" {
            StateId::End
        } else {
            StateId::named(to)
        };
        match p {
            None => {
                *flow = std::mem::take(flow).transition(from_id, to_id, Expr::one());
                *chain = std::mem::take(chain).transition(from.to_string(), to.to_string(), 1.0);
            }
            Some(p) => {
                let param = format!("{prefix}_{from}_{to}");
                *flow = std::mem::take(flow).transition(from_id, to_id, Expr::param(&param));
                *chain = std::mem::take(chain).transition(from.to_string(), to.to_string(), p);
                ground_env.insert(&param, p);
                formals.push(param.clone());
                edges.push(FleetEdge {
                    param,
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
        }
    };
    add(&mut flow, &mut chain, "start", &state(0), None);
    let retry = template % 2 == 1;
    for i in 0..k {
        let last = i == k - 1;
        let skip = !last && i % 3 == 1 && i + 2 < k;
        let next = if last {
            "end".to_string()
        } else {
            state(i + 1)
        };
        if skip {
            // Branch: continue to s{i+1} or skip to s{i+2}.
            let p = 0.15 + 0.7 * rng.gen::<f64>();
            add(&mut flow, &mut chain, &state(i), &next, Some(p));
            add(
                &mut flow,
                &mut chain,
                &state(i),
                &state(i + 2),
                Some(1.0 - p),
            );
        } else if last && retry {
            // Session retry: loop back to s0 with a small probability.
            let p = 0.05 + 0.1 * rng.gen::<f64>();
            add(&mut flow, &mut chain, &state(i), &state(0), Some(p));
            add(&mut flow, &mut chain, &state(i), "end", Some(1.0 - p));
        } else {
            add(&mut flow, &mut chain, &state(i), &next, None);
        }
    }
    let fleet_service = FleetService {
        service: name.clone(),
        edges,
        chain: chain.build().expect("ground-truth rows sum to one"),
        ground_env,
        weight: 0.0,
        staged_eligible: targets.iter().all(|t| t.starts_with('b')),
    };
    let service = Service::Composite(CompositeService::new(name, formals, flow.build()?)?);
    Ok((service, fleet_service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_core::Evaluator;
    use archrel_expr::Bindings;

    #[test]
    fn fig6_grid_shape() {
        let (phis, gammas, lists) = fig6_grid();
        assert_eq!(phis.len(), 2);
        assert_eq!(gammas.len(), 4);
        assert_eq!(lists.len(), 8);
        assert_eq!(lists[0], 64.0);
        assert_eq!(lists[7], 8192.0);
    }

    #[test]
    fn chain_assembly_evaluates() {
        let assembly = chain_assembly(4, 3).unwrap();
        let p = Evaluator::new(&assembly)
            .failure_probability(&"svc0".into(), &Bindings::new().with("work", 1e5))
            .unwrap();
        assert!(p.value() > 0.0 && p.value() < 1.0);
    }

    #[test]
    fn deeper_chains_are_less_reliable() {
        let env = Bindings::new().with("work", 1e5);
        let shallow = chain_assembly(2, 2).unwrap();
        let deep = chain_assembly(8, 2).unwrap();
        let p_shallow = Evaluator::new(&shallow)
            .failure_probability(&"svc0".into(), &env)
            .unwrap();
        let p_deep = Evaluator::new(&deep)
            .failure_probability(&"svc0".into(), &env)
            .unwrap();
        assert!(p_deep.value() > p_shallow.value());
    }

    #[test]
    fn synthetic_topologies_agree_with_the_closed_form() {
        // Chain and fan-out of equal path length have the closed form
        // (1 - p)^len per path; the mesh multiplies one factor per layer.
        let p = 1e-3;
        let env = Bindings::new();
        let cases = [
            (SyntheticTopology::Chain, 12, 12),
            (SyntheticTopology::FanOut { branches: 4 }, 12, 3),
            (SyntheticTopology::Mesh { width: 4 }, 12, 3),
        ];
        for (topology, states, path_len) in cases {
            let assembly = synthetic_flow_assembly(topology, states, p).unwrap();
            let expected = 1.0 - (1.0 - p).powi(path_len);
            let got = Evaluator::new(&assembly)
                .failure_probability(&"app".into(), &env)
                .unwrap()
                .value();
            assert!(
                (got - expected).abs() < 1e-12,
                "{topology:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn synthetic_topologies_agree_across_solvers() {
        use archrel_core::{EvalOptions, SolverPolicy};
        let env = Bindings::new();
        for topology in [
            SyntheticTopology::Chain,
            SyntheticTopology::FanOut { branches: 8 },
            SyntheticTopology::Mesh { width: 8 },
        ] {
            let assembly = synthetic_flow_assembly(topology, 160, 1e-4).unwrap();
            let solve = |solver| {
                Evaluator::with_options(
                    &assembly,
                    EvalOptions {
                        solver,
                        ..EvalOptions::default()
                    },
                )
                .failure_probability(&"app".into(), &env)
                .unwrap()
                .value()
            };
            let dense = solve(SolverPolicy::Dense);
            let sparse = solve(SolverPolicy::Sparse);
            assert!(
                (dense - sparse).abs() < 1e-12,
                "{topology:?}: {dense} vs {sparse}"
            );
        }
    }

    #[test]
    fn shared_dag_assembly_agrees_between_program_and_recursive_paths() {
        let assembly = shared_dag_assembly(4, 3, 2).unwrap();
        let env = Bindings::new().with("work", 1e5);
        // A fresh evaluator's first point walks the recursive path; a
        // batch of two compiles the program before its first point.
        let fresh = Evaluator::new(&assembly);
        let recursive = fresh
            .failure_probability(&"app".into(), &env)
            .unwrap()
            .value();
        assert_eq!(fresh.cache_stats().programs_compiled, 0);
        let batched = Evaluator::new(&assembly);
        let program = batched
            .failure_probabilities(&"app".into(), &[&env, &env])
            .remove(0)
            .unwrap()
            .value();
        assert_eq!(batched.cache_stats().programs_compiled, 1);
        assert!(recursive > 0.0 && recursive < 1.0);
        assert_eq!(recursive.to_bits(), program.to_bits());
    }

    #[test]
    fn recursive_mesh_assembly_agrees_between_program_and_recursive_paths() {
        use archrel_core::{CycleMode, EvalOptions};
        let assembly = recursive_mesh_assembly(4, 3, 2, 0.3).unwrap();
        let options = EvalOptions {
            cycle_mode: CycleMode::FixedPoint {
                max_iterations: 200,
                tolerance: 1e-10,
            },
            ..EvalOptions::default()
        };
        let env = Bindings::new().with("work", 1e5);
        // A fresh evaluator's first point walks the recursive path; a
        // batch of two compiles the program before its first point.
        let fresh = Evaluator::with_options(&assembly, options);
        let recursive = fresh
            .failure_probability(&"app".into(), &env)
            .unwrap()
            .value();
        assert_eq!(fresh.cache_stats().programs_compiled, 0);
        let batched = Evaluator::with_options(&assembly, options);
        let program = batched
            .failure_probabilities(&"app".into(), &[&env, &env])
            .remove(0)
            .unwrap()
            .value();
        let stats = batched.cache_stats();
        assert_eq!(stats.programs_compiled, 1, "{stats:?}");
        assert!(recursive > 0.0 && recursive < 1.0);
        assert_eq!(recursive.to_bits(), program.to_bits());
        assert!(stats.fixed_point_sweeps >= 2, "{stats:?}");
        assert!(stats.program_loop_sccs >= 1, "{stats:?}");
    }

    #[test]
    fn recursive_mesh_recursion_probability_raises_failure() {
        use archrel_core::{CycleMode, EvalOptions};
        let env = Bindings::new().with("work", 1e5);
        let p = |q: f64| {
            let assembly = recursive_mesh_assembly(3, 2, 2, q).unwrap();
            Evaluator::with_options(
                &assembly,
                EvalOptions {
                    cycle_mode: CycleMode::FixedPoint {
                        max_iterations: 200,
                        tolerance: 1e-10,
                    },
                    ..EvalOptions::default()
                },
            )
            .failure_probability(&"app".into(), &env)
            .unwrap()
            .value()
        };
        assert!(p(0.5) > p(0.1));
    }

    #[test]
    fn shared_dag_assembly_depth_raises_failure() {
        let env = Bindings::new().with("work", 1e5);
        let shallow = shared_dag_assembly(2, 2, 2).unwrap();
        let deep = shared_dag_assembly(6, 2, 2).unwrap();
        let p = |a: &Assembly| {
            Evaluator::new(a)
                .failure_probability(&"app".into(), &env)
                .unwrap()
                .value()
        };
        assert!(p(&deep) > p(&shallow));
    }

    fn small_fleet_spec(seed: u64) -> FleetSpec {
        FleetSpec {
            entries: 24,
            backends: 8,
            replica_groups: 4,
            aggregates: 4,
            zipf_exponent: 1.1,
            seed,
        }
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = generate_fleet(&small_fleet_spec(7)).unwrap();
        let b = generate_fleet(&small_fleet_spec(7)).unwrap();
        assert_eq!(a.services.len(), b.services.len());
        for (x, y) in a.services.iter().zip(&b.services) {
            assert_eq!(x.service, y.service);
            assert_eq!(x.edges, y.edges);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            assert_eq!(x.chain.states(), y.chain.states());
            for from in x.chain.states() {
                for (to, p) in x.chain.successors(from).unwrap() {
                    let q = y.chain.transition_probability(from, to).unwrap();
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
            for (name, v) in x.ground_env.iter() {
                assert_eq!(y.ground_env.get(name), Some(v));
            }
        }
        // A different seed moves the ground truth.
        let c = generate_fleet(&small_fleet_spec(8)).unwrap();
        let moved = a.services.iter().zip(&c.services).any(|(x, z)| {
            x.ground_env
                .iter()
                .any(|(name, v)| z.ground_env.get(name) != Some(v))
        });
        assert!(moved, "seed must change ground-truth probabilities");
    }

    #[test]
    fn fleet_services_evaluate_under_ground_truth() {
        let fleet = generate_fleet(&small_fleet_spec(11)).unwrap();
        assert_eq!(fleet.services.len(), 28);
        let evaluator = Evaluator::new(&fleet.assembly);
        // A staged-eligible entry, a fallback aggregate, and a replica
        // group all evaluate to interior probabilities.
        for (service, env) in [
            ("e0", fleet.services[0].ground_env.clone()),
            ("a0", fleet.services[24].ground_env.clone()),
            ("g0", Bindings::new()),
        ] {
            let p = evaluator
                .failure_probability(&service.into(), &env)
                .unwrap();
            assert!(
                p.value() > 0.0 && p.value() < 1.0,
                "{service}: {}",
                p.value()
            );
        }
        // Tier split: entries staged-eligible, aggregates not.
        assert!(fleet.services[..24].iter().all(|s| s.staged_eligible));
        assert!(!fleet.services[24..].iter().any(|s| s.staged_eligible));
        // Zipf weights normalize and decay.
        let total: f64 = fleet.services.iter().map(|s| s.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(fleet.services[0].weight > fleet.services[27].weight);
    }

    #[test]
    fn fleet_ground_truth_chains_match_flow_params() {
        let fleet = generate_fleet(&small_fleet_spec(3)).unwrap();
        for service in &fleet.services {
            for edge in &service.edges {
                let p = service
                    .chain
                    .transition_probability(&edge.from, &edge.to)
                    .expect("chain carries every parameterized edge");
                assert_eq!(service.ground_env.get(&edge.param), Some(p));
            }
            // Param names are fleet-unique: the owner lookup round-trips.
            let first = &service.edges.first();
            if let Some(edge) = first {
                assert_eq!(
                    fleet.owner_of(&edge.param).unwrap().service,
                    service.service
                );
            }
        }
    }

    #[test]
    fn fleet_propagation_taints_hot_backends() {
        use archrel_core::propagation;
        let fleet = generate_fleet(&small_fleet_spec(5)).unwrap();
        // 8 backends -> 2 tainted, detection under the 0.99 default.
        assert_eq!(fleet.propagation.per_service.len(), 2);
        for detection in fleet.propagation.per_service.values() {
            assert!(*detection < 0.99 && *detection >= 0.5);
        }
        let entry = &fleet.services[0];
        let outcome = propagation::evaluate(
            &fleet.assembly,
            &entry.service.as_str().into(),
            &entry.ground_env,
            &fleet.propagation,
        )
        .unwrap();
        let total =
            outcome.correct.value() + outcome.erroneous.value() + outcome.detected_failure.value();
        assert!((total - 1.0).abs() < 1e-9, "outcomes sum to one: {total}");
    }

    #[test]
    fn web_scale_spec_partitions_services() {
        let spec = FleetSpec::web_scale(10_000, 42);
        assert_eq!(spec.total_services(), 10_000);
        assert_eq!(spec.backends, 100);
        assert_eq!(spec.replica_groups, 50);
        assert_eq!(spec.aggregates, 100);
        assert_eq!(spec.entries, 9_750);
        // The floors keep tiny fleets well-formed (at the cost of slightly
        // exceeding the requested count).
        let tiny = FleetSpec::web_scale(1, 0);
        assert_eq!(tiny.entries, 1);
        assert_eq!(tiny.total_services(), 17);
    }

    #[test]
    fn replicated_assembly_or_vs_and() {
        let or =
            replicated_assembly(3, 0.1, CompletionModel::Or, DependencyModel::Independent).unwrap();
        let and = replicated_assembly(3, 0.1, CompletionModel::And, DependencyModel::Independent)
            .unwrap();
        let p_or = Evaluator::new(&or)
            .failure_probability(&"app".into(), &Bindings::new())
            .unwrap();
        let p_and = Evaluator::new(&and)
            .failure_probability(&"app".into(), &Bindings::new())
            .unwrap();
        assert!(p_or.value() < p_and.value());
    }
}
