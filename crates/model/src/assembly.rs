use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::{DependencyModel, ModelError, Result, Service, ServiceId};

/// A validated, closed assembly of services (paper §2: the architecture as a
/// set of resources and connectors wired through offered/required services).
///
/// Construction through [`AssemblyBuilder`] guarantees:
///
/// - service identifiers are unique;
/// - every call and connector reference resolves to a registered service;
/// - actual parameters cover the callee's formal parameters **exactly**
///   (the analytic-interface matching of §2);
/// - every `Shared`-dependency state really addresses a single service
///   through a single connector (§3.2's sharing restriction).
///
/// # Examples
///
/// ```
/// use archrel_model::{catalog, paper, Assembly};
///
/// let assembly = paper::local_assembly(&paper::PaperParams::default()).unwrap();
/// assert!(assembly.service(&"search".into()).is_some());
/// assert!(assembly.service(&"nonexistent".into()).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assembly {
    services: BTreeMap<ServiceId, Service>,
}

impl Assembly {
    /// Looks up a service.
    pub fn service(&self, id: &ServiceId) -> Option<&Service> {
        self.services.get(id)
    }

    /// Looks up a service or returns a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownService`] when absent.
    pub fn require(&self, id: &ServiceId) -> Result<&Service> {
        self.service(id).ok_or_else(|| ModelError::UnknownService {
            id: id.to_string(),
            referenced_from: "<caller>".to_string(),
        })
    }

    /// Iterates over all services in identifier order.
    pub fn services(&self) -> impl Iterator<Item = &Service> {
        self.services.values()
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the assembly is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Direct dependencies of a service: the targets and connectors of every
    /// call its flow issues.
    pub fn dependencies(&self, id: &ServiceId) -> Result<BTreeSet<ServiceId>> {
        match self.require(id)? {
            Service::Simple(_) => Ok(BTreeSet::new()),
            Service::Composite(c) => Ok(c.flow().referenced_services()),
        }
    }

    /// Topological order of all services (dependencies first), or the cycle
    /// that prevents one.
    ///
    /// Recursive assemblies are representable (the engine's fixed-point mode
    /// handles them) but have no topological order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MalformedFlow`] naming a service on a
    /// dependency cycle.
    pub fn topological_order(&self) -> Result<Vec<ServiceId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        let mut marks: BTreeMap<&ServiceId, Mark> =
            self.services.keys().map(|k| (k, Mark::White)).collect();
        let mut order = Vec::new();

        // Iterative DFS with an explicit stack to avoid recursion limits on
        // deep assemblies.
        for root in self.services.keys() {
            if marks[root] != Mark::White {
                continue;
            }
            let mut stack: Vec<(&ServiceId, bool)> = vec![(root, false)];
            while let Some((node, expanded)) = stack.pop() {
                if expanded {
                    marks.insert(node, Mark::Black);
                    order.push(node.clone());
                    continue;
                }
                match marks[node] {
                    Mark::Black => continue,
                    Mark::Gray => continue,
                    Mark::White => {}
                }
                marks.insert(node, Mark::Gray);
                stack.push((node, true));
                let deps = self.dependencies(node)?;
                for dep in deps {
                    let (dep_ref, _) = self
                        .services
                        .get_key_value(&dep)
                        .expect("validated assembly has no dangling references");
                    match marks[dep_ref] {
                        Mark::White => stack.push((dep_ref, false)),
                        Mark::Gray => {
                            return Err(ModelError::MalformedFlow {
                                service: dep.to_string(),
                                reason: "service participates in a dependency cycle".to_string(),
                            })
                        }
                        Mark::Black => {}
                    }
                }
            }
        }
        Ok(order)
    }
}

/// Builder for [`Assembly`].
#[derive(Debug, Clone, Default)]
pub struct AssemblyBuilder {
    services: Vec<Service>,
}

impl AssemblyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        AssemblyBuilder::default()
    }

    /// Registers a service.
    #[must_use]
    pub fn service(mut self, service: Service) -> Self {
        self.services.push(service);
        self
    }

    /// Registers many services.
    #[must_use]
    pub fn services(mut self, services: impl IntoIterator<Item = Service>) -> Self {
        self.services.extend(services);
        self
    }

    /// Validates and builds the assembly.
    ///
    /// # Errors
    ///
    /// - [`ModelError::DuplicateService`] for repeated identifiers;
    /// - [`ModelError::UnknownService`] for dangling call/connector targets;
    /// - [`ModelError::ParameterMismatch`] when actual parameters do not
    ///   cover the callee's formals exactly;
    /// - [`ModelError::InvalidSharing`] when a `Shared` state mixes targets
    ///   or connectors.
    pub fn build(self) -> Result<Assembly> {
        let mut map: BTreeMap<ServiceId, Service> = BTreeMap::new();
        for s in self.services {
            let id = s.id().clone();
            if map.insert(id.clone(), s).is_some() {
                return Err(ModelError::DuplicateService { id: id.to_string() });
            }
        }
        let assembly = Assembly { services: map };
        assembly_check_references(&assembly)?;
        assembly_check_sharing(&assembly)?;
        Ok(assembly)
    }
}

fn param_names(actuals: &[(String, archrel_expr::Expr)]) -> BTreeSet<&str> {
    actuals.iter().map(|(n, _)| n.as_str()).collect()
}

fn check_param_cover(
    caller: &ServiceId,
    callee: &Service,
    actuals: &[(String, archrel_expr::Expr)],
) -> Result<()> {
    let formals: BTreeSet<&str> = callee.formal_params().into_iter().collect();
    let actual_names = param_names(actuals);
    if formals == actual_names {
        return Ok(());
    }
    Err(ModelError::ParameterMismatch {
        caller: caller.to_string(),
        callee: callee.id().to_string(),
        missing: formals
            .difference(&actual_names)
            .map(|s| s.to_string())
            .collect(),
        extraneous: actual_names
            .difference(&formals)
            .map(|s| s.to_string())
            .collect(),
    })
}

fn assembly_check_references(assembly: &Assembly) -> Result<()> {
    for service in assembly.services() {
        let Service::Composite(c) = service else {
            continue;
        };
        for state in c.flow().states() {
            for call in &state.calls {
                let target =
                    assembly
                        .service(&call.target)
                        .ok_or_else(|| ModelError::UnknownService {
                            id: call.target.to_string(),
                            referenced_from: c.id().to_string(),
                        })?;
                check_param_cover(c.id(), target, &call.actual_params)?;
                if let Some(binding) = &call.connector {
                    let connector = assembly.service(&binding.connector).ok_or_else(|| {
                        ModelError::UnknownService {
                            id: binding.connector.to_string(),
                            referenced_from: c.id().to_string(),
                        }
                    })?;
                    check_param_cover(c.id(), connector, &binding.actual_params)?;
                }
            }
        }
    }
    Ok(())
}

fn assembly_check_sharing(assembly: &Assembly) -> Result<()> {
    for service in assembly.services() {
        let Service::Composite(c) = service else {
            continue;
        };
        for state in c.flow().states() {
            if state.dependency != DependencyModel::Shared {
                continue;
            }
            let invalid = |reason: String| ModelError::InvalidSharing {
                service: c.id().to_string(),
                state: state.id.to_string(),
                reason,
            };
            let Some(first) = state.calls.first() else {
                return Err(invalid("shared state has no calls".to_string()));
            };
            let first_connector = first.connector.as_ref().map(|b| &b.connector);
            for call in &state.calls[1..] {
                if call.target != first.target {
                    return Err(invalid(format!(
                        "mixed targets `{}` and `{}`",
                        first.target, call.target
                    )));
                }
                let this_connector = call.connector.as_ref().map(|b| &b.connector);
                if this_connector != first_connector {
                    return Err(invalid("mixed connectors".to_string()));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CompletionModel, CompositeService, ConnectorBinding, FailureModel, FlowBuilder, FlowState,
        ServiceCall, SimpleService, StateId,
    };
    use archrel_expr::Expr;

    fn cpu() -> Service {
        Service::Simple(SimpleService::new(
            "cpu",
            "n",
            FailureModel::ExponentialRate {
                rate: 1e-9,
                capacity: 1e9,
            },
        ))
    }

    fn composite_calling_cpu(param: &str) -> Service {
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("cpu").with_param(param, Expr::num(100.0))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        Service::Composite(CompositeService::new("app", vec![], flow).unwrap())
    }

    #[test]
    fn valid_assembly_builds() {
        let a = AssemblyBuilder::new()
            .service(cpu())
            .service(composite_calling_cpu("n"))
            .build()
            .unwrap();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.require(&"app".into()).is_ok());
        assert!(a.require(&"ghost".into()).is_err());
    }

    #[test]
    fn duplicate_service_rejected() {
        let err = AssemblyBuilder::new()
            .service(cpu())
            .service(cpu())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateService { .. }));
    }

    #[test]
    fn dangling_call_target_rejected() {
        let err = AssemblyBuilder::new()
            .service(composite_calling_cpu("n"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownService { .. }));
    }

    #[test]
    fn wrong_parameter_name_rejected() {
        let err = AssemblyBuilder::new()
            .service(cpu())
            .service(composite_calling_cpu("bytes"))
            .build()
            .unwrap_err();
        match err {
            ModelError::ParameterMismatch {
                missing,
                extraneous,
                ..
            } => {
                assert_eq!(missing, vec!["n".to_string()]);
                assert_eq!(extraneous, vec!["bytes".to_string()]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_connector_rejected() {
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("cpu")
                    .with_param("n", Expr::num(1.0))
                    .via(ConnectorBinding::new("ghost-connector"))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let err = AssemblyBuilder::new()
            .service(cpu())
            .service(app)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownService { .. }));
    }

    #[test]
    fn connector_parameter_mismatch_rejected() {
        let connector = Service::Simple(SimpleService::new("link", "b", FailureModel::Perfect));
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("cpu")
                    .with_param("n", Expr::num(1.0))
                    .via(ConnectorBinding::new("link").with_param("bytes", Expr::num(8.0)))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let err = AssemblyBuilder::new()
            .service(cpu())
            .service(connector)
            .service(app)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::ParameterMismatch { .. }));
    }

    fn shared_state_assembly(second_target: &str) -> Result<Assembly> {
        let calls = vec![
            ServiceCall::new("cpu").with_param("n", Expr::num(10.0)),
            ServiceCall::new(second_target).with_param("n", Expr::num(20.0)),
        ];
        let flow = FlowBuilder::new()
            .state(
                FlowState::new("1", calls)
                    .with_completion(CompletionModel::And)
                    .with_dependency(DependencyModel::Shared),
            )
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let cpu2 = Service::Simple(SimpleService::new("cpu2", "n", FailureModel::Perfect));
        AssemblyBuilder::new()
            .service(cpu())
            .service(cpu2)
            .service(app)
            .build()
    }

    #[test]
    fn sharing_requires_single_target() {
        assert!(shared_state_assembly("cpu").is_ok());
        let err = shared_state_assembly("cpu2").unwrap_err();
        assert!(matches!(err, ModelError::InvalidSharing { .. }));
    }

    #[test]
    fn sharing_requires_single_connector() {
        let loc = Service::Simple(SimpleService::new("loc", "x", FailureModel::Perfect));
        let calls = vec![
            ServiceCall::new("cpu")
                .with_param("n", Expr::num(1.0))
                .via(ConnectorBinding::new("loc").with_param("x", Expr::num(0.0))),
            ServiceCall::new("cpu").with_param("n", Expr::num(2.0)),
        ];
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", calls).with_dependency(DependencyModel::Shared))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let err = AssemblyBuilder::new()
            .service(cpu())
            .service(loc)
            .service(app)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidSharing { .. }));
    }

    #[test]
    fn topological_order_puts_dependencies_first() {
        let a = AssemblyBuilder::new()
            .service(cpu())
            .service(composite_calling_cpu("n"))
            .build()
            .unwrap();
        let order = a.topological_order().unwrap();
        let cpu_pos = order.iter().position(|s| s.as_str() == "cpu").unwrap();
        let app_pos = order.iter().position(|s| s.as_str() == "app").unwrap();
        assert!(cpu_pos < app_pos);
    }

    #[test]
    fn cycle_detected_in_topological_order() {
        // a calls b, b calls a.
        let make = |name: &str, target: &str| {
            let flow = FlowBuilder::new()
                .state(FlowState::new("1", vec![ServiceCall::new(target)]))
                .transition(StateId::Start, "1", Expr::one())
                .transition("1", StateId::End, Expr::one())
                .build()
                .unwrap();
            Service::Composite(CompositeService::new(name, vec![], flow).unwrap())
        };
        let a = AssemblyBuilder::new()
            .service(make("a", "b"))
            .service(make("b", "a"))
            .build()
            .unwrap();
        assert!(matches!(
            a.topological_order(),
            Err(ModelError::MalformedFlow { .. })
        ));
    }

    #[test]
    fn dependencies_of_simple_service_are_empty() {
        let a = AssemblyBuilder::new().service(cpu()).build().unwrap();
        assert!(a.dependencies(&"cpu".into()).unwrap().is_empty());
    }
}
