//! The unified service model of Grassi's architecture-based reliability
//! prediction (paper §2–§3).
//!
//! Everything — software components, physical resources (CPUs, networks) and
//! *connectors* (LPC, RPC, deployment links) — is modeled uniformly as an
//! entity that **offers** and **requires** services:
//!
//! - [`SimpleService`]: a service with a published closed-form failure model
//!   ([`FailureModel`], eqs. 1–2) and a single abstract demand parameter
//!   (operations for CPUs, bytes for networks).
//! - [`CompositeService`]: a service whose *analytic interface* is a
//!   probabilistic [`Flow`] of cascading [`ServiceCall`]s. Each flow state
//!   groups calls under a [`CompletionModel`] (AND / OR / k-out-of-n) and a
//!   [`DependencyModel`] (independent / shared), and every actual parameter
//!   is an [`archrel_expr::Expr`] over the service's formal parameters —
//!   the parametric dependency (`ap_j = ap_j(fp)`) the paper argues is
//!   essential for compositional analysis.
//! - [`Assembly`]: a closed registry of services, validated so every call
//!   target exists, actual parameters cover the callee's formal parameters,
//!   and `Shared` states really share one service through one connector.
//! - [`connector`]: ready-made LPC / RPC / local-processing connectors with
//!   the exact flows of the paper's Figure 2.
//! - [`paper`]: the §4 example (search + sort, local and remote assemblies)
//!   parameterized over every constant, reused by tests, examples, the
//!   simulator and the Figure 6 reproduction.
//!
//! # Examples
//!
//! Build a CPU resource and query its failure law (eq. 1):
//!
//! ```
//! use archrel_model::{catalog, Service};
//!
//! let cpu = catalog::cpu_resource("cpu1", 1e9, 1e-9);
//! let Service::Simple(s) = &cpu else { panic!("cpu is simple") };
//! let pfail = s.failure_probability(1e6).unwrap();
//! assert!((pfail.value() - (1.0 - (-1e-9f64 * 1e6 / 1e9).exp())).abs() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assembly;
pub mod catalog;
pub mod connector;
mod error;
mod failure;
mod flow;
mod ids;
mod index;
pub mod paper;
mod prob;
mod service;

pub use assembly::{Assembly, AssemblyBuilder};
pub use error::ModelError;
pub use failure::{FailureModel, InternalFailureModel};
pub use flow::{
    CompletionModel, ConnectorBinding, DependencyModel, Flow, FlowBuilder, FlowState, ServiceCall,
    StateId,
};
pub use ids::ServiceId;
pub use index::FlowIndex;
pub use prob::Probability;
pub use service::{CompositeService, Service, SimpleService};

/// Convenience result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
