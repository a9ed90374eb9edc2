//! The reliability-prediction engine of Grassi's *Architecture-Based
//! Reliability Prediction for Service-Oriented Computing* (paper §3).
//!
//! Given an [`archrel_model::Assembly`] and concrete values for the formal
//! parameters of a target service, the engine computes the probability that
//! the service fails to complete its task, `Pfail(S, fp)`, by the paper's
//! recursive procedure `Pfail_Alg` (§3.3):
//!
//! 1. recursively obtain the failure probability of every requested service
//!    (bottoming out at simple services, eqs. 1–2);
//! 2. combine the per-request internal and external failure probabilities of
//!    each flow state under its completion model (AND eq. 4/6, OR eq. 5/7,
//!    k-out-of-n) and dependency model (independent eqs. 6–8, shared
//!    eqs. 9–13);
//! 3. graft the failure structure onto the flow (a `Fail` absorbing state;
//!    transitions reweighted by `1 − p(i, Fail)`, Fig. 5);
//! 4. solve the absorbing DTMC: `Pfail(S, fp) = 1 − p*(Start → End)` (eq. 3).
//!
//! Entry point: [`Evaluator`]. Beyond the paper's algorithm the crate
//! provides:
//!
//! - [`batch`]: multi-threaded batch evaluation of query sweeps over one
//!   assembly, sharing a content-addressed solve cache across workers;
//! - [`symbolic`]: closed-form symbolic evaluation (the paper's §4 style,
//!   eqs. 15–22) for acyclic flows;
//! - fixed-point evaluation of **recursive assemblies** ([`CycleMode`]),
//!   the extension §3.3 leaves open;
//! - [`propagation`]: an error-propagation extension releasing the fail-stop
//!   assumption (§6 future work);
//! - [`sensitivity`]: parameter sensitivities and elasticities;
//! - [`selection`]: reliability-driven service selection (§1 motivation);
//! - [`paper_closed`]: the paper's closed forms (eqs. 15–22) used to verify
//!   the engine.
//!
//! # Examples
//!
//! Reliability of the paper's local assembly for a 1000-element list:
//!
//! ```
//! use archrel_core::Evaluator;
//! use archrel_model::paper;
//!
//! # fn main() -> Result<(), archrel_core::CoreError> {
//! let assembly = paper::local_assembly(&paper::PaperParams::default()).unwrap();
//! let evaluator = Evaluator::new(&assembly);
//! let reliability = evaluator
//!     .reliability(&paper::SEARCH.into(), &paper::search_bindings(4.0, 1000.0, 1.0))?;
//! assert!(reliability.value() > 0.99);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
pub mod batch;
mod cancel;
mod error;
mod eval;
mod failprob;
mod fixedpoint;
pub mod improvement;
pub mod paper_closed;
mod program;
pub mod propagation;
pub mod refresh;
mod report;
pub mod selection;
pub mod sensitivity;
mod staged;
pub mod symbolic;
pub mod uncertainty;

pub use augment::{augmented_chain, AugmentedState};
pub use batch::{BatchEvaluator, BatchSummary, Query};
pub use cancel::CancelToken;
pub use error::CoreError;
pub use eval::{
    CacheStats, CycleMode, EvalOptions, Evaluator, FixedPointMode, PlanCache, SolverPolicy,
    ValueCache, AUTO_PROGRAM_MIN_SEEN, DEFAULT_FIXED_POINT_MAX_ITERATIONS,
    DEFAULT_FIXED_POINT_TOLERANCE, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use failprob::{state_failure_probability, RequestFailure};
pub use program::AssemblyProgram;
pub use refresh::{FleetRefresh, RefreshStats};
pub use report::{EvaluationReport, ServiceBreakdown, StateBreakdown};

/// Convenience result alias for fallible engine operations.
pub type Result<T> = std::result::Result<T, CoreError>;
