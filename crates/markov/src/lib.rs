//! Discrete-time Markov chain (DTMC) engine for `archrel`.
//!
//! Grassi's reliability model (§2–§3 of the paper) represents every composite
//! service's usage profile as a DTMC whose `Start → End` absorption
//! probability, after a failure structure has been grafted on, yields the
//! service reliability (eq. 3). This crate is that substrate:
//!
//! - [`Dtmc`] / [`DtmcBuilder`]: a validated DTMC over arbitrary state labels.
//! - [`AbsorbingAnalysis`]: canonical-form absorbing-chain analysis — the
//!   fundamental matrix `N = (I − Q)⁻¹`, absorption probabilities `B = N·R`,
//!   expected visit counts, and expected time to absorption.
//! - [`absorption_probability_sparse`]: the sparse single-column solve —
//!   exact back-substitution on acyclic flow graphs, CSR Gauss–Seidel /
//!   Jacobi otherwise — for chains with thousands of states.
//! - [`SolvePlan`]: compile-once, evaluate-many plans for parameter sweeps
//!   that re-solve one acyclic chain *structure* with changing numeric
//!   entries: a straight-line back-substitution tape, bitwise equal to the
//!   sparse path (cyclic chains have no plan and are solved directly).
//! - [`transient`]: n-step distributions and reachability.
//! - [`stationary`]: stationary distributions of ergodic chains.
//! - [`paths`]: probability-weighted path enumeration (feeds the path-based
//!   baseline model of Dolbec–Shepard implemented in `archrel-baselines`).
//!
//! # Examples
//!
//! A two-state "weather" chain and its stationary distribution:
//!
//! ```
//! use archrel_markov::{DtmcBuilder, stationary};
//!
//! # fn main() -> Result<(), archrel_markov::MarkovError> {
//! let chain = DtmcBuilder::new()
//!     .transition("sunny", "sunny", 0.9)
//!     .transition("sunny", "rainy", 0.1)
//!     .transition("rainy", "sunny", 0.4)
//!     .transition("rainy", "rainy", 0.6)
//!     .build()?;
//! let pi = stationary::stationary_distribution(&chain)?;
//! assert!((pi[&"sunny"] - 0.8).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absorbing;
mod chain;
pub mod classes;
mod error;
mod iterative_absorption;
pub mod paths;
mod plan;
mod section;
mod sparse;
pub mod stationary;
pub mod transient;

pub use absorbing::{absorption_probability_to, AbsorbingAnalysis};
pub use chain::{Dtmc, DtmcBuilder, StateLabel};
pub use error::MarkovError;
pub use iterative_absorption::{absorption_probabilities_iterative, AbsorptionIterOptions};
pub use plan::{
    structure_fingerprint, ParamBlock, PlanParts, PlanScratch, SolvePlan, LANE, PLAN_SLOT_NONE,
};
pub use section::{Section, SliceBacking};
pub use sparse::{absorption_probability_sparse, SparseMethod, SparseSolveOptions};

/// Alias naming [`MarkovError`] in its solver role: the absorption-solve
/// entry points ([`absorption_probability_to`],
/// [`absorption_probability_sparse`]) report failures such as
/// `SolveError::NoConvergence` and `SolveError::UnreachableTarget` through
/// this type.
pub type SolveError = MarkovError;

/// Convenience result alias for fallible Markov-chain operations.
pub type Result<T> = std::result::Result<T, MarkovError>;

/// Tolerance used when validating that outgoing probabilities sum to one.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;
