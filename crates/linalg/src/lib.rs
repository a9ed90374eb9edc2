//! Dense linear algebra substrate for `archrel`.
//!
//! The reliability engine reduces every composite service flow to an absorbing
//! discrete-time Markov chain and computes absorption probabilities, which
//! requires solving linear systems of the form `(I - Q) x = b` ("standard
//! Markov methods", Grassi §3.2). This crate provides exactly the dense
//! machinery needed for that, implemented from scratch so the workspace stays
//! within its sanctioned dependency set:
//!
//! - [`Matrix`]: a dense row-major `f64` matrix with the usual arithmetic.
//! - [`Vector`]: a dense `f64` vector.
//! - [`Lu`]: LU decomposition with partial pivoting; exact solves, inverses,
//!   determinants.
//! - [`iterative`]: Jacobi and Gauss–Seidel solvers and power iteration, used
//!   for large chains and for stationary distributions.
//! - [`CsrMatrix`]: a compressed-sparse-row matrix with `O(nnz)` SpMV and the
//!   sparse Gauss–Seidel / Jacobi solvers behind the engine's sparse path.
//!
//! # Examples
//!
//! ```
//! use archrel_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), archrel_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! let r = &a.mul_vector(&x)? - &b;
//! assert!(r.norm_inf() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
pub mod iterative;
mod lu;
mod matrix;
mod vector;

pub use csr::CsrMatrix;
pub use error::LinalgError;
pub use lu::{Lu, SINGULARITY_EPS};
pub use matrix::Matrix;
pub use vector::Vector;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
