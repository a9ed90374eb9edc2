//! Shared scenario builders for the `archrel` experiment binaries, the
//! integration tests and the end-to-end benchmark package
//! (`src/bin/benchmark`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
