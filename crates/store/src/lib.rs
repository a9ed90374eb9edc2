//! Zero-copy persistent artifact store for compiled solve plans and
//! assembly-program bundles.
//!
//! Compiling a [`SolvePlan`](archrel_markov::SolvePlan) costs a topological
//! sort and a tape layout pass over the chain. Both depend only on the
//! chain's *structure* — exactly what the plan's fingerprint hashes — so
//! the tape can be archived once and reopened by any later process working
//! on the same structure. This crate provides that archive tier:
//!
//! - [`format`](mod@format): a relative-offset, checksummed binary layout whose payload
//!   sections are consumed in place — loading performs zero deserialization
//!   copies of the tape slabs (the bytes are mapped and handed to
//!   `archrel-markov` as [`Section::Mapped`](archrel_markov::Section) views).
//! - [`ArtifactStore`]: a shared directory of such archives with
//!   atomic-rename publication, per-counter traffic stats, and a
//!   fall-back-to-fresh-compilation contract: a missing, corrupt, or
//!   hostile archive is a typed [`StoreError`], never a panic, never
//!   undefined behavior, and never a silently wrong number.
//!
//! Trust boundary: an archive is validated *structurally* here (magic,
//! version, build key, whole-file checksum, section framing, alignment)
//! and *semantically* by
//! [`SolvePlan::from_parts`](archrel_markov::SolvePlan::from_parts)
//! (bounds, permutations, offsets) before a single
//! archived value feeds an evaluation.

#![forbid(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod error;
pub mod format;
mod mapped;
mod store;

pub use error::StoreError;
pub use format::{archive_checksum, decode_plan, encode_plan, fnv1a64, FORMAT_VERSION};
pub use mapped::AlignedBytes;
pub use store::{ArtifactMode, ArtifactStore, StoreStats, ENV_ARTIFACT_DIR, ENV_ARTIFACT_MODE};
