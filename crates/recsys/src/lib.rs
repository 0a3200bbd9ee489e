//! # msopds-recsys
//!
//! Recommender models for the MSOPDS reproduction:
//!
//! * [`HetRec`] — the *victim* heterogeneous recommender (ConsisRec-style
//!   attention GNN, §VI-A.1) retrained from scratch on poisoned data for
//!   evaluation;
//! * [`pds`] — the Progressive Differentiable Surrogate (§IV-C): an unrolled,
//!   importance-vector-modulated training run recorded on the autodiff tape;
//! * [`MatrixFactorization`] — the MF surrogate for the PGA baseline;
//! * [`losses`] — the IA (eq. 3) and CA (eq. 5) adversarial objectives;
//! * [`metrics`] — r̄ and HitRate@k (§VI-A.6).

#![warn(missing_docs)]

pub mod bias;
pub mod convolve;
pub mod graphops;
pub mod hetrec;
pub mod losses;
pub mod metrics;
pub mod mf;
pub mod pds;
pub mod snapshot;

pub use graphops::{AdjacencyOp, Backend, EdgePatch, GraphOps, DEFAULT_SHARDS};
pub use hetrec::{HetRec, HetRecConfig, TrainReport};
pub use mf::{MatrixFactorization, MfConfig};
pub use pds::{build_pds, PdsBuild, PdsConfig, PlayerInput};
pub use snapshot::{
    MappedSnapshot, ModelKind, Snapshot, SnapshotError, SnapshotHeader, SnapshotSource,
    SnapshotWriter, TensorDecl, TensorView,
};
