//! # orsp-client
//!
//! The RSP's modified smartphone app (§3.1): monitors the sensor streams,
//! maps them to entities, infers interactions, keeps a *bounded* local
//! history, and uploads inferences anonymously and asynchronously.
//!
//! Pipeline per user:
//!
//! ```text
//! SensorTrace ──► EntityMapper ──► VisitSessionizer ──► interactions
//!                 (loc/phone/merchant → entity)             │
//!                                                           ▼
//!      TransparencyLog ◄── RspClient ──► LocalHistoryStore (purged)
//!                              │
//!                              ▼
//!                      UploadScheduler (async, batched, tokened,
//!                      one unlinkable channel per entity)
//! ```
//!
//! Privacy mechanics implemented exactly as §4.2 sketches:
//!
//! * record IDs are `hash(Ru, e)` — derived, never stored;
//! * the local history keeps only a recent window
//!   ([`LocalHistoryStore::purge`]);
//! * uploads are deferred by a random delay inside an asynchronous window
//!   ("no need for real-time dissemination"), breaking timing correlation;
//! * every upload carries a blind rate-limit token.
//!
//! §5's transparency requirement is the [`TransparencyLog`]: every
//! inference the client makes is visible to the user, who can suppress
//! wrong ones before they are uploaded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod history;
pub mod mapper;
pub mod sessionizer;
pub mod transparency;
pub mod uploader;

pub use client::{ClientConfig, RspClient};
pub use history::LocalHistoryStore;
pub use mapper::{EntityDirectory, EntityMapper};
pub use sessionizer::{DetectedVisit, SessionizerConfig, VisitSessionizer};
pub use transparency::{InferenceEntry, InferenceStatus, TransparencyLog};
pub use uploader::UploadScheduler;
// Kept for `benchmark/src/{load,replay}.rs`; in-tree code names `orsp_crypto::UploadRequest`.
pub use orsp_crypto::UploadRequest;
