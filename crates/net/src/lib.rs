//! # orsp-net
//!
//! The wire-facing service layer: the RSP as an actual network service
//! rather than an in-process function call.
//!
//! * [`wire`] — length-prefixed, CRC-checked binary frames for the four
//!   RPCs: blind-token issue, anonymous record upload (update-only — no
//!   retrieval RPC exists, by design), aggregate fetch, and search.
//! * [`router`] — [`RspService`]: one `handle(Request) -> Response`
//!   facade over the server substrates (mint, ingest, aggregates, search).
//! * [`server`] — [`NetServer`]: a leader/follower epoll event loop over
//!   non-blocking `std::net` sockets, where the thread that takes a
//!   connection's event serves its request (no async runtime, per
//!   DESIGN §6; Linux-only), with per-connection deadlines, a bounded
//!   connection slab, explicit `Busy` load-shedding, and graceful
//!   drain-on-shutdown.
//! * [`client`] — a blocking client with retry/backoff on `Busy`,
//!   timeouts, and dropped connections.
//! * [`transport`] — the [`Transport`] trait with a deterministic
//!   in-memory implementation (tests) beside the TCP one (daemon, bench).
//! * [`flags`] — [`Flags`]: the daemons' argv, checked against the flags
//!   each binary defines.
//!
//! Every service carries an `orsp-obs` registry: the router records
//! per-RPC latency and outcome counters, the server its accept/shed and
//! per-kind protocol-error counters, the event loop its open-connection and
//! slab-occupancy gauges. The whole registry is scrapeable in-process
//! (`RspService::obs`) or over the wire via the `Stats` RPC.

// `unsafe` is denied crate-wide; the single exception is [`sys`], the
// epoll/eventfd FFI module, which opts back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("orsp-net is Linux-only: its one server transport is the epoll reactor");

pub mod assembler;
pub mod client;
pub mod error;
pub mod flags;
pub(crate) mod reactor;
pub mod router;
pub mod server;
pub mod stream;
pub mod sys;
pub mod transport;
pub mod wire;

pub use assembler::{AssembledFrame, FrameAssembler};
pub use client::{
    CallTrace, ClientConfig, NetClient, NetPool, PendingCall, RetryStats, Sent, TcpTransport,
};
pub use error::{NetError, WireError};
pub use flags::{process_trace_seed, FlagSpec, Flags};
pub use router::{ReplicaHook, ReplicateOutcome, RspService, ServiceConfig};
pub use server::{FrameService, NetServer, ServerConfig, ServerStats};
pub use transport::{InMemoryTransport, RemoteIssuer, Transport};
pub use wire::{CatchRecord, Request, Response, SearchHit};
