//! How a node reaches its replica-set peers and when it acks a
//! replicated write. The ring math itself, [`orsp_server::Topology`],
//! lives beside `shard_index` in `orsp-server`, so the stateless proxy
//! shares it without linking this crate.

use orsp_net::{NetError, NetPool, Request, Response};

/// When the primary acks a replicated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Forward to followers *before* acking the client: an acked write
    /// survives the primary's loss (modulo followers that are
    /// themselves down — counted as `replication_degraded_total`, not
    /// blocked on, so one dead follower cannot take writes down).
    Sync,
    /// Ack after the local fsync; forward from a background queue.
    /// Cheaper, but the queue depth (the `replication_lag` gauge) is
    /// exactly the window of acked writes a primary loss can lose.
    Async,
}

impl ReplicationMode {
    /// Parse the `--replication` CLI value.
    pub fn parse(s: &str) -> Option<ReplicationMode> {
        match s {
            "sync" => Some(ReplicationMode::Sync),
            "async" => Some(ReplicationMode::Async),
            _ => None,
        }
    }
}

/// One replica-set peer this node can call. [`NetPool`] is the
/// production implementation; tests plug in in-process fakes (including
/// deliberately stale or dead ones).
pub trait PeerLink: Send + Sync {
    /// Send one request and wait for the response.
    fn call(&self, request: &Request) -> Result<Response, NetError>;
    /// Human-readable identity (address) for logs and errors.
    fn label(&self) -> String;
}

impl PeerLink for NetPool {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        // Propagate the ambient trace so a follower's `server/replicate`
        // span parents under the primary's upload.
        self.call_traced_with(request, orsp_obs::trace::current()).map(|(r, _)| r)
    }

    fn label(&self) -> String {
        self.addr().to_string()
    }
}
