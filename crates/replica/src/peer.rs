//! How a node reaches its replica-set peers and when it acks a
//! replicated write. The ring math itself, [`orsp_server::Topology`],
//! lives beside `shard_index` in `orsp-server`, so the stateless proxy
//! shares it without linking this crate.

use orsp_net::{NetError, NetPool, PendingCall, Request, Response};

/// When the primary acks a replicated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Forward to followers *before* acking the client: an acked write
    /// survives the primary's loss (modulo followers that are
    /// themselves down — counted as `replication_degraded_total`, not
    /// blocked on, so one dead follower cannot take writes down). The
    /// `Replicate` goes out before the primary's own fsync and both run
    /// at once, so a write waits for the slower of the two flushes, not
    /// their sum. A follower may therefore hold a batch the primary
    /// never made durable; that batch was never acked, and a retry of
    /// it reaches the follower as a replay it skips by spend key.
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
    /// The first half of [`Self::call`]: put `request` on the wire and
    /// return without waiting for the answer, which [`Self::collect`]
    /// reads. The sync write path sends its `Replicate` before the local
    /// fsync, so follower and primary flush at once. The default makes
    /// the whole call here, which is correct for any link but runs the
    /// follower's work before the primary's.
    fn send(&self, request: &Request) -> Pending<'_> {
        Pending::Answered(self.call(request))
    }
    /// The second half of [`Self::call`]: the answer to a [`Self::send`].
    fn collect(&self, pending: Pending<'_>) -> Result<Response, NetError> {
        match pending {
            Pending::Answered(result) => result,
            Pending::OnTheWire(call) => call.collect().map(|(response, _)| response),
        }
    }
    /// Human-readable identity (address) for logs and errors.
    fn label(&self) -> String;
}

/// A [`PeerLink::send`] whose answer has not been collected yet.
pub enum Pending<'a> {
    /// The answer is already in: the link made the whole call at send.
    Answered(Result<Response, NetError>),
    /// The request is on a pooled connection, which it holds until
    /// collected.
    OnTheWire(PendingCall<'a>),
}

// Both halves propagate the ambient trace, so a follower's
// `server/replicate` span parents under the primary's `replicate` span.
impl PeerLink for NetPool {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        self.call_traced_with(request, orsp_obs::trace::current()).map(|(r, _)| r)
    }

    fn send(&self, request: &Request) -> Pending<'_> {
        Pending::OnTheWire(NetPool::send(self, request, orsp_obs::trace::current()))
    }

    fn label(&self) -> String {
        self.addr().to_string()
    }
}
