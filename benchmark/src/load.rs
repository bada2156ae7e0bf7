//! The load generator: one device per client thread, one connection
//! each, closed- and open-loop drivers, and the per-op checks.
//!
//! An op *fails* if its RPC errored, was refused after the client's retry
//! budget (`Busy` / `Unavailable` / `TokenDenied`), or returned a verdict
//! or answer other than the expected one. Open-loop latency is timed from
//! each request's **due** time, so a stall is charged to every request
//! that queued behind it, not only to the one that hit it; if the backlog
//! is still growing when the window ends, the ops past the latency limit
//! fail too.

use crate::gen::{Dataset, Fault, FreshOp, OpStream, ReadOp};
use crate::stats::Sample;
use crate::trace::{in_span, now_ns, Kind, Open, Seam, TracedIssuer};
use orsp_client::UploadRequest;
use orsp_crypto::{
    sha256, BigUint, BlindedMessage, BlindingSession, RsaPublicKey, Token, TokenIssuer,
};
use orsp_net::{
    ClientConfig, RemoteIssuer, Request, Response, RetryStats, RspService, TcpTransport, Transport,
};
use orsp_server::RejectReason;
use orsp_types::rng::rng_for_indexed;
use orsp_types::{EntityId, Interaction, RecordId};
use rand::rngs::StdRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open-loop op that completes later than this after its due time
/// missed the latency limit: reported, and failed if the generator's
/// backlog was still growing when the window ended.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(20);

/// One upload the cluster acknowledged as accepted — what the state
/// oracle replays.
#[derive(Debug, Clone, Copy)]
pub struct Accepted {
    pub record_id: RecordId,
    pub entity: EntityId,
    pub interaction: Interaction,
    pub ledger_key: [u8; 32],
}

/// One timed thing a client did: a whole round trip
/// ([`Kind::RoundTrip`]: blind → issue → unblind → upload) or one RPC.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: Kind,
    /// When it completed, on the recorder's clock ([`now_ns`]).
    pub done_ns: u64,
    /// How long it took — from its due time, for an open-loop upload.
    pub latency_ns: u64,
}

/// What one client thread observed.
#[derive(Debug, Default, Clone)]
pub struct ClientLog {
    /// Everything timed, in completion order.
    pub ops: Vec<OpRecord>,
    /// Open loop: how late each request was sent, ns.
    pub late_ns: Vec<u64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed (see module docs).
    pub failed: u64,
    /// Open-loop ops that completed past [`LATENCY_LIMIT`].
    pub over_limit: u64,
    /// Replayed tokens injected.
    pub replays: u64,
    /// Forged signatures injected.
    pub forgeries: u64,
    /// Uploads acknowledged as accepted, in order.
    pub accepted: Vec<Accepted>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn timed(&mut self, kind: Kind, started: Instant) {
        let latency_ns = started.elapsed().as_nanos() as u64;
        self.ops.push(OpRecord {
            kind,
            done_ns: now_ns(),
            latency_ns,
        });
    }

    /// The records of the given kinds.
    pub fn of<'a>(&'a self, kinds: &'a [Kind]) -> impl Iterator<Item = &'a OpRecord> + 'a {
        self.ops.iter().filter(move |r| kinds.contains(&r.kind))
    }

    /// Latencies of the given kinds, as one sample.
    pub fn sample(&self, kinds: &[Kind]) -> Sample {
        Sample::new(self.of(kinds).map(|r| r.latency_ns).collect())
    }

    /// Fold another client's log into this one.
    pub fn absorb(&mut self, mut other: ClientLog) {
        self.ops.append(&mut other.ops);
        self.late_ns.append(&mut other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.over_limit += other.over_limit;
        self.replays += other.replays;
        self.forgeries += other.forgeries;
        self.accepted.append(&mut other.accepted);
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

/// How a read's answer is judged.
pub enum ReadCheck<'a> {
    /// Equal (`PartialEq`) to the reference answer: nothing was published
    /// since the preload.
    Exact(&'a Expected),
    /// Publishes are running: the same entities must answer, each with at
    /// least the preloaded support.
    AtLeast(&'a Expected),
}

/// Reference answers for every query and entity of the world.
pub struct Expected {
    /// By index into `Dataset::queries`.
    pub search: Vec<Response>,
    /// By index into `Dataset::entities`.
    pub fetch: Vec<Response>,
}

/// One device: a connection, a blinding RNG, and what it saw.
pub struct Device {
    client: usize,
    transport: TcpTransport,
    public: RsaPublicKey,
    rng: StdRng,
    /// The last upload the cluster accepted, whole: a replay resends it.
    last_accepted: Option<UploadRequest>,
    serial: u64,
    /// Fed every request too, when set; every response must be equal.
    pub reference: Option<Arc<RspService>>,
    /// What this device observed.
    pub log: ClientLog,
}

impl Device {
    /// Connect client `client` to `addr`.
    pub fn connect(
        addr: SocketAddr,
        config: ClientConfig,
        public: RsaPublicKey,
        seed: u64,
        client: usize,
    ) -> Device {
        Device {
            client,
            transport: TcpTransport::connect(addr, config).expect("connect to the front door"),
            public,
            rng: rng_for_indexed(seed, "bench-blinding", client as u64),
            last_accepted: None,
            serial: 0,
            reference: None,
            log: ClientLog::default(),
        }
    }

    /// Retry accounting of this device's connection.
    pub fn retry_stats(&self) -> RetryStats {
        self.transport.retry_stats()
    }

    /// Take the log, leaving an empty one.
    pub fn take_log(&mut self) -> ClientLog {
        std::mem::take(&mut self.log)
    }

    fn next_op_id(&mut self) -> u64 {
        self.serial += 1;
        ((self.client as u64 + 1) << 48) | self.serial
    }

    /// One RPC over the device's connection, inside a client span when
    /// traced, mirrored onto the reference when one is attached.
    fn rpc(&mut self, request: &Request) -> Option<Response> {
        let kind = Kind::of(request);
        let result = in_span(Seam::ClientRpc, kind, || self.transport.call(request));
        match result {
            Ok(response) => {
                if let Some(reference) = &self.reference {
                    let want = reference.handle(request.clone());
                    if want != response {
                        self.log.fail(format!(
                            "{} answered {response:?}, reference says {want:?}",
                            kind.name()
                        ));
                        return None;
                    }
                }
                Some(response)
            }
            Err(e) => {
                self.log.fail(format!("{} failed: {e}", kind.name()));
                None
            }
        }
    }

    /// The device round trip: blind a token, have it signed, unblind it,
    /// upload one interaction with it.
    pub fn roundtrip(&mut self, op: &FreshOp) {
        self.log.attempted += 1;
        let root = Open::root(self.next_op_id());
        let started = Instant::now();
        let (session, blinded) = in_span(Seam::Blind, Kind::RoundTrip, || {
            BlindingSession::blind(&mut self.rng, &self.public, &op.message)
        });
        let issue_started = Instant::now();
        let issued =
            TracedIssuer(RemoteIssuer::new(&self.transport)).issue(op.device, &blinded, op.now);
        self.log.timed(Kind::Issue, issue_started);
        let token = match issued {
            Ok(blind_signature) => {
                if let Some(reference) = &self.reference {
                    let want = reference.handle(Request::IssueToken {
                        device: op.device,
                        blinded: blinded.clone(),
                        now: op.now,
                    });
                    let got = Response::TokenIssued {
                        signature: blind_signature.clone(),
                    };
                    if want != got {
                        self.log
                            .fail(format!("issue answered {got:?}, reference {want:?}"));
                    }
                }
                let unblinded = in_span(Seam::Unblind, Kind::RoundTrip, || {
                    session.unblind(&blind_signature)
                });
                match unblinded {
                    Ok(signature) => Some(Token {
                        message: op.message,
                        signature,
                    }),
                    Err(e) => {
                        self.log.fail(format!("unblind: {e}"));
                        None
                    }
                }
            }
            Err(e) => {
                self.log.fail(format!("issue: {e}"));
                None
            }
        };
        if let Some(token) = token {
            self.upload(op, token, None);
        }
        self.log.timed(Kind::RoundTrip, started);
        if let Some(root) = root {
            root.close(Seam::ClientOp, Kind::RoundTrip, 0, 0);
        }
    }

    /// Upload `op` with a token this device already holds. `due`, when
    /// given, is the open-loop due time latency is measured from.
    pub fn upload_preminted(&mut self, op: &FreshOp, token: Token, due: Option<Instant>) {
        self.log.attempted += 1;
        let root = Open::root(self.next_op_id());
        self.upload(op, token, due);
        if let Some(root) = root {
            root.close(Seam::ClientOp, Kind::Upload, 0, 0);
        }
    }

    fn upload(&mut self, op: &FreshOp, fresh: Token, due: Option<Instant>) {
        let mut upload = UploadRequest {
            record_id: op.record_id,
            entity: op.entity,
            interaction: op.interaction,
            token: fresh,
            release_at: op.now,
        };
        let want = match (op.fault, self.last_accepted.clone()) {
            // The device resends its last accepted upload, token and all.
            // (Same record id, so the same hash range's ledger sees it: a
            // spent token presented under a record of *another* range is
            // a hole in the cluster this benchmark does not drive.)
            (Fault::Replay, Some(previous)) => {
                self.log.replays += 1;
                upload = previous;
                Response::UploadRejected {
                    reason: RejectReason::DoubleSpend,
                }
            }
            (Fault::Forge, _) => {
                self.log.forgeries += 1;
                upload.token.signature = upload.token.signature.add(&BigUint::from_u64(1));
                Response::UploadRejected {
                    reason: RejectReason::BadToken,
                }
            }
            _ => Response::UploadAccepted,
        };
        let request = Request::Upload {
            upload,
            now: op.now,
        };
        let started = Instant::now();
        let response = self.rpc(&request);
        // An overrun op is sent late, never early: `due` is in the past.
        self.log.timed(Kind::Upload, due.unwrap_or(started));
        if due.is_some_and(|due| due.elapsed() > LATENCY_LIMIT) {
            self.log.over_limit += 1;
        }
        let Some(response) = response else { return };
        if response != want {
            self.log
                .fail(format!("upload answered {response:?}, expected {want:?}"));
            return;
        }
        if let (Response::UploadAccepted, Request::Upload { upload, .. }) = (response, request) {
            self.log.accepted.push(Accepted {
                record_id: upload.record_id,
                entity: upload.entity,
                interaction: upload.interaction,
                ledger_key: upload.token.ledger_key(),
            });
            self.last_accepted = Some(upload);
        }
    }

    /// One read, judged by `check`.
    pub fn read(&mut self, data: &Dataset, op: ReadOp, check: &ReadCheck<'_>) {
        self.log.attempted += 1;
        let (request, kind) = match op {
            ReadOp::Search(i) => (
                Request::Search {
                    query: data.queries[i],
                },
                Kind::Search,
            ),
            ReadOp::Fetch(i) => (
                Request::FetchAggregate {
                    entity: data.entities[i],
                },
                Kind::Fetch,
            ),
        };
        let root = Open::root(self.next_op_id());
        let started = Instant::now();
        let response = self.rpc(&request);
        self.log.timed(kind, started);
        if let Some(root) = root {
            root.close(Seam::ClientOp, kind, 0, 0);
        }
        let Some(response) = response else { return };
        let (expected, exact) = match check {
            ReadCheck::Exact(e) => (*e, true),
            ReadCheck::AtLeast(e) => (*e, false),
        };
        let want = match op {
            ReadOp::Search(i) => &expected.search[i],
            ReadOp::Fetch(i) => &expected.fetch[i],
        };
        let ok = if exact {
            &response == want
        } else {
            at_least(&response, want)
        };
        if !ok {
            self.log.fail(format!(
                "{} answered {response:?}, expected {want:?}",
                kind.name()
            ));
        }
    }
}

/// `got` names the same entities as `want`, each with no less support.
fn at_least(got: &Response, want: &Response) -> bool {
    match (got, want) {
        (Response::SearchResults { hits: g }, Response::SearchResults { hits: w }) => {
            let mut ge: Vec<_> = g.iter().map(|h| (h.entity, h.histories)).collect();
            let mut we: Vec<_> = w.iter().map(|h| (h.entity, h.histories)).collect();
            ge.sort();
            we.sort();
            ge.len() == we.len() && ge.iter().zip(&we).all(|(g, w)| g.0 == w.0 && g.1 >= w.1)
        }
        (Response::Aggregate { aggregate: g }, Response::Aggregate { aggregate: w }) => {
            match (g, w) {
                (Some(g), Some(w)) => g.entity == w.entity && g.histories >= w.histories,
                (_, None) => true,
                (None, Some(_)) => false,
            }
        }
        _ => false,
    }
}

/// A token on `message` without the blinding round: the "blinded"
/// message sent to the mint is the bare digest (blinding factor 1), so
/// what comes back is already the signature on it. Set-up uses this to
/// pre-mint tokens through the service's public `IssueToken` RPC at the
/// cost of the RSA signature alone.
pub fn premint(mint: &RspService, public: &RsaPublicKey, op: &FreshOp) -> Token {
    let digest = BigUint::from_bytes_be(&sha256(&op.message)).rem(&public.n);
    match mint.handle(Request::IssueToken {
        device: op.device,
        blinded: BlindedMessage(digest),
        now: op.now,
    }) {
        Response::TokenIssued { signature } => Token {
            message: op.message,
            signature: signature.0,
        },
        other => panic!("pre-mint refused: {other:?}"),
    }
}

/// `count` fresh ops with their pre-minted tokens, one list per client,
/// minted on the client threads.
pub fn premint_all(
    mint: &RspService,
    public: &RsaPublicKey,
    data: &Dataset,
    streams: &mut [OpStream],
    count_per_client: usize,
) -> Vec<Vec<(FreshOp, Token)>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || {
                    (0..count_per_client)
                        .map(|_| {
                            let op = stream.fresh(data, false);
                            let token = premint(mint, public, &op);
                            (op, token)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-mint thread"))
            .collect()
    })
}

/// What an open-loop run measured about its own schedule.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// Completion minus due time, per op, ns.
    pub latency_ns: Vec<u64>,
    /// Send minus due time, per op, ns.
    pub late_ns: Vec<u64>,
}

/// Drive `exec` on the schedule `due_ns` (offsets from `start`): each op
/// is sent at its due time, or at once if the previous one overran it.
pub fn open_loop(
    start: Instant,
    due_ns: &[u64],
    mut exec: impl FnMut(usize, Instant),
) -> OpenLoopLog {
    let mut log = OpenLoopLog::default();
    for (i, &due) in due_ns.iter().enumerate() {
        let due_at = start + Duration::from_nanos(due);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        exec(i, due_at);
        let done = Instant::now();
        log.late_ns
            .push(sent.saturating_duration_since(due_at).as_nanos() as u64);
        log.latency_ns
            .push(done.saturating_duration_since(due_at).as_nanos() as u64);
    }
    log
}

/// True when the generator was falling further behind as the window
/// ended: over the last two fifths of the ops, the later half was sent
/// later (by more than a millisecond at the median, and more than five
/// in absolute terms) than the earlier half. A system keeping up holds
/// lateness flat; one that cannot lets it grow without bound.
pub fn backlog_growing(late_ns: &[u64]) -> bool {
    let n = late_ns.len();
    if n < 50 {
        return false;
    }
    let fifth = n / 5;
    let median = |s: &[u64]| crate::stats::Sample::new(s.to_vec()).p(0.5);
    let earlier = median(&late_ns[n - 2 * fifth..n - fifth]);
    let later = median(&late_ns[n - fifth..]);
    later > earlier + 1_000_000 && later > 5_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(rate: u64, n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 1_000_000_000 / rate).collect()
    }

    /// The coordinated-omission test: a 200 ms stall in the service must
    /// show in the latency of *every* request that came due during it,
    /// not only in the one request that hit it.
    #[test]
    fn a_stall_is_charged_to_every_queued_request() {
        let due = schedule(1_000, 600);
        let log = open_loop(Instant::now(), &due, |i, _| {
            if i == 100 {
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        // 200 requests came due during the stall; each waited for the
        // remainder of it. Timed from send, only one would read slow.
        let slow = log.latency_ns.iter().filter(|&&ns| ns > 20_000_000).count();
        assert!(slow >= 150, "only {slow} requests show the stall");
        let from_send = log
            .latency_ns
            .iter()
            .zip(&log.late_ns)
            .filter(|(l, late)| *l - *late > 20_000_000)
            .count();
        assert_eq!(from_send, 1, "timed from send, the stall hides");
        // It drained: the tail of the run is on schedule again.
        assert!(log.late_ns[500..].iter().all(|&ns| ns < 20_000_000));
        assert!(!backlog_growing(&log.late_ns));
    }

    #[test]
    fn an_under_provisioned_service_trips_the_backlog_detector() {
        // 1 000 due per second against a service that takes 2 ms each.
        let due = schedule(1_000, 400);
        let log = open_loop(Instant::now(), &due, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(backlog_growing(&log.late_ns));
        // A service that keeps up does not.
        let due = schedule(200, 100);
        let log = open_loop(Instant::now(), &due, |_, _| {});
        assert!(!backlog_growing(&log.late_ns));
    }
}
