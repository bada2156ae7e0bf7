//! The service router: one `handle(Request) -> Response` facade over the
//! server-side substrates (token mint, ingest shards, aggregate
//! publisher, search index).
//!
//! Server state is partitioned into three independently synchronized
//! domains, so no RPC ever takes a lock wider than what it touches:
//!
//! * **Mint domain** — the token mint behind its own lock; only the
//!   issue path's per-device accounting runs under it (RSA signing is
//!   pure and happens outside). The verifying key is cached at
//!   construction, so upload-path signature checks and
//!   [`RspService::mint_public_key`] take no lock at all.
//! * **Read domain** — search index, ranker, explicit/inferred review
//!   histograms, *and the published entity aggregates*, immutable
//!   behind an `Arc` snapshot. Readers clone the `Arc` (one brief cell
//!   lock) and work lock-free: `FetchAggregate` and per-hit search
//!   detail never touch a store-shard lock.
//!   [`RspService::publish_inferred`] and
//!   [`RspService::publish_aggregates`] each swap in a fresh snapshot.
//! * **Ingest domain** — [`ShardedIngest`]: spend ledger sharded by
//!   token ledger key, history store sharded by `shard_index(record_id)`,
//!   and per-shard group commit so concurrent uploads on a shard share
//!   one fsync and no flush ever blocks reads, token issuance, or
//!   other shards.
//!
//! Request handling stays deterministic given each device's request
//! sequence: rate-limit accounting is per-device, RSA signing and
//! verification are pure functions, double-spend is first-presentation-
//! wins on a single ledger shard, and every counter is an
//! order-independent sum — now per shard, which is the property the
//! served pipeline's digest-equality test leans on.
//!
//! Lock order (debug-asserted via `orsp_server::lockorder`): mint →
//! ledger shard → store shard → group commit → group queue, never
//! reversed.

use crate::wire::{Request, Response, SearchHit};
use orsp_crypto::blind::{try_sign_blinded, verify_unblinded};
use orsp_crypto::{RsaPublicKey, TokenMint};
use orsp_obs::{trace, Counter, Histogram, Registry, TraceContext};
use orsp_search::{InferredSummary, Ranker, ReviewSummary, SearchIndex, SearchQuery};
use orsp_server::{
    lockorder::{self, rank},
    AggregateParts, EntityAggregate, GroupCommitConfig, IngestOutcome, IngestService,
    IngestStats, RejectReason, ShardedIngest, SupportParts, WalBatchItem, WalSink,
    MIN_AGGREGATE_SUPPORT,
};
use orsp_types::{EntityId, RecordId, StarHistogram};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Router tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// k-anonymity floor: aggregates (and per-hit support detail) for
    /// entities with fewer anonymous histories are suppressed.
    pub min_aggregate_support: usize,
    /// Cap on search hits per response.
    pub max_search_results: usize,
    /// Shard count for the ingest domain (spend ledger + history store).
    /// Align with the storage engine's shard count so each ingest shard
    /// appends to exactly its own on-disk segment log.
    pub ingest_shards: usize,
}

/// Most completed traces one `Traces` RPC returns (the tracer's
/// completed queue is itself bounded; draining moves records out, so a
/// poller sees each trace exactly once).
const TRACES_RPC_LIMIT: usize = 16;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            min_aggregate_support: MIN_AGGREGATE_SUPPORT,
            max_search_results: 20,
            ingest_shards: 8,
        }
    }
}

/// How a [`ReplicaHook`] answered a cluster-internal `Replicate` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicateOutcome {
    /// The batch (or promotion) was durably applied.
    Applied {
        /// The hook's epoch for the range after applying.
        epoch: u64,
        /// Entries applied from this batch.
        applied: u64,
        /// The node just became primary for the range — the router
        /// republishes aggregates so the absorbed range is servable.
        promoted: bool,
    },
    /// Refused: the hook holds a strictly higher epoch for the range.
    /// The fencing signal a stale rejoining primary demotes itself on.
    Stale {
        /// The hook's current epoch.
        current: u64,
    },
    /// The hook could not apply the batch (I/O failure on the range's
    /// engine). Surfaced as a `Response::Error`, never swallowed.
    Failed(String),
}

/// Replication integration points, implemented by `orsp-replica`'s node
/// runtime and attached via [`RspService::set_replica`]. The router owns
/// dispatch and the ingest domain; the hook owns per-range epochs,
/// follower engines, and the catch-up scanner — it receives the ingest
/// domain by reference at call time so promotion can fold a followed
/// range's records into the serving store.
pub trait ReplicaHook: Send + Sync {
    /// Gate the public upload path: refuse writes for a range this node
    /// no longer serves as primary (demoted after a fenced rejoin),
    /// *before* the token is spent. `Err` carries the refusal to send.
    fn pre_upload(&self, record_id: &RecordId) -> Result<(), Response>;

    /// Apply one cluster-internal `Replicate` batch (or promotion).
    fn apply_replicate(
        &self,
        ingest: &ShardedIngest,
        range: u32,
        epoch: u64,
        promote: bool,
        items: &[WalBatchItem],
    ) -> ReplicateOutcome;

    /// Serve one chunk of a `CatchUp` stream for a range this node
    /// holds (as primary or follower — the reply says which).
    fn serve_catch_up(&self, ingest: &ShardedIngest, range: u32, cursor: u64) -> Response;
}

/// The read domain: everything search needs, immutable behind one `Arc`.
/// Queries run against whichever snapshot they grabbed; publishing new
/// inferences builds the next snapshot and swaps the cell.
struct ReadState {
    index: SearchIndex,
    ranker: Ranker,
    explicit: HashMap<EntityId, StarHistogram>,
    inferred: HashMap<EntityId, StarHistogram>,
    /// Entity aggregates as of the last [`RspService::publish_aggregates`]
    /// call, floor-unfiltered (the k-anonymity floor is applied at read
    /// time, so retuning the floor needs no republish) and kept in the
    /// mergeable [`AggregateParts`] form so the cluster-internal
    /// `AggregateParts` RPC can export exact partials for a front-door
    /// proxy to merge. Empty until the first publish — aggregates are a
    /// published product, like inferences, not a live view of the store.
    aggregates: HashMap<EntityId, AggregateParts>,
}

/// Pre-resolved metric handles for the request hot path: one registry
/// lock at construction, lock-free recording per RPC thereafter.
struct RouterMetrics {
    rpc_ping_us: Histogram,
    rpc_issue_token_us: Histogram,
    rpc_upload_us: Histogram,
    rpc_fetch_aggregate_us: Histogram,
    rpc_search_us: Histogram,
    rpc_stats_us: Histogram,
    rpc_traces_us: Histogram,
    rpc_aggregate_parts_us: Histogram,
    rpc_aggregate_parts_batch_us: Histogram,
    rpc_replicate_us: Histogram,
    rpc_catch_up_us: Histogram,
    rpc_search_parts_us: Histogram,
    /// The RSA halves of `IssueToken` and `Upload`: one blind signature,
    /// one token verification.
    mint_sign_us: Histogram,
    upload_verify_us: Histogram,
    mint_issued_total: Counter,
    mint_denied_total: Counter,
    ingest_accepted_total: Counter,
    ingest_bad_token_total: Counter,
    ingest_double_spend_total: Counter,
    ingest_bad_record_total: Counter,
    ingest_entity_mismatch_total: Counter,
    durability_errors_total: Counter,
}

impl RouterMetrics {
    fn resolve(obs: &Registry) -> Self {
        RouterMetrics {
            rpc_ping_us: obs.histogram("rpc_ping_us"),
            rpc_issue_token_us: obs.histogram("rpc_issue_token_us"),
            rpc_upload_us: obs.histogram("rpc_upload_us"),
            rpc_fetch_aggregate_us: obs.histogram("rpc_fetch_aggregate_us"),
            rpc_search_us: obs.histogram("rpc_search_us"),
            rpc_stats_us: obs.histogram("rpc_stats_us"),
            rpc_traces_us: obs.histogram("rpc_traces_us"),
            rpc_aggregate_parts_us: obs.histogram("rpc_aggregate_parts_us"),
            rpc_aggregate_parts_batch_us: obs.histogram("rpc_aggregate_parts_batch_us"),
            rpc_replicate_us: obs.histogram("rpc_replicate_us"),
            rpc_catch_up_us: obs.histogram("rpc_catch_up_us"),
            rpc_search_parts_us: obs.histogram("rpc_search_parts_us"),
            mint_sign_us: obs.histogram("mint_sign_us"),
            upload_verify_us: obs.histogram("upload_verify_us"),
            mint_issued_total: obs.counter("mint_issued_total"),
            mint_denied_total: obs.counter("mint_denied_total"),
            ingest_accepted_total: obs.counter("ingest_accepted_total"),
            ingest_bad_token_total: obs.counter("ingest_bad_token_total"),
            ingest_double_spend_total: obs.counter("ingest_double_spend_total"),
            ingest_bad_record_total: obs.counter("ingest_bad_record_total"),
            ingest_entity_mismatch_total: obs.counter("ingest_entity_mismatch_total"),
            durability_errors_total: obs.counter("durability_errors_total"),
        }
    }

    fn reject_counter(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::BadToken => &self.ingest_bad_token_total,
            RejectReason::DoubleSpend => &self.ingest_double_spend_total,
            RejectReason::BadRecord => &self.ingest_bad_record_total,
            RejectReason::EntityMismatch => &self.ingest_entity_mismatch_total,
        }
    }
}

/// The wire-facing RSP service: every RPC lands here.
pub struct RspService {
    /// Mint domain: per-device issuance accounting. RSA signing happens
    /// outside this lock via the mint's shared keypair handle.
    mint: Mutex<TokenMint>,
    /// The mint's verifying key, cached so the upload path and
    /// [`Self::mint_public_key`] never touch the mint lock.
    mint_public: RsaPublicKey,
    /// Read domain snapshot cell: locked only long enough to clone or
    /// swap the `Arc`, never while any other lock is held.
    read: Mutex<Arc<ReadState>>,
    /// Ingest domain: sharded admission, per-shard WAL-order handoff.
    ingest: ShardedIngest,
    /// Replication integration, when an `orsp-replica` runtime is
    /// attached: cell-locked only long enough to clone the `Arc`.
    replica: Mutex<Option<Arc<dyn ReplicaHook>>>,
    config: ServiceConfig,
    obs: Arc<Registry>,
    metrics: RouterMetrics,
}

impl RspService {
    /// A service over a token mint, a search index, and the explicit
    /// review histograms the index ranks with. The history store starts
    /// empty — it fills from `Upload` requests.
    pub fn new(
        mint: TokenMint,
        index: SearchIndex,
        explicit: HashMap<EntityId, StarHistogram>,
        ranker: Ranker,
        config: ServiceConfig,
    ) -> Self {
        Self::with_ingest(mint, index, explicit, ranker, config, IngestService::new())
    }

    /// A service whose history store starts from `ingest` — how a
    /// daemon resumes serving after crash recovery rebuilt its state
    /// from the durable log.
    pub fn with_ingest(
        mint: TokenMint,
        index: SearchIndex,
        explicit: HashMap<EntityId, StarHistogram>,
        ranker: Ranker,
        config: ServiceConfig,
        ingest: IngestService,
    ) -> Self {
        let obs = Arc::new(Registry::new());
        obs.tracer().set_process("server");
        let metrics = RouterMetrics::resolve(&obs);
        let mint_public = mint.public_key().clone();
        RspService {
            mint: Mutex::new(mint),
            mint_public,
            read: Mutex::new(Arc::new(ReadState {
                index,
                ranker,
                explicit,
                inferred: HashMap::new(),
                aggregates: HashMap::new(),
            })),
            ingest: ShardedIngest::from_service(ingest, config.ingest_shards),
            replica: Mutex::new(None),
            config,
            obs,
            metrics,
        }
    }

    /// Attach a replication runtime: the upload path gains the demoted-
    /// range gate and the cluster-internal `Replicate`/`CatchUp` RPCs
    /// start being served instead of refused.
    pub fn set_replica(&self, hook: Arc<dyn ReplicaHook>) {
        *self.replica.lock() = Some(hook);
    }

    fn replica_hook(&self) -> Option<Arc<dyn ReplicaHook>> {
        self.replica.lock().clone()
    }

    /// Grab the current read-domain snapshot (one brief cell lock, then
    /// lock-free use).
    fn read_snapshot(&self) -> Arc<ReadState> {
        Arc::clone(&self.read.lock())
    }

    /// Attach a durability sink: from now on every accepted upload is
    /// logged through it before the `UploadAccepted` response exists.
    ///
    /// Failure semantics: a sink error after admission produces
    /// `Response::Error` meaning *applied but possibly not durable* —
    /// the token is spent and the interaction is stored in memory, so a
    /// client retrying with a fresh token would append the interaction
    /// twice. The error is a durability warning, not a rejection.
    pub fn set_durability(&self, sink: Arc<dyn WalSink>) {
        self.ingest.set_wal(sink);
    }

    /// [`Self::set_durability`] with explicit group-commit tuning — the
    /// daemon threads its `--group-commit*` flags through here.
    pub fn set_durability_with(&self, sink: Arc<dyn WalSink>, config: GroupCommitConfig) {
        self.ingest.set_wal_with(sink, config);
    }

    /// Seed the spend ledger with keys recovered from the durable log
    /// (see [`ShardedIngest::seed_spent_tokens`]).
    pub fn seed_spent_tokens<I: IntoIterator<Item = [u8; 32]>>(&self, keys: I) {
        self.ingest.seed_spent_tokens(keys);
    }

    /// Snapshot of every spent-token ledger key — folded into the
    /// checkpoint at drain so spends stay durable past log truncation.
    pub fn spent_tokens(&self) -> HashSet<[u8; 32]> {
        self.ingest.spent_tokens()
    }

    /// Times any store-shard lock has been acquired (ingest and publish
    /// paths; the served read path must never move this).
    pub fn store_lock_acquisitions(&self) -> u64 {
        self.ingest.store_lock_acquisitions()
    }

    /// This service's metric registry. The `NetServer` fronting the
    /// service records its accept/shed/protocol counters here too, so a
    /// `Stats` RPC reports the whole daemon in one snapshot.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Publish inferred-opinion histograms (e.g. after an inference pass)
    /// so search ranking blends them in. Builds the next read snapshot
    /// and swaps it; in-flight searches finish against the old one.
    pub fn publish_inferred(&self, inferred: HashMap<EntityId, StarHistogram>) {
        let _span = trace::child("publish_snapshot");
        let mut cell = self.read.lock();
        let next = ReadState {
            index: cell.index.clone(),
            ranker: cell.ranker,
            explicit: cell.explicit.clone(),
            inferred,
            aggregates: cell.aggregates.clone(),
        };
        *cell = Arc::new(next);
    }

    /// Rebuild every entity's aggregate from the ingest shards and swap
    /// it into the read snapshot. This is the only path that computes
    /// aggregates from the store: `FetchAggregate` and search hits read
    /// the snapshot, so serving them costs zero store-shard locks. Run
    /// after ingest bursts (the daemon does, alongside inference) —
    /// uploads between publishes are visible in stats but not in
    /// aggregates, exactly like inferences.
    ///
    /// Shard by shard the publish takes brief store locks, then one
    /// brief cell lock for the swap; in-flight reads finish against the
    /// old snapshot.
    pub fn publish_aggregates(&self) {
        let _span = trace::child("publish_snapshot");
        let aggregates = self.ingest.aggregate_parts();
        let mut cell = self.read.lock();
        let next = ReadState {
            index: cell.index.clone(),
            ranker: cell.ranker,
            explicit: cell.explicit.clone(),
            inferred: cell.inferred.clone(),
            aggregates,
        };
        *cell = Arc::new(next);
    }

    /// Handle one decoded request, recording per-RPC latency and outcome
    /// counters into the service registry.
    pub fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }

    /// [`Self::handle`] continuing the caller's distributed trace: the
    /// whole RPC becomes a `server/<kind>` span parented under the
    /// context the frame arrived with (or a new root for direct calls,
    /// subject to the tracer's sampling).
    pub fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        let (hist, name) = match &request {
            Request::Ping => (&self.metrics.rpc_ping_us, "server/ping"),
            Request::IssueToken { .. } => {
                (&self.metrics.rpc_issue_token_us, "server/issue_token")
            }
            Request::Upload { .. } => (&self.metrics.rpc_upload_us, "server/upload"),
            Request::FetchAggregate { .. } => {
                (&self.metrics.rpc_fetch_aggregate_us, "server/fetch_aggregate")
            }
            Request::Search { .. } => (&self.metrics.rpc_search_us, "server/search"),
            Request::Stats => (&self.metrics.rpc_stats_us, "server/stats"),
            Request::Traces => (&self.metrics.rpc_traces_us, "server/traces"),
            Request::AggregateParts { .. } => {
                (&self.metrics.rpc_aggregate_parts_us, "server/aggregate_parts")
            }
            Request::AggregatePartsBatch { .. } => {
                (&self.metrics.rpc_aggregate_parts_batch_us, "server/aggregate_parts_batch")
            }
            Request::Replicate { .. } => (&self.metrics.rpc_replicate_us, "server/replicate"),
            Request::CatchUp { .. } => (&self.metrics.rpc_catch_up_us, "server/catch_up"),
            Request::SearchParts { .. } => {
                (&self.metrics.rpc_search_parts_us, "server/search_parts")
            }
        };
        let span = self.obs.span_into(hist);
        let trace_span = self.obs.tracer().root_or_remote(ctx, name);
        let response = self.dispatch(request);
        trace_span.end();
        span.end();
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::IssueToken { device, blinded, now } => {
                // Mint domain only: per-device accounting under the lock,
                // the (expensive, pure) RSA signing outside it.
                let keypair = {
                    let _rank = lockorder::enter(rank::MINT);
                    let mut mint = self.mint.lock();
                    match mint.authorize(device, now) {
                        Ok(()) => mint.keypair_handle(),
                        Err(e) => {
                            drop(mint);
                            drop(_rank);
                            self.metrics.mint_denied_total.inc();
                            return Response::TokenDenied { reason: e.to_string() };
                        }
                    }
                };
                let sign_span = self.obs.span_into(&self.metrics.mint_sign_us);
                let signed = try_sign_blinded(&keypair, &blinded);
                sign_span.end();
                match signed {
                    Ok(signature) => {
                        self.metrics.mint_issued_total.inc();
                        Response::TokenIssued { signature }
                    }
                    Err(e) => Response::Error { detail: e.to_string() },
                }
            }
            Request::Upload { upload, now: _ } => {
                // A demoted range refuses writes *before* the token is
                // spent — a client hitting a fenced stale primary loses
                // nothing and retries against the current one.
                if let Some(hook) = self.replica_hook() {
                    if let Err(refusal) = hook.pre_upload(&upload.record_id) {
                        return refusal;
                    }
                }
                // No lock for the signature check (pure RSA against the
                // cached key), then the ingest domain routes to the
                // token's ledger shard and the record's store shard.
                let verify_span = self.obs.span_into(&self.metrics.upload_verify_us);
                let valid = verify_unblinded(
                    &self.mint_public,
                    &upload.token.message,
                    &upload.token.signature,
                );
                verify_span.end();
                match self.ingest.ingest_verified(&upload, valid) {
                    IngestOutcome::Accepted => {
                        self.metrics.ingest_accepted_total.inc();
                        Response::UploadAccepted
                    }
                    IngestOutcome::AcceptedNotDurable(e) => {
                        // The upload is applied in memory (the token is
                        // spent, the interaction is stored) but may not
                        // survive a restart. Surface that honestly; the
                        // client must NOT retry with a fresh token — the
                        // retry would be a second append, not a
                        // replacement.
                        self.metrics.ingest_accepted_total.inc();
                        self.metrics.durability_errors_total.inc();
                        Response::Error {
                            detail: format!(
                                "durability failure (upload applied but \
                                 possibly not durable; do not retry): {e}"
                            ),
                        }
                    }
                    IngestOutcome::Rejected(reason) => {
                        self.metrics.reject_counter(reason).inc();
                        Response::UploadRejected { reason }
                    }
                }
            }
            Request::FetchAggregate { entity } => {
                let snapshot = self.read_snapshot();
                Response::Aggregate { aggregate: self.aggregate_from(&snapshot, entity) }
            }
            Request::Search { query } => {
                let snapshot = self.read_snapshot();
                let floor = self.config.min_aggregate_support;
                Response::SearchResults {
                    hits: self
                        .ranked_hits(&snapshot, &query)
                        .into_iter()
                        .map(|(mut hit, support)| {
                            (hit.histories, hit.repeat_fraction) = support.published(floor);
                            hit
                        })
                        .collect(),
                }
            }
            Request::SearchParts { query } => {
                // Cluster-internal scatter-gather leg, floor-unfiltered
                // like `AggregateParts`: the proxy floors the summed
                // support. Hits and support come from one snapshot, so
                // they cannot straddle a publish.
                let snapshot = self.read_snapshot();
                let (hits, support) = self.ranked_hits(&snapshot, &query).into_iter().unzip();
                Response::SearchParts { hits, support }
            }
            Request::Stats => Response::Stats { snapshot: self.obs.snapshot() },
            Request::Traces => Response::Traces {
                traces: self.obs.tracer().drain_completed(TRACES_RPC_LIMIT),
            },
            Request::AggregateParts { entity } => {
                // Cluster-internal scatter-gather leg: deliberately
                // floor-unfiltered — the proxy applies the k-anonymity
                // floor to the *merged* support, the only place the true
                // total is known. Deployments restrict this RPC to the
                // proxy tier.
                let snapshot = self.read_snapshot();
                Response::AggregateParts {
                    parts: snapshot.aggregates.get(&entity).cloned(),
                }
            }
            Request::AggregatePartsBatch { entities } => {
                // One snapshot for the whole batch: every answered
                // entity comes from the same publish generation, so the
                // proxy's per-hit merges cannot mix generations.
                let snapshot = self.read_snapshot();
                Response::AggregatePartsBatch {
                    parts: entities
                        .iter()
                        .map(|entity| snapshot.aggregates.get(entity).cloned())
                        .collect(),
                }
            }
            Request::Replicate { range, epoch, promote, items } => {
                let Some(hook) = self.replica_hook() else {
                    return Response::Error { detail: "replication not enabled".into() };
                };
                match hook.apply_replicate(&self.ingest, range, epoch, promote, &items) {
                    ReplicateOutcome::Applied { epoch, applied, promoted } => {
                        if promoted {
                            // The hook folded the followed range into the
                            // ingest domain; republish so reads serve it.
                            self.publish_aggregates();
                        }
                        Response::ReplicateAck { epoch, applied }
                    }
                    ReplicateOutcome::Stale { current } => {
                        Response::StaleEpoch { range, current }
                    }
                    ReplicateOutcome::Failed(detail) => Response::Error { detail },
                }
            }
            Request::CatchUp { range, cursor } => {
                let Some(hook) = self.replica_hook() else {
                    return Response::Error { detail: "replication not enabled".into() };
                };
                hook.serve_catch_up(&self.ingest, range, cursor)
            }
        }
    }

    /// Handle one encoded frame: decode, dispatch, encode. Decode
    /// failures come back as an encoded `Error` response — a server never
    /// answers a sound frame with silence.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        match Request::decode(frame) {
            Ok(request) => self.handle(request).encode(),
            Err(e) => Response::Error { detail: e.to_string() }.encode(),
        }
    }

    /// Rank `query` against one snapshot: the truncated hit list, support
    /// fields left at zero, each hit paired with the entity's local
    /// unfloored support counts. A pure lookup — ranking reads only the
    /// star histograms, and support is two integers per hit; no effort
    /// point is cloned or sorted on the search path.
    fn ranked_hits(
        &self,
        snapshot: &ReadState,
        query: &SearchQuery,
    ) -> Vec<(SearchHit, SupportParts)> {
        let candidates: Vec<(EntityId, ReviewSummary, InferredSummary)> = snapshot
            .index
            .query(query)
            .into_iter()
            .map(|listing| {
                let histogram = |of: &HashMap<EntityId, StarHistogram>| {
                    of.get(&listing.id).cloned().unwrap_or_default()
                };
                (
                    listing.id,
                    ReviewSummary { histogram: histogram(&snapshot.explicit) },
                    InferredSummary {
                        histogram: histogram(&snapshot.inferred),
                        ..InferredSummary::default()
                    },
                )
            })
            .collect();
        let mut ranked = snapshot.ranker.rank(candidates);
        ranked.truncate(self.config.max_search_results);
        ranked
            .into_iter()
            .map(|r| {
                let support = snapshot
                    .aggregates
                    .get(&r.entity)
                    .map(AggregateParts::support)
                    .unwrap_or_default();
                let hit = SearchHit {
                    entity: r.entity,
                    score: r.score,
                    explicit: r.explicit.histogram,
                    inferred: r.inferred.histogram,
                    histories: 0,
                    repeat_fraction: 0.0,
                };
                (hit, support)
            })
            .collect()
    }

    /// The entity's published aggregate if it clears the k-anonymity
    /// floor — a snapshot read, no store lock. Aggregates in the
    /// snapshot were accumulated in record-id order at publish time, so
    /// they are bit-identical to computing over a merged store. Clones
    /// and sorts every effort point: `FetchAggregate` only.
    fn aggregate_from(
        &self,
        snapshot: &ReadState,
        entity: EntityId,
    ) -> Option<EntityAggregate> {
        snapshot
            .aggregates
            .get(&entity)
            .filter(|parts| parts.histories as usize >= self.config.min_aggregate_support)
            .map(AggregateParts::finalize)
    }

    /// The mint's public (verifying) key — distributed to devices out of
    /// band in a deployment; exposed here so wallets and examples can
    /// bootstrap. Reads the cached copy; no lock.
    pub fn mint_public_key(&self) -> orsp_crypto::RsaPublicKey {
        self.mint_public.clone()
    }

    /// Ingest counters so far (atomic sums; no lock).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest.stats()
    }

    /// Number of ingest shards (matches `ServiceConfig::ingest_shards`).
    pub fn ingest_shards(&self) -> usize {
        self.ingest.shard_count()
    }

    /// Which ingest shard owns a record id — exposed so tests can build
    /// shard-targeted workloads.
    pub fn shard_of(&self, record_id: &orsp_types::RecordId) -> usize {
        self.ingest.shard_of(record_id)
    }

    /// Total blind signatures issued.
    pub fn tokens_issued(&self) -> u64 {
        let _rank = lockorder::enter(rank::MINT);
        self.mint.lock().issued_total()
    }

    /// Tear the service down into its mint and ingest service — the state
    /// a served pipeline needs back to finish its analytics stages. The
    /// ingest shards collapse back into one store.
    pub fn into_parts(self) -> (TokenMint, IngestService) {
        let mint = self.mint.into_inner();
        let (store, stats) = self.ingest.into_merged();
        (mint, IngestService::from_parts(store, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_crypto::{BlindingSession, Token, TokenWallet};
    use orsp_types::rng::rng_for;
    use rand::Rng;
    use orsp_types::{DeviceId, SimDuration, Timestamp};

    fn service(tokens_per_window: u32) -> RspService {
        let mut rng = rng_for(7, "router-test");
        let mint = TokenMint::new(&mut rng, 256, tokens_per_window, SimDuration::DAY);
        RspService::new(
            mint,
            SearchIndex::build(Vec::new()),
            HashMap::new(),
            Ranker::default(),
            ServiceConfig::default(),
        )
    }

    #[test]
    fn ping_pong() {
        let svc = service(4);
        assert_eq!(svc.handle(Request::Ping), Response::Pong);
    }

    #[test]
    fn issue_until_rate_limited() {
        let svc = service(2);
        let mut rng = rng_for(8, "router-test-client");
        let device = DeviceId::new(1);
        let public = svc.mint_public_key();
        for attempt in 0..3 {
            let mut message = [0u8; 32];
            rng.fill(&mut message);
            let (session, blinded) = BlindingSession::blind(&mut rng, &public, &message);
            let response = svc.handle(Request::IssueToken {
                device,
                blinded,
                now: Timestamp::EPOCH,
            });
            match response {
                Response::TokenIssued { signature } if attempt < 2 => {
                    session.unblind(&signature).expect("signature verifies");
                }
                Response::TokenDenied { .. } if attempt == 2 => {}
                other => panic!("attempt {attempt}: unexpected {other:?}"),
            }
        }
        assert_eq!(svc.tokens_issued(), 2);
    }

    #[test]
    fn upload_rejects_forged_token() {
        let svc = service(4);
        let upload = orsp_client::UploadRequest {
            record_id: orsp_types::RecordId::from_bytes([9; 32]),
            entity: EntityId::new(1),
            interaction: orsp_types::Interaction {
                kind: orsp_types::InteractionKind::Visit,
                start: Timestamp::EPOCH,
                duration: SimDuration::minutes(30),
                distance_travelled_m: 100.0,
                group_size: 1,
            },
            token: Token {
                message: [0; 32],
                signature: orsp_crypto::BigUint::from_u64(12345),
            },
            release_at: Timestamp::EPOCH,
        };
        assert_eq!(
            svc.handle(Request::Upload { upload, now: Timestamp::EPOCH }),
            Response::UploadRejected { reason: orsp_server::RejectReason::BadToken }
        );
        assert_eq!(svc.ingest_stats().bad_token, 1);
    }

    #[test]
    fn upload_rejects_a_non_canonical_signature() {
        // sig + n passes `sig^e ≡ h (mod n)` but is not the signature the
        // mint issued; it must be refused like a forgery, and the honest
        // token stays spendable.
        let svc = service(4);
        let public = svc.mint_public_key();
        let mut rng = rng_for(10, "router-test-alias");
        let mut wallet = TokenWallet::new(DeviceId::new(4), public.clone());
        wallet.request_token(&mut rng, &mut ServiceIssuer(&svc), Timestamp::EPOCH).unwrap();
        let token = wallet.take_token().unwrap();
        let upload = |token: Token| orsp_client::UploadRequest {
            record_id: orsp_types::RecordId::from_bytes([2; 32]),
            entity: EntityId::new(1),
            interaction: orsp_types::Interaction {
                kind: orsp_types::InteractionKind::Visit,
                start: Timestamp::EPOCH,
                duration: SimDuration::minutes(30),
                distance_travelled_m: 100.0,
                group_size: 1,
            },
            token,
            release_at: Timestamp::EPOCH,
        };
        let alias = Token { signature: token.signature.add(&public.n), ..token.clone() };
        assert_eq!(
            svc.handle(Request::Upload { upload: upload(alias), now: Timestamp::EPOCH }),
            Response::UploadRejected { reason: orsp_server::RejectReason::BadToken }
        );
        assert_eq!(
            svc.handle(Request::Upload { upload: upload(token), now: Timestamp::EPOCH }),
            Response::UploadAccepted
        );
        // Both RSA halves are timed into their own histograms.
        let Response::Stats { snapshot } = svc.handle(Request::Stats) else {
            panic!("Stats answers with a snapshot");
        };
        assert_eq!(snapshot.histogram("mint_sign_us").map(|h| h.count), Some(1));
        assert_eq!(snapshot.histogram("upload_verify_us").map(|h| h.count), Some(2));
    }

    #[test]
    fn valid_upload_lands_in_store_and_aggregate_floor_holds() {
        let svc = service(16);
        let public = svc.mint_public_key();
        let mut rng = rng_for(9, "router-test-upload");
        let device = DeviceId::new(3);
        let mut wallet = TokenWallet::new(device, public);
        let entity = EntityId::new(77);
        // One upload: below the k-anonymity floor, so no aggregate.
        let mut issuer = ServiceIssuer(&svc);
        wallet.request_token(&mut rng, &mut issuer, Timestamp::EPOCH).unwrap();
        let upload = orsp_client::UploadRequest {
            record_id: orsp_types::RecordId::from_bytes([1; 32]),
            entity,
            interaction: orsp_types::Interaction {
                kind: orsp_types::InteractionKind::Visit,
                start: Timestamp::EPOCH,
                duration: SimDuration::minutes(45),
                distance_travelled_m: 900.0,
                group_size: 2,
            },
            token: wallet.take_token().unwrap(),
            release_at: Timestamp::EPOCH,
        };
        assert_eq!(
            svc.handle(Request::Upload { upload, now: Timestamp::EPOCH }),
            Response::UploadAccepted
        );
        assert_eq!(svc.ingest_stats().accepted, 1);
        svc.publish_aggregates();
        assert_eq!(
            svc.handle(Request::FetchAggregate { entity }),
            Response::Aggregate { aggregate: None },
            "one history is below the k-anonymity floor even once published"
        );
    }

    #[test]
    fn aggregates_serve_from_the_snapshot_without_store_locks() {
        let svc = service(64);
        let public = svc.mint_public_key();
        let mut rng = rng_for(11, "router-test-aggregate");
        let device = DeviceId::new(5);
        let mut wallet = TokenWallet::new(device, public);
        let entity = EntityId::new(42);
        for i in 0..MIN_AGGREGATE_SUPPORT as u8 {
            let start = Timestamp::from_seconds(i as i64 * 3600);
            upload_visit(&svc, &mut wallet, &mut rng, i + 1, entity, start);
        }
        // Not published yet: the snapshot has no aggregates, however many
        // histories the store holds.
        assert_eq!(
            svc.handle(Request::FetchAggregate { entity }),
            Response::Aggregate { aggregate: None }
        );
        svc.publish_aggregates();
        let locks_after_publish = svc.store_lock_acquisitions();
        let aggregate = match svc.handle(Request::FetchAggregate { entity }) {
            Response::Aggregate { aggregate: Some(agg) } => agg,
            other => panic!("expected a published aggregate, got {other:?}"),
        };
        assert_eq!(aggregate.histories, MIN_AGGREGATE_SUPPORT);
        // Serving aggregates (and searches) is pure snapshot work.
        for _ in 0..50 {
            svc.handle(Request::FetchAggregate { entity });
            svc.handle(Request::Search {
                query: orsp_search::parse_query("dentist near 19120").unwrap(),
            });
        }
        assert_eq!(
            svc.store_lock_acquisitions(),
            locks_after_publish,
            "read path must not take store-shard locks"
        );
    }

    #[test]
    fn search_parts_is_search_with_the_support_left_as_unfloored_integers() {
        // Two dentists in one zipcode: entity 1 gets exactly the floor's
        // worth of histories (two of them repeat visitors), entity 2 two
        // histories — below the floor.
        let query = orsp_search::parse_query("dentist near 19120").unwrap();
        let listing = |id: u64| orsp_search::Listing {
            id: EntityId::new(id),
            name: format!("dentist {id}"),
            category: query.category,
            location: orsp_types::GeoPoint::ORIGIN,
            zipcode: query.zipcode,
        };
        let mut rng = rng_for(13, "router-test-search-parts");
        let svc = RspService::new(
            TokenMint::new(&mut rng, 256, 64, SimDuration::DAY),
            SearchIndex::build(vec![listing(1), listing(2)]),
            HashMap::new(),
            Ranker::default(),
            ServiceConfig::default(),
        );
        let mut wallet = TokenWallet::new(DeviceId::new(5), svc.mint_public_key());
        let mut record = 0u8;
        for (entity, visits_per_history) in [(1, vec![2, 3, 1, 1, 1]), (2, vec![1, 2])] {
            for visits in visits_per_history {
                record += 1;
                for visit in 0..visits {
                    let start = Timestamp::from_seconds(visit * 86_400);
                    upload_visit(&svc, &mut wallet, &mut rng, record, EntityId::new(entity), start);
                }
            }
        }
        svc.publish_aggregates();

        let Response::SearchResults { hits: searched } = svc.handle(Request::Search { query })
        else {
            panic!("search did not answer hits");
        };
        let Response::SearchParts { hits, support } = svc.handle(Request::SearchParts { query })
        else {
            panic!("search parts did not answer hits");
        };
        // Equal scores (no reviews, no inferences): ties break by id.
        assert_eq!(searched.iter().map(|h| h.entity.raw()).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(
            support,
            vec![
                SupportParts { histories: 5, repeats: 2 },
                SupportParts { histories: 2, repeats: 1 }
            ],
            "the leg exports below-floor counts; the proxy floors the sum"
        );
        assert_eq!((searched[0].histories, searched[0].repeat_fraction), (5, 0.4));
        assert_eq!((searched[1].histories, searched[1].repeat_fraction), (0, 0.0));
        // Everything but the support fields is the same answer, and the
        // node's own support is what the fetched aggregate publishes.
        let unsupported: Vec<SearchHit> = searched
            .iter()
            .map(|h| SearchHit { histories: 0, repeat_fraction: 0.0, ..h.clone() })
            .collect();
        assert_eq!(hits, unsupported);
        match svc.handle(Request::FetchAggregate { entity: EntityId::new(1) }) {
            Response::Aggregate { aggregate: Some(agg) } => {
                assert_eq!(agg.histories as u64, searched[0].histories);
                assert_eq!(agg.repeat_fraction.to_bits(), searched[0].repeat_fraction.to_bits());
            }
            other => panic!("expected a published aggregate, got {other:?}"),
        }
    }

    /// Mint a token and upload one 20-minute visit to `entity` under the
    /// record id `[record; 32]`.
    fn upload_visit(
        svc: &RspService,
        wallet: &mut TokenWallet,
        rng: &mut impl Rng,
        record: u8,
        entity: EntityId,
        start: Timestamp,
    ) {
        wallet.request_token(rng, &mut ServiceIssuer(svc), Timestamp::EPOCH).unwrap();
        let upload = orsp_client::UploadRequest {
            record_id: orsp_types::RecordId::from_bytes([record; 32]),
            entity,
            interaction: orsp_types::Interaction {
                kind: orsp_types::InteractionKind::Visit,
                start,
                duration: SimDuration::minutes(20),
                distance_travelled_m: 250.0,
                group_size: 1,
            },
            token: wallet.take_token().unwrap(),
            release_at: Timestamp::EPOCH,
        };
        assert_eq!(
            svc.handle(Request::Upload { upload, now: Timestamp::EPOCH }),
            Response::UploadAccepted
        );
    }

    /// Issue tokens by calling the service directly (no transport).
    struct ServiceIssuer<'a>(&'a RspService);

    impl orsp_crypto::TokenIssuer for ServiceIssuer<'_> {
        fn issue(
            &mut self,
            device: DeviceId,
            blinded: &orsp_crypto::BlindedMessage,
            now: Timestamp,
        ) -> orsp_types::Result<orsp_crypto::BlindSignature> {
            match self.0.handle(Request::IssueToken {
                device,
                blinded: blinded.clone(),
                now,
            }) {
                Response::TokenIssued { signature } => Ok(signature),
                Response::TokenDenied { reason } => {
                    Err(orsp_types::OrspError::InvalidToken(reason))
                }
                other => Err(orsp_types::OrspError::Crypto(format!(
                    "unexpected response: {other:?}"
                ))),
            }
        }
    }
}
