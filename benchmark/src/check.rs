//! The oracles answers and final state are held to.
//!
//! * [`Reference`] — one in-memory `RspService` holding the whole
//!   preload, published once. In a fixed-count phase every request is
//!   fed to it as well and every response must be equal; its answers to
//!   every query and entity of the world are the table `read_mix`
//!   compares each read against.
//! * [`expected_state`] — the preload plus every upload the cluster
//!   acknowledged, replayed into one `HistoryStore` per hash range: the
//!   `state_digest` each range's primary directory and follower copy
//!   must both scan to. The real-process and the in-process topology are
//!   held to the same oracle, which is what guards the duplicated wiring.

use crate::gen::Dataset;
use crate::load::{Accepted, Expected};
use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_crypto::RsaPublicKey;
use orsp_net::{Request, RspService, ServiceConfig};
use orsp_server::{HistoryStore, IngestService, IngestStats};
use orsp_storage::{scan_source, state_digest, FsDir};
use orsp_world::World;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// The in-memory reference node.
pub struct Reference {
    /// Holds the full preload; never durable, never restarted.
    pub service: Arc<RspService>,
    /// Its answer to every query and entity, taken right after publish.
    pub expected: Expected,
    /// The mint's verifying key (same seed ⇒ the cluster's key).
    pub public: RsaPublicKey,
}

impl Reference {
    /// Build the reference over `data` and precompute the answer table.
    pub fn build(world: &World, data: &Dataset) -> Reference {
        let store = data.stores_by_range(1).pop().expect("one range");
        let stats = IngestStats {
            accepted: data.preload_interactions(),
            ..IngestStats::default()
        };
        let service = Arc::new(service_for_world_sharded(
            world,
            &PipelineConfig::default(),
            IngestService::from_parts(store, stats),
            None,
            ServiceConfig::default().ingest_shards,
        ));
        service.publish_aggregates();
        let expected = Expected {
            search: data
                .queries
                .iter()
                .map(|&query| service.handle(Request::Search { query }))
                .collect(),
            fetch: data
                .entities
                .iter()
                .map(|&entity| service.handle(Request::FetchAggregate { entity }))
                .collect(),
        };
        let public = service.mint_public_key();
        Reference {
            service,
            expected,
            public,
        }
    }
}

/// `(state_digest, histories)` each of `ranges` hash ranges must hold
/// after the preload and the `accepted` uploads.
pub fn expected_state(data: &Dataset, accepted: &[Accepted], ranges: usize) -> Vec<(u32, usize)> {
    let mut stores = data.stores_by_range(ranges);
    let mut spent: Vec<HashSet<[u8; 32]>> = vec![HashSet::new(); ranges];
    for a in accepted {
        let range = orsp_core::shard_index(a.record_id.as_bytes(), ranges);
        stores[range]
            .append(a.record_id, a.entity, a.interaction)
            .expect("an acknowledged upload replays cleanly");
        spent[range].insert(a.ledger_key);
    }
    stores.iter().zip(&spent).map(digest_of).collect()
}

fn digest_of((store, spent): (&HistoryStore, &HashSet<[u8; 32]>)) -> (u32, usize) {
    // Reject counters are node-local noise outside the replication
    // contract (failover_e2e digests the same way).
    (
        state_digest(store, &IngestStats::default(), spent),
        store.len(),
    )
}

/// `(state_digest, histories)` of a data directory, read without
/// writing anything.
pub fn dir_state(path: &Path) -> (u32, usize) {
    let scan = scan_source(&FsDir::open(path).expect("open data dir"))
        .unwrap_or_else(|e| panic!("scan {}: {e}", path.display()));
    digest_of((&scan.store, &scan.spent_tokens))
}
