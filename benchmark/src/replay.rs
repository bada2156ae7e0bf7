//! Seam replay: single-thread, fixed-count direct calls of each layer's
//! public functions on the workload's own generated inputs. These are
//! the per-layer numbers no span can separate from outside (RSA signing
//! inside the issue handler, the codec inside a hop) — counts are fixed,
//! so they compare across runs without a window's noise.

use crate::gen::{Dataset, OpStream};
use crate::load::{premint, Expected};
use orsp_client::UploadRequest;
use orsp_core::{service_for_world, PipelineConfig};
use orsp_crypto::blind::{sign_blinded, verify_unblinded};
use orsp_crypto::BlindingSession;
use orsp_net::{FrameAssembler, Request, Response, RspService};
use orsp_proxy::{merge_parts, search_consensus};
use orsp_server::{ShardedIngest, WalBatchItem, WalEntry};
use orsp_storage::{FsDir, StorageEngine};
use orsp_types::rng::rng_for_indexed;
use orsp_world::World;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Mean nanoseconds of `f` over `n` calls.
fn mean_ns<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Every replayed metric, by name.
pub fn run(
    world: &World,
    data: &Dataset,
    reference: &RspService,
    expected: &Expected,
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let seed = data.seed;
    let mut stream = OpStream::new(seed, 0, 1, 0x5EA);
    let ops: Vec<_> = (0..2_048).map(|_| stream.fresh(data, false)).collect();

    // --- crypto: the mint's and the device's halves, directly.
    let (mint, _) = service_for_world(world, &PipelineConfig::default()).into_parts();
    let keypair = mint.keypair_handle();
    let public = mint.public_key().clone();
    let mut rng = rng_for_indexed(seed, "bench-replay", 0);
    let n = 200;
    let mut sessions = Vec::with_capacity(n);
    let blind_ns = mean_ns(n, |i| {
        sessions.push(BlindingSession::blind(&mut rng, &public, &ops[i].message));
    });
    let mut signed = Vec::with_capacity(n);
    let sign_ns = mean_ns(n, |i| signed.push(sign_blinded(&keypair, &sessions[i].1)));
    let mut signatures = Vec::with_capacity(n);
    let mut pairs = sessions.into_iter().zip(&signed);
    let unblind_ns = mean_ns(n, |_| {
        let ((session, _), blind_signature) = pairs.next().expect("one per iteration");
        signatures.push(session.unblind(blind_signature).expect("honest mint"));
    });
    let verify_ns = mean_ns(n, |i| {
        assert!(verify_unblinded(&public, &ops[i].message, &signatures[i]))
    });
    out.extend([
        ("crypto.sign_us", sign_ns / 1e3),
        ("crypto.verify_us", verify_ns / 1e3),
        ("crypto.blind_us", blind_ns / 1e3),
        ("crypto.unblind_us", unblind_ns / 1e3),
    ]);

    // --- net: the codec and the frame assembler on real messages.
    let mint_service = service_for_world(world, &PipelineConfig::default());
    let uploads: Vec<UploadRequest> = ops
        .iter()
        .map(|op| UploadRequest {
            record_id: op.record_id,
            entity: op.entity,
            interaction: op.interaction,
            token: premint(&mint_service, &public, op),
            release_at: op.now,
        })
        .take(256)
        .collect();
    let upload_request = Request::Upload {
        upload: uploads[0].clone(),
        now: ops[0].now,
    };
    let upload_frame = upload_request.encode();
    // The search answer with the most hits: the costliest to carry.
    let search_response = expected
        .search
        .iter()
        .max_by_key(|r| r.encode().len())
        .expect("the world lists something")
        .clone();
    let search_frame = search_response.encode();
    let n = 5_000;
    out.extend([
        (
            "net.encode_upload_ns",
            mean_ns(n, |_| upload_request.encode()),
        ),
        (
            "net.decode_upload_ns",
            mean_ns(n, |_| Request::decode(&upload_frame).expect("decode")),
        ),
        (
            "net.encode_search_resp_ns",
            mean_ns(n, |_| search_response.encode()),
        ),
        (
            "net.decode_search_resp_ns",
            mean_ns(n, |_| Response::decode(&search_frame).expect("decode")),
        ),
        (
            "net.assemble_ns",
            mean_ns(n, |_| {
                FrameAssembler::new().feed(&upload_frame).expect("assemble")
            }),
        ),
        ("net.frame_bytes_upload", upload_frame.len() as f64),
        ("net.frame_bytes_search_resp", search_frame.len() as f64),
    ]);

    // --- proxy: the two merges, on the most popular entity's partials.
    let head = data.entities[0];
    if let Response::AggregateParts { parts: Some(parts) } =
        reference.handle(Request::AggregateParts { entity: head })
    {
        out.push((
            "proxy.merge_parts_ns",
            mean_ns(50, |_| {
                merge_parts(head, vec![Some(parts.clone()); 3]).expect("merge")
            }),
        ));
    }
    if let Response::SearchResults { hits } = &search_response {
        let lists = vec![hits.clone(); 3];
        out.push((
            "proxy.search_consensus_ns",
            mean_ns(n, |_| search_consensus(&lists).expect("consensus")),
        ));
    }

    // --- server: admission alone (ledger + store append, no WAL), and
    // the read handler.
    let ingest = ShardedIngest::new(8);
    out.push((
        "server.admit_us",
        mean_ns(uploads.len(), |i| ingest.ingest_verified(&uploads[i], true)) / 1e3,
    ));
    out.push((
        "search.handle_us",
        mean_ns(2_000, |i| {
            reference.handle(Request::Search {
                query: data.queries[i % data.queries.len()],
            })
        }) / 1e3,
    ));

    // --- storage: one append + fsync, and a 32-record group.
    let dir = scratch.join("replay-engine");
    let (engine, _) = StorageEngine::open(
        Arc::new(FsDir::open(&dir).expect("open replay dir")),
        crate::cluster::storage_options(),
    )
    .expect("fresh replay engine");
    let items: Vec<WalBatchItem> = uploads
        .iter()
        .map(|u| WalBatchItem {
            spend: Some(u.token.ledger_key()),
            entry: WalEntry {
                record_id: u.record_id,
                entity: u.entity,
                interaction: u.interaction,
            },
        })
        .collect();
    out.push((
        "storage.append1_us",
        mean_ns(128, |i| {
            engine
                .append_upload_batch(&items[i..i + 1])
                .expect("append")
        }) / 1e3,
    ));
    out.push((
        "storage.append32_us",
        mean_ns(4, |i| {
            engine
                .append_upload_batch(&items[128 + i * 32..160 + i * 32])
                .expect("append")
        }) / 1e3,
    ));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    // --- aggregate: one full publish of the preloaded store.
    let mut publishes: Vec<u64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            reference.publish_aggregates();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    publishes.sort_unstable();
    out.push(("aggregate.publish_us", publishes[1] as f64 / 1e3));
    out
}

/// Recovery and checkpoint cost of a finished run's directory: open it
/// as the run left it (cold: checkpoint plus the run's log tail),
/// checkpoint it, open it again (warm: checkpoint alone).
pub fn recovery(dir: &Path) -> Vec<(&'static str, f64)> {
    let open = || {
        let t = Instant::now();
        let opened = StorageEngine::open(
            Arc::new(FsDir::open(dir).expect("open run dir")),
            crate::cluster::storage_options(),
        )
        .expect("recover run dir");
        (opened, t.elapsed().as_secs_f64() * 1e3)
    };
    let ((engine, report), cold_ms) = open();
    let t = Instant::now();
    engine
        .checkpoint(&report.store, &report.stats, &report.spent_tokens)
        .expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(engine);
    let (_, warm_ms) = open();
    vec![
        ("storage.recover_cold_ms", cold_ms),
        ("storage.recover_warm_ms", warm_ms),
        ("storage.checkpoint_ms", checkpoint_ms),
    ]
}
