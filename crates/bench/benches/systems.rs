//! System-level Criterion benches: world generation, the measurement
//! crawl, and WAL replay.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use orsp_measure::{Crawler, ServiceCatalog};
use orsp_server::{encode_record, replay, wal_header, WalEntry};
use orsp_types::{
    EntityId, Interaction, InteractionKind, RecordId, ServiceKind, SimDuration, Timestamp,
};
use orsp_world::{World, WorldConfig};

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("world_generate_tiny", |b| {
        b.iter(|| World::generate(WorldConfig::tiny(black_box(7))).unwrap().events.len())
    });
}

fn bench_crawl(c: &mut Criterion) {
    let catalog = ServiceCatalog::generate(ServiceKind::Healthgrades, 7);
    c.bench_function("crawl_healthgrades_catalog", |b| {
        b.iter(|| Crawler::crawl(black_box(&catalog)).entities)
    });
}

fn bench_wal(c: &mut Criterion) {
    let entries: Vec<WalEntry> = (0..10_000u32)
        .map(|i| WalEntry {
            record_id: RecordId::from_bytes({
                let mut b = [0u8; 32];
                b[..4].copy_from_slice(&i.to_le_bytes());
                b
            }),
            entity: EntityId::new((i % 100) as u64),
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::from_seconds(i as i64 * 600),
                SimDuration::minutes(30),
                250.0,
            ),
        })
        .collect();
    let mut encoded = wal_header().to_vec();
    for e in &entries {
        encoded.extend_from_slice(&encode_record(e));
    }
    c.bench_function("wal_replay_10k", |b| {
        b.iter(|| replay(black_box(&encoded)).unwrap().entries.len())
    });
}

criterion_group!(benches, bench_world_generation, bench_crawl, bench_wal);
criterion_main!(benches);
