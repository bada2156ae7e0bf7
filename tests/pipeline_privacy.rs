//! Privacy integration: the §4.2 design choices measured adversarially
//! through the real pipeline.

use orsp_anonet::{LinkageScheme, MixConfig};
use orsp_client::ClientConfig;
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::{DeviceId, EntityId, SimDuration};
use orsp_world::{World, WorldConfig};

fn world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 40,
        horizon: SimDuration::days(180),
        ..WorldConfig::tiny(777)
    };
    World::generate(cfg).unwrap()
}

#[test]
fn unlinkable_record_ids_defeat_linkage_attack() {
    let world = world();
    let devices: Vec<DeviceId> = world.users.iter().map(|u| DeviceId::new(u.id.raw())).collect();
    let entities: Vec<EntityId> = world.entities.iter().map(|e| e.id).collect();

    let unlinkable = RspPipeline::new(PipelineConfig {
        linkage_scheme: LinkageScheme::Unlinkable,
        ..Default::default()
    })
    .run(&world);
    let naive = RspPipeline::new(PipelineConfig {
        linkage_scheme: LinkageScheme::DevicePrefixed,
        ..Default::default()
    })
    .run(&world);

    let r_unlink =
        unlinkable.observer.linkage_attack(LinkageScheme::Unlinkable, &devices, &entities);
    let r_naive = naive.observer.linkage_attack(LinkageScheme::DevicePrefixed, &devices, &entities);

    // Under unlinkable ids the only remaining signal is co-batching —
    // same-user uploads cluster in time, so same-batch pairs are
    // same-user more often than chance. That residual leak is real but
    // bounded: low recall AND low precision, versus the naive scheme's
    // near-perfect linkage.
    assert!(r_unlink.recall() < 0.25, "unlinkable recall {}", r_unlink.recall());
    assert!(r_unlink.precision() < 0.5, "unlinkable precision {}", r_unlink.precision());
    assert!(r_naive.recall() > 0.9, "naive recall {}", r_naive.recall());
    assert!(r_naive.precision() > 0.99);
    assert!(
        r_naive.recall() > 4.0 * r_unlink.recall(),
        "unlinkability must slash linkage: {} vs {}",
        r_unlink.recall(),
        r_naive.recall()
    );
}

#[test]
fn async_uploads_and_mixing_defeat_timing_attack() {
    let world = world();

    let immediate = RspPipeline::new(PipelineConfig {
        client: ClientConfig { upload_window: SimDuration::ZERO, ..Default::default() },
        mix: MixConfig { threshold: 1, max_latency: SimDuration::ZERO },
        ..Default::default()
    })
    .run(&world);
    let deferred = RspPipeline::new(PipelineConfig {
        client: ClientConfig { upload_window: SimDuration::hours(24), ..Default::default() },
        mix: MixConfig::default(),
        ..Default::default()
    })
    .run(&world);

    let acc_now = immediate.observer.timing_attack().accuracy();
    let acc_mixed = deferred.observer.timing_attack().accuracy();
    assert!(acc_now > 0.5, "immediate upload is very linkable: {acc_now}");
    assert!(
        acc_mixed < acc_now / 4.0,
        "deferral + mixing must crush timing accuracy: {acc_mixed} vs {acc_now}"
    );
}

#[test]
fn server_cannot_enumerate_a_users_entities() {
    // Structural check: for a given user, their record ids share no
    // common prefix or byte pattern an adversary could group on.
    let world = world();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    use std::collections::HashMap;
    let mut per_user: HashMap<orsp_types::UserId, Vec<orsp_types::RecordId>> = HashMap::new();
    for (rid, (user, _)) in &outcome.record_owner {
        per_user.entry(*user).or_default().push(*rid);
    }
    let user_with_many =
        per_user.values().find(|v| v.len() >= 5).expect("some user interacted with 5+ entities");
    // Pairwise: first byte matches happen at chance rate (~1/256), never
    // systematically.
    let mut first_byte_matches = 0;
    let mut pairs = 0;
    for i in 0..user_with_many.len() {
        for j in i + 1..user_with_many.len() {
            pairs += 1;
            if user_with_many[i].as_bytes()[0] == user_with_many[j].as_bytes()[0] {
                first_byte_matches += 1;
            }
        }
    }
    assert!(
        (first_byte_matches as f64) < 0.2 * pairs as f64,
        "record ids look structured: {first_byte_matches}/{pairs} share first byte"
    );
}

#[test]
fn uploads_carry_no_user_identifier() {
    // Type-level property made concrete: serialize-inspect an upload's
    // fields.
    let world = world();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    // The server's stored histories know entity + interactions, nothing
    // else.
    for (_, stored) in outcome.ingest.store().iter().take(50) {
        for r in stored.history.iter() {
            assert!(r.is_well_formed());
            // Distances are features, not coordinates.
            assert!(r.distance_travelled_m < 1e7);
        }
    }
}

#[test]
fn device_replacement_splits_histories_unlinkably() {
    // §4.2 consequence: a new phone means a new Ru, so the server sees a
    // brand-new set of record ids — the old and new histories of the same
    // user cannot be joined. (The cost: inference support resets too.)
    use orsp_crypto::{derive_record_id, DeviceSecret};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(9);
    let old_phone = DeviceSecret::generate(&mut rng);
    let new_phone = DeviceSecret::generate(&mut rng);
    for e in 0..100u64 {
        let entity = EntityId::new(e);
        assert_ne!(
            derive_record_id(&old_phone, entity),
            derive_record_id(&new_phone, entity),
            "entity {e}: new device must not inherit old record ids"
        );
    }
}
