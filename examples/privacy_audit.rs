//! Privacy audit: the §4.2 guarantees, demonstrated adversarially.
//!
//! Runs the pipeline under a global passive adversary and shows what each
//! design element buys:
//!
//! * `hash(Ru, e)` record ids vs device-prefixed ids — the linkage attack;
//! * asynchronous deferred uploads + batch mixing vs immediate uploads —
//!   the timing attack;
//! * the bounded on-device store — what a stolen phone leaks;
//! * the transparency log — what the user can see and veto.
//!
//! ```sh
//! cargo run --release --example privacy_audit
//! ```

use orsp_anonet::{LinkageScheme, MixConfig};
use orsp_client::ClientConfig;
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::{DeviceId, EntityId, SimDuration};
use orsp_world::{World, WorldConfig};

fn main() {
    let config = WorldConfig {
        users_per_zipcode: 50,
        horizon: SimDuration::days(240),
        ..WorldConfig::tiny(4242)
    };
    let world = World::generate(config).unwrap();
    let devices: Vec<DeviceId> = world.users.iter().map(|u| DeviceId::new(u.id.raw())).collect();
    let entities: Vec<EntityId> = world.entities.iter().map(|e| e.id).collect();

    println!("== Audit 1: can the RSP link one user's histories across entities? ==\n");
    for scheme in [LinkageScheme::DevicePrefixed, LinkageScheme::Unlinkable] {
        let outcome =
            RspPipeline::new(PipelineConfig { linkage_scheme: scheme, ..Default::default() })
                .run(&world);
        let report = outcome.observer.linkage_attack(scheme, &devices, &entities);
        println!(
            "  {scheme:?}: adversary links {:.0}% of same-user record pairs (precision {:.0}%)",
            100.0 * report.recall(),
            100.0 * report.precision()
        );
    }

    println!("\n== Audit 2: can a network observer tie uploads to devices by timing? ==\n");
    for (label, window, mix) in [
        (
            "immediate upload, no mixing    ",
            SimDuration::ZERO,
            MixConfig { threshold: 1, max_latency: SimDuration::ZERO },
        ),
        ("deferred 24h + batch mixing    ", SimDuration::hours(24), MixConfig::default()),
    ] {
        let outcome = RspPipeline::new(PipelineConfig {
            client: ClientConfig { upload_window: window, ..Default::default() },
            mix,
            ..Default::default()
        })
        .run(&world);
        let report = outcome.observer.timing_attack();
        println!(
            "  {label} adversary links {:.0}% of uploads to the right device",
            100.0 * report.accuracy()
        );
    }

    println!("\n== Audit 3: what does a stolen phone leak? ==\n");
    // The client's bounded store after a full run: directly inspectable.
    use orsp_client::{EntityMapper, RspClient};
    use orsp_core::directory_entries;
    use orsp_crypto::{TokenMint, TokenWallet};
    use orsp_sensors::{render_user_trace, EnergyModel, SamplingPolicy};
    use orsp_types::rng::rng_for;
    use orsp_types::Timestamp;
    let mut rng = rng_for(1, "audit");
    let mut mint = TokenMint::new(&mut rng, 256, 1_000, SimDuration::DAY);
    let mapper = std::sync::Arc::new(EntityMapper::new(directory_entries(&world)));
    let user = world.users[0].id;
    let trace =
        render_user_trace(&world, user, SamplingPolicy::accel_gated(), &EnergyModel::default());
    let mut client = RspClient::install(
        &mut rng,
        DeviceId::new(user.raw()),
        mapper,
        ClientConfig { retention: SimDuration::days(30), ..Default::default() },
    );
    let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
    let inferred = client.infer_interactions(&trace);
    let end = Timestamp::EPOCH + world.config.horizon;
    client.submit_streaming(&mut rng, &inferred, &mut wallet, &mut mint, end);
    println!(
        "  lifetime inferences made by this device: {}",
        client.transparency_log().entries().len()
    );
    println!(
        "  records still on the device (30-day retention): {} across {} entities",
        client.local_store().total_records(),
        client.local_store().entities().len()
    );
    println!("  (everything older lives only under unlinkable ids at the server)");

    println!("\n== Audit 4: transparency — the user vetoes an inference ==\n");
    let log = client.transparency_log_mut();
    if let Some(first_pending) = log
        .entries()
        .iter()
        .find(|e| e.status == orsp_client::InferenceStatus::Pending)
        .map(|e| e.id)
    {
        let before = log.entries()[first_pending as usize].status;
        log.suppress(first_pending);
        println!(
            "  entry {first_pending}: {:?} -> {:?} (it will never be uploaded)",
            before,
            log.entries()[first_pending as usize].status
        );
    } else {
        println!("  (all inferences already uploaded in this run — uploaded entries");
        println!("   cannot be recalled: the server could not find them if it tried,");
        println!("   which is the unlinkability guarantee working as intended)");
    }
}
