//! The assembled RSP client.
//!
//! Two-phase API: [`RspClient::infer_interactions`] is a pure function of
//! the sensor trace (what did the app conclude?); [`RspClient::submit`]
//! logs, stores, and schedules those conclusions for anonymous upload.
//! [`RspClient::process_trace`] chains both — the default fully-automatic
//! path the paper argues for ("any form of explicit input required from
//! users ... will limit user participation"), while the split lets a
//! privacy-conscious caller vet inferences in between (§5 transparency).

use crate::history::LocalHistoryStore;
use crate::mapper::EntityMapper;
use crate::sessionizer::{SessionizerConfig, VisitSessionizer};
use crate::transparency::TransparencyLog;
use crate::uploader::UploadScheduler;
use orsp_crypto::{DeviceSecret, TokenIssuer, TokenWallet, UploadRequest};
use orsp_sensors::SensorTrace;
use orsp_types::{
    DeviceId, EntityId, Interaction, InteractionKind, SimDuration, Timestamp,
};
use rand::Rng;
use std::sync::Arc;

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Visit-detection parameters.
    pub sessionizer: SessionizerConfig,
    /// Local history retention window (§4.2's "configurable threshold").
    pub retention: SimDuration,
    /// Asynchronous upload deferral window.
    pub upload_window: SimDuration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            sessionizer: SessionizerConfig::default(),
            retention: SimDuration::days(30),
            upload_window: SimDuration::hours(24),
        }
    }
}

/// Summary of one trace-processing pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessSummary {
    /// Dwell episodes detected from location.
    pub dwells_detected: usize,
    /// Dwells attributed to a listed entity (inferred visits).
    pub visits_inferred: usize,
    /// Calls mapped to listed entities.
    pub calls_inferred: usize,
    /// Payments mapped to listed entities.
    pub payments_inferred: usize,
    /// Upload requests queued.
    pub uploads_queued: usize,
    /// Inferences dropped for lack of a rate-limit token.
    pub starved: usize,
}

/// The RSP's client app for one device.
pub struct RspClient {
    device: DeviceId,
    secret: DeviceSecret,
    config: ClientConfig,
    /// Shared, read-only directory index. An `Arc` because every client in
    /// a simulated population uses the same directory — cloning the full
    /// grid + tables per user dominated pipeline setup time.
    mapper: Arc<EntityMapper>,
    store: LocalHistoryStore,
    log: TransparencyLog,
    scheduler: UploadScheduler,
}

impl RspClient {
    /// Install the app: picks the random secret `Ru` (§4.2).
    pub fn install<R: Rng + ?Sized>(
        rng: &mut R,
        device: DeviceId,
        mapper: Arc<EntityMapper>,
        config: ClientConfig,
    ) -> Self {
        RspClient {
            device,
            secret: DeviceSecret::generate(rng),
            config,
            mapper,
            store: LocalHistoryStore::new(config.retention),
            log: TransparencyLog::new(),
            scheduler: UploadScheduler::new(config.upload_window),
        }
    }

    /// The device this client runs on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Read-only view of the transparency log.
    pub fn transparency_log(&self) -> &TransparencyLog {
        &self.log
    }

    /// Mutable transparency log (for the user to suppress entries between
    /// [`Self::infer_interactions`] and [`Self::submit`]).
    pub fn transparency_log_mut(&mut self) -> &mut TransparencyLog {
        &mut self.log
    }

    /// Read-only view of the bounded local store.
    pub fn local_store(&self) -> &LocalHistoryStore {
        &self.store
    }

    /// Phase 1: pure inference — map the trace to (entity, interaction)
    /// pairs, chronological.
    pub fn infer_interactions(&self, trace: &SensorTrace) -> Vec<(EntityId, Interaction)> {
        let mut out: Vec<(EntityId, Interaction)> = Vec::new();

        // Visits from location dwells.
        for visit in
            VisitSessionizer::sessionize(&trace.fixes, &self.mapper, self.config.sessionizer)
        {
            if let Some(entity) = visit.entity {
                out.push((
                    entity,
                    Interaction::solo(
                        InteractionKind::Visit,
                        visit.start,
                        visit.dwell(),
                        visit.travel_from_prev_m,
                    ),
                ));
            }
        }

        // Calls from the call log.
        for call in &trace.calls {
            if let Some(entity) = self.mapper.entity_by_phone(call.number) {
                out.push((
                    entity,
                    Interaction::solo(InteractionKind::PhoneCall, call.time, call.duration, 0.0),
                ));
            }
        }

        // Payments from the wallet feed.
        for payment in &trace.payments {
            if let Some(entity) = self.mapper.entity_by_merchant(&payment.merchant) {
                out.push((
                    entity,
                    Interaction::solo(
                        InteractionKind::Payment,
                        payment.time,
                        SimDuration::ZERO,
                        0.0,
                    ),
                ));
            }
        }

        out.sort_by_key(|(e, i)| (i.start, e.raw()));
        out
    }

    /// Phase 2: log, store locally, and queue anonymous uploads for a set
    /// of inferences. `now` is the wall-clock at processing time (uploads
    /// defer from here).
    pub fn submit<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        inferences: &[(EntityId, Interaction)],
        wallet: &mut TokenWallet,
        mint: &mut M,
        now: Timestamp,
    ) -> ProcessSummary {
        let mut summary = ProcessSummary::default();
        for (entity, interaction) in inferences {
            let entry = self.log.log(now, *entity, *interaction);
            match interaction.kind {
                InteractionKind::Visit => summary.visits_inferred += 1,
                InteractionKind::PhoneCall => summary.calls_inferred += 1,
                InteractionKind::Payment => summary.payments_inferred += 1,
                InteractionKind::OnlineUse => {}
            }
            // The bounded local store (failures here mean a duplicate or
            // out-of-order inference — skip the upload too).
            if self.store.record(*entity, *interaction).is_err() {
                continue;
            }
            let record_id = LocalHistoryStore::record_id_for(&self.secret, *entity);
            if self.scheduler.enqueue(
                rng,
                record_id,
                *entity,
                *interaction,
                wallet,
                mint,
                now,
            ) {
                summary.uploads_queued += 1;
                self.log.mark_uploaded(entry);
            } else {
                summary.starved += 1;
            }
        }
        self.store.purge(now);
        summary
    }

    /// Like [`Self::submit`], but each inference is processed at the
    /// moment its interaction ended — the realistic streaming path, where
    /// upload deferral is measured from the event, not from a batch pass.
    /// The local store is purged once, at `end`.
    pub fn submit_streaming<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        inferences: &[(EntityId, Interaction)],
        wallet: &mut TokenWallet,
        mint: &mut M,
        end: Timestamp,
    ) -> ProcessSummary {
        let mut summary = ProcessSummary::default();
        for (entity, interaction) in inferences {
            let now = interaction.end();
            let entry = self.log.log(now, *entity, *interaction);
            match interaction.kind {
                InteractionKind::Visit => summary.visits_inferred += 1,
                InteractionKind::PhoneCall => summary.calls_inferred += 1,
                InteractionKind::Payment => summary.payments_inferred += 1,
                InteractionKind::OnlineUse => {}
            }
            if self.store.record(*entity, *interaction).is_err() {
                continue;
            }
            let record_id = LocalHistoryStore::record_id_for(&self.secret, *entity);
            if self.scheduler.enqueue(rng, record_id, *entity, *interaction, wallet, mint, now)
            {
                summary.uploads_queued += 1;
                self.log.mark_uploaded(entry);
            } else {
                summary.starved += 1;
            }
        }
        self.store.purge(end);
        summary
    }

    /// The fully automatic path: infer everything and submit everything.
    pub fn process_trace<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        trace: &SensorTrace,
        wallet: &mut TokenWallet,
        mint: &mut M,
        now: Timestamp,
    ) -> ProcessSummary {
        let inferred = self.infer_interactions(trace);
        let dwells = VisitSessionizer::sessionize(
            &trace.fixes,
            &self.mapper,
            self.config.sessionizer,
        )
        .len();
        let mut summary = self.submit(rng, &inferred, wallet, mint, now);
        summary.dwells_detected = dwells;
        summary
    }

    /// The user asks to be forgotten at one entity: purge the local
    /// history and return the record id whose server-side history should
    /// be deleted (send it through the anonymity network like any other
    /// message — presenting the unguessable id is the proof of
    /// ownership).
    pub fn forget_entity(&mut self, entity: EntityId) -> orsp_types::RecordId {
        self.store.purge_entity(entity);
        LocalHistoryStore::record_id_for(&self.secret, entity)
    }

    /// Release upload requests whose deferral has elapsed.
    pub fn release_uploads(&mut self, now: Timestamp) -> Vec<UploadRequest> {
        self.scheduler.release_due(now)
    }

    /// Drain all queued uploads (end of simulation).
    pub fn drain_uploads(&mut self) -> Vec<UploadRequest> {
        self.scheduler.drain_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::EntityDirectory;
    use orsp_crypto::{TokenMint, TokenWallet};
    use orsp_sensors::{render_user_trace, EnergyModel, SamplingPolicy};
    use orsp_world::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn directory_from(world: &World) -> EntityMapper {
        EntityMapper::new(
            world
                .entities
                .iter()
                .map(|e| EntityDirectory {
                    id: e.id,
                    name: e.name.clone(),
                    category: e.category,
                    location: e.location,
                    phone: e.phone,
                })
                .collect(),
        )
    }

    fn setup(seed: u64) -> (World, Arc<EntityMapper>, TokenMint, StdRng) {
        let world = World::generate(WorldConfig::tiny(seed)).unwrap();
        let mapper = Arc::new(directory_from(&world));
        let mut rng = StdRng::seed_from_u64(seed);
        let mint = TokenMint::new(&mut rng, 256, 10_000, SimDuration::DAY);
        (world, mapper, mint, rng)
    }

    #[test]
    fn client_infers_visits_calls_and_payments() {
        let (world, mapper, mut mint, mut rng) = setup(61);
        // Pick a user with both visits and calls in the ground truth.
        let user = world
            .users
            .iter()
            .map(|u| u.id)
            .find(|&u| {
                let has_visit = world.events.iter().any(|e| {
                    e.user == u && matches!(e.kind, orsp_world::ActivityKind::Visit { .. })
                });
                let has_call = world.events.iter().any(|e| {
                    e.user == u && matches!(e.kind, orsp_world::ActivityKind::PhoneCall { .. })
                });
                has_visit && has_call
            })
            .expect("user with visits and calls");
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let mut client = RspClient::install(
            &mut rng,
            DeviceId::new(user.raw()),
            mapper,
            ClientConfig::default(),
        );
        let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
        let end = Timestamp::EPOCH + world.config.horizon;
        let summary = client.process_trace(&mut rng, &trace, &mut wallet, &mut mint, end);
        assert!(summary.visits_inferred > 0, "visits inferred");
        assert!(summary.calls_inferred > 0, "calls inferred");
        assert!(summary.payments_inferred > 0, "payments inferred");
        assert_eq!(summary.starved, 0);
        assert!(summary.uploads_queued >= summary.visits_inferred);
    }

    #[test]
    fn inferred_visits_match_ground_truth_well() {
        // Recall: most true solo visits should be recovered by the client.
        let (world, mapper, mint, mut rng) = setup(62);
        let user = world.users[0].id;
        let true_visits = world
            .events
            .iter()
            .filter(|e| {
                e.user == user
                    && matches!(e.kind, orsp_world::ActivityKind::Visit { dwell, .. } if dwell >= SimDuration::minutes(20))
            })
            .count();
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let client = RspClient::install(
            &mut rng,
            DeviceId::new(0),
            mapper,
            ClientConfig::default(),
        );
        let inferred_visits = client
            .infer_interactions(&trace)
            .iter()
            .filter(|(_, i)| i.kind == InteractionKind::Visit)
            .count();
        assert!(true_visits > 0);
        let recall = inferred_visits as f64 / true_visits as f64;
        assert!(recall > 0.6, "visit recall {recall:.2} ({inferred_visits}/{true_visits})");
        let _ = mint.issued_total();
    }

    #[test]
    fn uploads_carry_distinct_record_ids_per_entity() {
        let (world, mapper, mut mint, mut rng) = setup(63);
        let user = world.users[1].id;
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let mut client = RspClient::install(
            &mut rng,
            DeviceId::new(1),
            mapper,
            ClientConfig::default(),
        );
        let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
        let end = Timestamp::EPOCH + world.config.horizon;
        client.process_trace(&mut rng, &trace, &mut wallet, &mut mint, end);
        let uploads = client.drain_uploads();
        assert!(!uploads.is_empty());
        // Same entity ⇒ same record id; different entities ⇒ different ids.
        use std::collections::HashMap;
        let mut by_entity: HashMap<EntityId, orsp_types::RecordId> = HashMap::new();
        for u in &uploads {
            if let Some(prev) = by_entity.insert(u.entity, u.record_id) {
                assert_eq!(prev, u.record_id, "stable per entity");
            }
        }
        let distinct_ids: std::collections::HashSet<_> =
            by_entity.values().copied().collect();
        assert_eq!(distinct_ids.len(), by_entity.len(), "unlinkable across entities");
    }

    #[test]
    fn local_store_is_purged_to_retention() {
        let (world, mapper, mut mint, mut rng) = setup(64);
        let user = world.users[2].id;
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let mut client = RspClient::install(
            &mut rng,
            DeviceId::new(2),
            mapper,
            ClientConfig { retention: SimDuration::days(30), ..Default::default() },
        );
        let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
        let end = Timestamp::EPOCH + world.config.horizon;
        client.process_trace(&mut rng, &trace, &mut wallet, &mut mint, end);
        // After purge at `end`, nothing in the store ended before
        // end - 30 days.
        let cutoff = end - SimDuration::days(30);
        for entity in client.local_store().entities() {
            for r in client.local_store().history(entity).unwrap().records() {
                assert!(r.end() >= cutoff, "stale record survived purge");
            }
        }
    }

    #[test]
    fn forget_entity_purges_and_returns_record_id() {
        let (world, mapper, mut mint, mut rng) = setup(66);
        let user = world.users[4].id;
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let mut client = RspClient::install(
            &mut rng,
            DeviceId::new(4),
            mapper,
            ClientConfig::default(),
        );
        let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
        let end = Timestamp::EPOCH + world.config.horizon;
        client.process_trace(&mut rng, &trace, &mut wallet, &mut mint, end);
        let Some(&entity) = client.local_store().entities().first() else {
            return; // nothing retained in this window — nothing to forget
        };
        let rid = client.forget_entity(entity);
        assert!(client.local_store().history(entity).is_none(), "local purge");
        // Deriving again yields the same id — the server can be asked to
        // delete exactly the right history, now or later.
        assert_eq!(rid, client.forget_entity(entity));
    }

    #[test]
    fn transparency_log_sees_every_inference() {
        let (world, mapper, mut mint, mut rng) = setup(65);
        let user = world.users[3].id;
        let trace = render_user_trace(
            &world,
            user,
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let mut client = RspClient::install(
            &mut rng,
            DeviceId::new(3),
            mapper,
            ClientConfig::default(),
        );
        let mut wallet = TokenWallet::new(client.device(), mint.public_key().clone());
        let end = Timestamp::EPOCH + world.config.horizon;
        let summary = client.process_trace(&mut rng, &trace, &mut wallet, &mut mint, end);
        let logged = client.transparency_log().entries().len();
        assert_eq!(
            logged,
            summary.visits_inferred + summary.calls_inferred + summary.payments_inferred
        );
    }
}
