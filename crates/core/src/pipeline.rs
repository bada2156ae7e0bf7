//! The end-to-end pipeline: world → sensors → client → anonymity network
//! → server → inference → aggregates.
//!
//! [`RspPipeline::run`] executes the whole architecture of the paper's
//! Figure 2 over a generated [`World`] and returns every artifact the
//! experiments score. The pipeline is honest about information flow:
//!
//! * everything downstream of `orsp-sensors` sees only sensor data;
//! * the server sees only token-checked anonymous uploads that crossed
//!   the batch mix;
//! * ground truth (latent opinions, fraud flags, record ownership) is
//!   collected *beside* the pipeline purely for scoring and never feeds
//!   back into it.

use crate::coverage::{CoverageReport, OpinionCounts};
use crate::directory::{category_map, directory_entries};
use orsp_anonet::{AnonymousUpload, BatchMix, LinkageScheme, MixConfig, NetworkObserver};
use orsp_client::{ClientConfig, EntityMapper, RspClient, SessionizerConfig, VisitSessionizer};
use orsp_crypto::{RsaPublicKey, TokenIssuer, TokenMint, TokenWallet};
use orsp_inference::predictor::PredictorConfig;
use orsp_inference::{
    EvalReport, FeatureVector, GroupedPredictor, LabeledExample, OpinionPredictor, PairContext,
    Prediction, RepeatCountBaseline,
};
use orsp_sensors::{render_user_trace, EnergyModel, SamplingPolicy};
use orsp_server::{
    deterministic_ingest, AggregatePublisher, CategoryProfile, EntityAggregate, FraudDetector,
    IngestService, ProfileBuilder, WalSink,
};
use orsp_types::rng::{rng_for, rng_for_indexed};
use orsp_types::{
    Category, DeviceId, EntityId, GeoPoint, Interaction, InteractionHistory, Rating, RecordId,
    SimDuration, StarHistogram, Timestamp, UserId,
};
use orsp_world::World;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Location-sampling policy for every device.
    pub policy: SamplingPolicy,
    /// Client configuration (sessionizer, retention, upload window).
    pub client: ClientConfig,
    /// Batch-mix parameters.
    pub mix: MixConfig,
    /// Rate-limit tokens per device per window.
    pub tokens_per_window: u32,
    /// The token rate window.
    pub token_window: SimDuration,
    /// RSA modulus size for the token mint (simulation-grade).
    pub modulus_bits: usize,
    /// Predictor configuration.
    pub predictor: PredictorConfig,
    /// Fraud-score discard threshold.
    pub fraud_threshold: f64,
    /// Channel-id scheme (the privacy experiments flip this).
    pub linkage_scheme: LinkageScheme,
    /// Radius for choice-set features, meters.
    pub choice_set_radius_m: f64,
    /// Whether to discard fraud-flagged histories before aggregation.
    pub apply_fraud_filter: bool,
    /// Fraction of users who installed the RSP's app (§5 "Incentives":
    /// web-first services see far lower app adoption). Users without the
    /// app still post explicit reviews; only app users feed inference.
    pub adoption_rate: f64,
    /// Enable the §3.1 wearable extension: heart-rate arousal as an extra
    /// inference feature.
    pub use_wearables: bool,
    /// Train one predictor per entity group (restaurant / doctor / trade)
    /// instead of a single global model, where labels allow.
    pub per_category_models: bool,
    /// Worker threads for the client, ingest, and feature stages
    /// (0 = one per available core). Results are bit-for-bit identical at
    /// any setting: every user draws from their own derived RNG stream
    /// and all cross-thread merges happen in user/delivery order.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            policy: SamplingPolicy::accel_gated(),
            client: ClientConfig::default(),
            mix: MixConfig::default(),
            tokens_per_window: 64,
            token_window: SimDuration::DAY,
            modulus_bits: 256,
            predictor: PredictorConfig::default(),
            fraud_threshold: 0.75,
            linkage_scheme: LinkageScheme::Unlinkable,
            choice_set_radius_m: 2_500.0,
            apply_fraud_filter: true,
            adoption_rate: 1.0,
            use_wearables: false,
            per_category_models: false,
            threads: 0,
        }
    }
}

/// Everything a pipeline run produces.
pub struct PipelineOutcome {
    /// The populated ingest service (owns the history store, post fraud
    /// filter when enabled).
    pub ingest: IngestService,
    /// Blind tokens issued by the mint.
    pub tokens_issued: u64,
    /// The global passive adversary's view (for privacy scoring).
    pub observer: NetworkObserver,
    /// Per-entity interaction aggregates (the §4.2 egress).
    pub aggregates: HashMap<EntityId, EntityAggregate>,
    /// Per-entity histograms of *inferred* ratings.
    pub inferred_histograms: HashMap<EntityId, StarHistogram>,
    /// Per-entity histograms of *explicit* review ratings.
    pub explicit_histograms: HashMap<EntityId, StarHistogram>,
    /// Inference evaluation on held-out (silent-user) pairs.
    pub eval: EvalReport,
    /// Repeat-count baseline over *all* held-out pairs.
    pub eval_baseline: EvalReport,
    /// Repeat-count baseline restricted to the pairs the predictor was
    /// confident on — the apples-to-apples comparison.
    pub eval_baseline_matched: EvalReport,
    /// Typical-user profiles per category.
    pub profiles: HashMap<Category, CategoryProfile>,
    /// Records the fraud detector flagged.
    pub fraud_flagged: Vec<RecordId>,
    /// Ground truth: records produced by attack traffic (scoring only).
    pub fraud_truth: HashSet<RecordId>,
    /// Ground truth: record → (user, entity) (scoring only).
    pub record_owner: HashMap<RecordId, (UserId, EntityId)>,
    /// Coverage: opinions per entity before vs after implicit inference.
    pub coverage: CoverageReport,
    /// Total uploads that reached the server.
    pub uploads_delivered: u64,
    /// The full per-pair dataset (features, ground truth, optional
    /// explicit label) — the raw material for ablation studies.
    pub dataset: Vec<PairExample>,
}

/// One (user, entity) pair's features and labels, exported for ablations.
#[derive(Debug, Clone)]
pub struct PairExample {
    /// The user (scoring only).
    pub user: UserId,
    /// The entity.
    pub entity: EntityId,
    /// The entity's category.
    pub category: Category,
    /// Extracted features.
    pub features: FeatureVector,
    /// Number of observed interactions.
    pub count: usize,
    /// Latent true rating (scoring only).
    pub truth: Rating,
    /// The explicit rating the user posted, if they are a reviewer.
    pub label: Option<Rating>,
}

/// The pipeline runner.
pub struct RspPipeline {
    config: PipelineConfig,
}

/// Per-user data the inference stage needs (collected client-side; in a
/// deployment this never leaves the device — inference runs there).
pub(crate) struct UserView {
    user: UserId,
    home_estimate: GeoPoint,
    interactions: Vec<(EntityId, Interaction)>,
    /// Heart-rate stream when the wearable extension is on.
    hr_samples: Vec<orsp_sensors::HrSample>,
}

/// Everything one user's client-stage pass produces, merged on the main
/// thread in user order so the outcome is independent of thread count.
struct ClientOutput {
    view: UserView,
    /// (release time, mixed upload) — extends `in_flight`.
    uploads: Vec<(Timestamp, AnonymousUpload)>,
    /// (record id, owner) ground truth — extends `record_owner`.
    owners: Vec<(RecordId, (UserId, EntityId))>,
    /// Network-entry observations — replayed into the observer in order.
    entries: Vec<(DeviceId, Timestamp)>,
}

/// Everything the client and mix stages produce before the server sees a
/// single upload. The in-process path feeds `deliveries` straight into
/// `deterministic_ingest`; the served path replays them over a transport
/// — both then finish with [`RspPipeline::back_half`].
pub(crate) struct FrontHalf {
    pub(crate) observer: NetworkObserver,
    pub(crate) record_owner: HashMap<RecordId, (UserId, EntityId)>,
    pub(crate) user_views: Vec<UserView>,
    pub(crate) deliveries: Vec<(Timestamp, orsp_crypto::UploadRequest)>,
}

impl RspPipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        RspPipeline { config }
    }

    /// The resolved worker count (config, or one per core for 0).
    fn threads(&self) -> usize {
        if self.config.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.config.threads
        }
    }

    /// Run the full architecture over a world.
    ///
    /// Multi-core but deterministic: the mint keypair is generated first
    /// from the master stream, each user's client stage draws only from
    /// `rng_for_indexed(seed, "client", user)` (adoption gate, install
    /// secret, upload deferrals, channel salt), and per-user results are
    /// merged in user order regardless of which worker produced them.
    pub fn run(&self, world: &World) -> PipelineOutcome {
        self.run_logged(world, None)
    }

    /// [`run`](Self::run) with an optional durability sink: every accepted
    /// upload's spend and record are logged through `sink` as it is
    /// admitted. Durability is write-only with respect to the pipeline —
    /// the outcome (and its digest) is bit-identical with or without a
    /// sink, at any thread count, which `tests/pipeline_determinism.rs`
    /// asserts.
    pub fn run_logged(&self, world: &World, sink: Option<Arc<dyn WalSink>>) -> PipelineOutcome {
        let obs = orsp_obs::global();
        let _run_span = obs.span("pipeline_run_us");
        let cfg = &self.config;
        let threads = self.threads();
        let mut rng = rng_for(world.config.seed, "pipeline");
        let mint =
            TokenMint::new(&mut rng, cfg.modulus_bits, cfg.tokens_per_window, cfg.token_window);
        let mint_public = mint.public_key().clone();
        let mapper = Arc::new(EntityMapper::new(directory_entries(world)));

        // Client + mix stages, issuing against the in-process mint.
        // Rate-limit accounting goes through the shared mint (per-device,
        // so timing-independent); RSA signing runs outside its lock.
        let shared_mint = Mutex::new(mint);
        let front = self.front_half(world, &mapper, &mint_public, &|| &shared_mint);
        let mint = shared_mint.into_inner().unwrap_or_else(|e| e.into_inner());

        // ---- Ingest stage: parallel verify, then the served admission
        // core in delivery order. ---------------------------------------
        let ingest = deterministic_ingest(&front.deliveries, &mint_public, threads, sink);
        self.back_half(world, &mapper, front, ingest, mint.issued_total())
    }

    /// The client and network stages: per-device processing in parallel,
    /// then the batch mix in time order. Generic over the token issuer so
    /// the same code path runs against the in-process mint *or* a remote
    /// service behind a transport — `make_issuer` builds one issuer per
    /// worker invocation.
    pub(crate) fn front_half<M: TokenIssuer>(
        &self,
        world: &World,
        mapper: &Arc<EntityMapper>,
        mint_public: &RsaPublicKey,
        make_issuer: &(impl Fn() -> M + Sync),
    ) -> FrontHalf {
        let obs = orsp_obs::global();
        let cfg = &self.config;
        let threads = self.threads();
        let end = Timestamp::EPOCH + world.config.horizon;

        // ---- Client stage: per-device processing, in parallel. -------
        // Instrumentation rule (DESIGN §7): spans and counters are
        // write-only — nothing here reads a metric or the wall clock back
        // into the computation, so digests stay bit-identical.
        let client_span = obs.span("pipeline_client_us");
        let energy_model = EnergyModel::default();
        let run_user = |user: &orsp_world::User| -> Option<ClientOutput> {
            let mut rng = rng_for_indexed(world.config.seed, "client", user.id.raw());
            // Adoption gate: non-adopters never install the client. Their
            // explicit reviews still flow through the review channel.
            if cfg.adoption_rate < 1.0 && rng.gen::<f64>() >= cfg.adoption_rate {
                return None;
            }
            let device = DeviceId::new(user.id.raw());
            let trace = render_user_trace(world, user.id, cfg.policy, &energy_model);
            let mut client = RspClient::install(&mut rng, device, Arc::clone(mapper), cfg.client);
            let mut wallet = TokenWallet::new(device, mint_public.clone());

            let inferred = client.infer_interactions(&trace);
            let home_estimate =
                estimate_home(&trace, mapper, cfg.client.sessionizer).unwrap_or(GeoPoint::ORIGIN);
            let mut issuer = make_issuer();
            client.submit_streaming(&mut rng, &inferred, &mut wallet, &mut issuer, end);

            // Device-specific channel salt (the on-device secret the
            // unlinkable scheme keys on).
            let mut salt = [0u8; 32];
            rng.fill(&mut salt);
            let mut uploads = Vec::new();
            let mut owners = Vec::new();
            let mut entries = Vec::new();
            for request in client.drain_uploads() {
                let channel = cfg.linkage_scheme.channel_id(device, &salt, request.entity);
                entries.push((device, request.release_at));
                owners.push((request.record_id, (user.id, request.entity)));
                uploads.push((
                    request.release_at,
                    AnonymousUpload { channel, submitted_at: request.release_at, request },
                ));
            }
            let hr_samples =
                if cfg.use_wearables { orsp_sensors::hr_trace(world, user.id) } else { Vec::new() };
            Some(ClientOutput {
                view: UserView { user: user.id, home_estimate, interactions: inferred, hr_samples },
                uploads,
                owners,
                entries,
            })
        };
        let outputs: Vec<Option<ClientOutput>> = map_chunked(&world.users, threads, &run_user);

        // Deterministic merge: user order, independent of worker timing.
        let mut observer = NetworkObserver::new();
        let mut record_owner: HashMap<RecordId, (UserId, EntityId)> = HashMap::new();
        let mut in_flight: Vec<(Timestamp, AnonymousUpload)> = Vec::new();
        let mut user_views: Vec<UserView> = Vec::with_capacity(world.users.len());
        for output in outputs.into_iter().flatten() {
            for (device, at) in output.entries {
                observer.observe_entry(device, at);
            }
            record_owner.extend(output.owners);
            in_flight.extend(output.uploads);
            user_views.push(output.view);
        }
        client_span.end();

        // ---- Network stage: the batch mix in time order. -------------
        let mix_span = obs.span("pipeline_mix_us");
        in_flight.sort_by_key(|(t, u)| (*t, u.request.entity.raw()));
        let mut mix = BatchMix::new(cfg.mix, world.config.seed);
        let mut deliveries: Vec<(Timestamp, orsp_crypto::UploadRequest)> =
            Vec::with_capacity(in_flight.len());
        let deliver = |batch: Vec<AnonymousUpload>,
                       at: Timestamp,
                       deliveries: &mut Vec<(Timestamp, orsp_crypto::UploadRequest)>,
                       observer: &mut NetworkObserver| {
            for upload in batch {
                let truth_device = record_owner
                    .get(&upload.request.record_id)
                    .map(|(u, _)| DeviceId::new(u.raw()))
                    .unwrap_or(DeviceId::new(u64::MAX));
                observer.observe_exit(upload.request.record_id, upload.channel, at, truth_device);
                deliveries.push((at, upload.request));
            }
        };
        for (t, upload) in in_flight {
            mix.submit(upload, t);
            for batch in mix.tick(t) {
                deliver(batch, t, &mut deliveries, &mut observer);
            }
        }
        let rest = mix.drain();
        deliver(rest, end, &mut deliveries, &mut observer);
        mix_span.end();
        obs.counter("pipeline_uploads_mixed_total").add(deliveries.len() as u64);

        FrontHalf { observer, record_owner, user_views, deliveries }
    }

    /// Server analytics, inference, and scoring over a populated ingest
    /// service — everything downstream of delivery. Both the in-process
    /// and the served pipeline end here, which is why they digest equal.
    pub(crate) fn back_half(
        &self,
        world: &World,
        mapper: &Arc<EntityMapper>,
        front: FrontHalf,
        mut ingest: IngestService,
        tokens_issued: u64,
    ) -> PipelineOutcome {
        let obs = orsp_obs::global();
        let cfg = &self.config;
        let FrontHalf { observer, record_owner, user_views, deliveries: _ } = front;
        let uploads_delivered = ingest.stats().accepted;
        obs.counter("pipeline_tokens_issued_total").add(tokens_issued);
        obs.counter("pipeline_uploads_delivered_total").add(uploads_delivered);

        // ---- Server analytics: profiles and fraud. --------------------
        let analytics_span = obs.span("pipeline_analytics_us");
        let categories = category_map(world);
        let profiles = ProfileBuilder { entity_categories: &categories }.build(ingest.store());
        let mut detector = FraudDetector::new(profiles.clone());
        detector.threshold = cfg.fraud_threshold;
        let fraud_flagged = detector.sweep(ingest.store(), &categories);
        if cfg.apply_fraud_filter {
            ingest.store_mut().remove_records(&fraud_flagged);
        }
        let aggregates = AggregatePublisher::all(ingest.store());

        // Ground truth for fraud scoring: any (user, entity) pair with an
        // attack event in the world trace.
        let fraud_pairs: HashSet<(UserId, EntityId)> =
            world.events.iter().filter(|e| e.is_fraud).map(|e| (e.user, e.entity)).collect();
        let fraud_truth: HashSet<RecordId> = record_owner
            .iter()
            .filter(|(_, pair)| fraud_pairs.contains(pair))
            .map(|(rid, _)| *rid)
            .collect();
        analytics_span.end();

        // ---- Inference stage. -----------------------------------------
        let inference_span = obs.span("pipeline_inference_us");
        let flagged_set: HashSet<RecordId> = fraud_flagged.iter().copied().collect();
        let (dataset, test, inferred_histograms) =
            self.inference_stage(world, mapper, &user_views, &record_owner, &flagged_set);
        let eval = EvalReport::compute(&test.predictor_examples);
        let eval_baseline = EvalReport::compute(&test.baseline_examples);
        let eval_baseline_matched = EvalReport::compute(&test.baseline_matched);
        inference_span.end();

        // ---- Explicit review histograms + coverage. --------------------
        let mut explicit_histograms: HashMap<EntityId, StarHistogram> = HashMap::new();
        for review in &world.reviews {
            explicit_histograms.entry(review.entity).or_default().add(review.rating);
        }
        let universe: Vec<EntityId> = world.entities.iter().map(|e| e.id).collect();
        let mut per_entity: HashMap<EntityId, OpinionCounts> = HashMap::new();
        for (entity, hist) in &explicit_histograms {
            per_entity.entry(*entity).or_default().explicit = hist.total();
        }
        for (entity, hist) in &inferred_histograms {
            per_entity.entry(*entity).or_default().inferred = hist.total();
        }
        let coverage = CoverageReport::compute(&universe, per_entity);

        PipelineOutcome {
            tokens_issued,
            ingest,
            observer,
            aggregates,
            inferred_histograms,
            explicit_histograms,
            eval,
            eval_baseline,
            eval_baseline_matched,
            profiles,
            fraud_flagged,
            fraud_truth,
            record_owner,
            coverage,
            uploads_delivered,
            dataset,
        }
    }

    /// Build features per (user, entity) pair, train the predictor on the
    /// reviewer minority, evaluate on silent users, and produce per-entity
    /// inferred-rating histograms.
    fn inference_stage(
        &self,
        world: &World,
        mapper: &EntityMapper,
        user_views: &[UserView],
        record_owner: &HashMap<RecordId, (UserId, EntityId)>,
        flagged: &HashSet<RecordId>,
    ) -> (Vec<PairExample>, TestSets, HashMap<EntityId, StarHistogram>) {
        // Reverse map: pair → record id, to honour fraud discards.
        let record_of: HashMap<(UserId, EntityId), RecordId> =
            record_owner.iter().map(|(rid, pair)| (*pair, *rid)).collect();
        // Explicit labels: (user, entity) → posted rating.
        let labels: HashMap<(UserId, EntityId), Rating> =
            world.reviews.iter().map(|r| ((r.user, r.entity), r.rating)).collect();

        // Assemble features per pair — one independent task per user view,
        // fanned out across the worker pool. Entity groups iterate in
        // sorted order (BTreeMap) so the pair sequence — and with it the
        // float-accumulation order of everything trained on it — is a pure
        // function of the content, not of hash seeds or thread timing.
        let assemble_view = |view: &UserView| -> Vec<PairExample> {
            let mut out: Vec<PairExample> = Vec::new();
            // Group interactions per entity (already chronological).
            let mut per_entity: BTreeMap<EntityId, Vec<Interaction>> = BTreeMap::new();
            for (entity, interaction) in &view.interactions {
                per_entity.entry(*entity).or_default().push(*interaction);
            }
            // Category totals for exploration/settledness features.
            let mut per_category: HashMap<Category, (usize, usize)> = HashMap::new();
            for (&entity, ints) in &per_entity {
                if let Some(dir) = mapper.entry(entity) {
                    let e = per_category.entry(dir.category).or_default();
                    e.0 += 1; // entities tried
                    e.1 += ints.len(); // interactions
                }
            }
            // Choice-set sizes, memoized per view: every pair of this view
            // shares one home estimate, so the spatial query runs once and
            // the per-category counts are reused — previously this
            // re-scanned the grid for every (user, entity) pair.
            let mut near_by_category: HashMap<Category, usize> = HashMap::new();
            for e in mapper.entities_near(&view.home_estimate, self.config.choice_set_radius_m) {
                if let Some(d) = mapper.entry(e) {
                    *near_by_category.entry(d.category).or_default() += 1;
                }
            }
            for (&entity, ints) in &per_entity {
                let Some(dir) = mapper.entry(entity) else { continue };
                let (tried, cat_total) =
                    per_category.get(&dir.category).copied().unwrap_or((1, ints.len()));
                let choice_set = near_by_category.get(&dir.category).copied().unwrap_or(0);
                // Wearable extension: mean HR delta over this pair's
                // visit windows (0.0 when no wearable).
                let mean_hr_delta = if view.hr_samples.is_empty() {
                    0.0
                } else {
                    let deltas: Vec<f64> = ints
                        .iter()
                        .filter(|i| i.kind == orsp_types::InteractionKind::Visit)
                        .filter_map(|i| {
                            orsp_sensors::mean_delta_in(&view.hr_samples, i.start, i.end())
                        })
                        .collect();
                    if deltas.is_empty() {
                        0.0
                    } else {
                        deltas.iter().sum::<f64>() / deltas.len() as f64
                    }
                };
                let context = PairContext {
                    alternatives_tried: tried.saturating_sub(1),
                    settled_share: ints.len() as f64 / cat_total.max(1) as f64,
                    choice_set_size: choice_set,
                    mean_hr_delta,
                };
                let Some(history) = InteractionHistory::from_records(ints.clone()) else {
                    continue;
                };
                let features = FeatureVector::extract(&history, &context);
                let truth = world
                    .opinions
                    .true_rating(world.user(view.user).unwrap(), world.entity(entity).unwrap());
                out.push(PairExample {
                    user: view.user,
                    entity,
                    category: dir.category,
                    features,
                    count: history.len(),
                    truth,
                    label: labels.get(&(view.user, entity)).copied(),
                });
            }
            out
        };
        let pairs: Vec<PairExample> =
            map_chunked(user_views, self.threads(), &assemble_view).into_iter().flatten().collect();

        // Train on reviewer-labelled pairs; hold out silent users.
        // Coarse group key for per-category stratification.
        let group_of = |c: Category| -> u8 {
            match c {
                Category::Restaurant(_) => 0,
                Category::Doctor(_) => 1,
                Category::ServiceProvider(_) => 2,
                Category::App | Category::Video => 3,
            }
        };
        let train_examples: Vec<(FeatureVector, Rating)> =
            pairs.iter().filter_map(|p| p.label.map(|r| (p.features, r))).collect();
        let grouped: Option<GroupedPredictor<u8>> = if self.config.per_category_models {
            let triples: Vec<(u8, FeatureVector, Rating)> = pairs
                .iter()
                .filter_map(|p| p.label.map(|r| (group_of(p.category), p.features, r)))
                .collect();
            GroupedPredictor::train(&triples, self.config.predictor)
        } else {
            None
        };
        let predictor = OpinionPredictor::train(&train_examples, self.config.predictor);
        let baseline = RepeatCountBaseline::default();

        let mut inferred_histograms: HashMap<EntityId, StarHistogram> = HashMap::new();
        let mut predictor_examples = Vec::new();
        let mut baseline_examples = Vec::new();
        let mut baseline_matched = Vec::new();
        for p in &pairs {
            let truth = world
                .opinions
                .true_rating(world.user(p.user).unwrap(), world.entity(p.entity).unwrap());
            let prediction = match (&grouped, &predictor) {
                (Some(model), _) => model.predict(&group_of(p.category), &p.features, p.count),
                (None, Some(model)) => model.predict(&p.features, p.count),
                (None, None) => Prediction::Abstain(orsp_inference::AbstainReason::TooFewSignals),
            };
            // Held-out evaluation: pairs whose user never reviews.
            let is_held_out = !labels.contains_key(&(p.user, p.entity));
            if is_held_out {
                let forced = predictor.as_ref().map(|m| m.ridge().predict(&p.features));
                predictor_examples.push(LabeledExample { prediction, truth, forced });
                let baseline_example = LabeledExample {
                    prediction: Prediction::Rating(baseline.predict(&p.features)),
                    truth,
                    forced: None,
                };
                baseline_examples.push(baseline_example);
                if matches!(prediction, Prediction::Rating(_)) {
                    baseline_matched.push(baseline_example);
                }
            }
            // Publish the inference unless the record was discarded as
            // fraud (or never delivered).
            let discarded =
                record_of.get(&(p.user, p.entity)).map(|rid| flagged.contains(rid)).unwrap_or(true);
            if !discarded {
                if let Prediction::Rating(r) = prediction {
                    inferred_histograms.entry(p.entity).or_default().add(r);
                }
            }
        }

        (
            pairs,
            TestSets { predictor_examples, baseline_examples, baseline_matched },
            inferred_histograms,
        )
    }
}

struct TestSets {
    predictor_examples: Vec<LabeledExample>,
    baseline_examples: Vec<LabeledExample>,
    baseline_matched: Vec<LabeledExample>,
}

/// Map `f` over `items` across up to `threads` workers, preserving input
/// order: each worker takes one contiguous chunk and the chunk results
/// are concatenated in chunk order, so the output is element-for-element
/// what a sequential `items.iter().map(f)` would produce — the invariant
/// every parallel stage of the pipeline relies on for determinism.
fn map_chunked<T, U, F>(items: &[T], threads: usize, f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move |_| slice.iter().map(f).collect::<Vec<U>>()))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("pipeline worker panicked"));
        }
    })
    .expect("pipeline worker panicked");
    out
}

/// Estimate the device's home: the entity-less dwell cluster with the
/// largest total dwell time. Honest — uses only what the client observes.
fn estimate_home(
    trace: &orsp_sensors::SensorTrace,
    mapper: &EntityMapper,
    config: SessionizerConfig,
) -> Option<GeoPoint> {
    let dwells = VisitSessionizer::sessionize(&trace.fixes, mapper, config);
    // Cluster anchor dwells by rounding to a coarse grid; sum dwell time.
    let mut by_cell: HashMap<(i64, i64), (SimDuration, GeoPoint)> = HashMap::new();
    for d in dwells.iter().filter(|d| d.entity.is_none()) {
        let cell = ((d.centroid.x / 200.0).round() as i64, (d.centroid.y / 200.0).round() as i64);
        let e = by_cell.entry(cell).or_insert((SimDuration::ZERO, d.centroid));
        e.0 += d.dwell();
    }
    by_cell.into_values().max_by_key(|(t, _)| *t).map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_world::WorldConfig;

    fn small_world() -> World {
        // Enough users and span that the reviewer minority produces a
        // viable training set (the ridge model needs >= 14 labels).
        let cfg = WorldConfig {
            users_per_zipcode: 70,
            horizon: SimDuration::days(300),
            ..WorldConfig::tiny(71)
        };
        World::generate(cfg).unwrap()
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let world = small_world();
        let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
        assert!(outcome.uploads_delivered > 100, "uploads {}", outcome.uploads_delivered);
        assert!(outcome.ingest.store().len() > 10, "histories {}", outcome.ingest.store().len());
        assert!(!outcome.aggregates.is_empty());
        assert!(outcome.tokens_issued >= outcome.uploads_delivered);
        assert_eq!(outcome.ingest.stats().bad_token, 0);
        assert_eq!(outcome.ingest.stats().double_spend, 0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let world = small_world();
        let a = RspPipeline::new(PipelineConfig::default()).run(&world);
        let b = RspPipeline::new(PipelineConfig::default()).run(&world);
        assert_eq!(a.uploads_delivered, b.uploads_delivered);
        assert_eq!(a.eval.predicted, b.eval.predicted);
        assert_eq!(a.coverage.median_after, b.coverage.median_after);
    }

    #[test]
    fn coverage_improves_dramatically() {
        let world = small_world();
        let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
        assert!(
            outcome.coverage.mean_after > 2.0 * outcome.coverage.mean_before,
            "before {} after {}",
            outcome.coverage.mean_before,
            outcome.coverage.mean_after
        );
    }

    #[test]
    fn record_ids_match_history_count() {
        let world = small_world();
        let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
        // Every stored history is owned by exactly one known (user,
        // entity) pair.
        for (rid, _) in outcome.ingest.store().iter() {
            assert!(outcome.record_owner.contains_key(rid));
        }
    }

    #[test]
    fn inference_beats_baseline_on_held_out_pairs() {
        let world = small_world();
        let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
        assert!(outcome.eval.predicted > 20, "predicted {}", outcome.eval.predicted);
        // Apples-to-apples: compare on the pairs the predictor spoke on.
        assert!(
            outcome.eval.mae < outcome.eval_baseline_matched.mae,
            "predictor MAE {} vs matched baseline {}",
            outcome.eval.mae,
            outcome.eval_baseline_matched.mae
        );
    }
}
