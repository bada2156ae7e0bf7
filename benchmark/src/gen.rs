//! Seeded inputs: the preloaded histories and the per-client op streams.
//!
//! Everything here is a pure function of `--seed`: the same seed gives
//! the same world, the same preload and the same request sequence on
//! every client thread, so two runs of one build differ only in timing.
//! The program under test never sees the seed beyond its world flag —
//! it receives the generated requests.

use orsp_crypto::{derive_record_id, DeviceSecret};
use orsp_search::SearchQuery;
use orsp_server::HistoryStore;
use orsp_types::rng::{derive_seed_indexed, rng_for_indexed};
use orsp_types::{
    DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use orsp_world::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// Devices in the pool every workload draws from.
pub const DEVICES: u64 = 20_000;
/// Interactions in each preloaded history.
pub const PRELOAD_INTERACTIONS: usize = 3;
/// Fresh interactions start here: past every preloaded timestamp, so an
/// upload onto a preloaded history is never out of order.
const FRESH_BASE_DAYS: i64 = 240;
/// Share of round trips whose upload replays a spent token.
pub const REPLAY_FRAC: f64 = 0.01;
/// Share of round trips whose upload carries a forged signature.
pub const FORGE_FRAC: f64 = 0.005;

/// The world every process of a run derives: the `failover_e2e` shape
/// (daemon start-up stays in the tens of milliseconds) at the run's seed.
pub fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        users_per_zipcode: 50,
        horizon: SimDuration::days(FRESH_BASE_DAYS),
        ..WorldConfig::tiny(seed)
    }
}

/// The flags that make a daemon derive [`world_config`].
pub fn world_flags(seed: u64) -> Vec<String> {
    [
        "--seed",
        &seed.to_string(),
        "--users-per-zipcode",
        "50",
        "--horizon-days",
        "240",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build the cumulative table.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cumulative: Vec<f64> = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Probability of rank `k`.
    pub fn prob(&self, k: usize) -> f64 {
        self.cumulative[k] - if k == 0 { 0.0 } else { self.cumulative[k - 1] }
    }

    /// Draw a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The device-local secret `Ru` of pool device `u` at `seed`.
pub fn device_secret(seed: u64, device: u64) -> DeviceSecret {
    let mut bytes = [0u8; 32];
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(
            &derive_seed_indexed(seed, "bench-device-secret", device * 4 + i as u64).to_le_bytes(),
        );
    }
    DeviceSecret::from_bytes(bytes)
}

/// One preloaded history.
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    /// `hash(Ru, e)`.
    pub record_id: RecordId,
    /// The entity.
    pub entity: EntityId,
    /// Time-ordered interactions.
    pub interactions: [Interaction; PRELOAD_INTERACTIONS],
}

/// The inputs every workload shares.
pub struct Dataset {
    /// The run's seed.
    pub seed: u64,
    /// The world's entity ids in Zipf rank order (rank 0 most popular).
    pub entities: Vec<EntityId>,
    /// Popularity over [`Self::entities`].
    pub zipf: Zipf,
    /// Every distinct `(zipcode, category)` the world lists.
    pub queries: Vec<SearchQuery>,
    /// The preload.
    pub histories: Vec<History>,
}

impl Dataset {
    /// Generate the dataset: `target` histories (user × entity, entity
    /// Zipf(1.0)-popular, users distinct within an entity so every
    /// `(user, entity)` pair — every record id — appears once).
    pub fn generate(world: &World, seed: u64, target: usize) -> Dataset {
        let mut rng = rng_for_indexed(seed, "bench-dataset", 0);
        let mut entities: Vec<EntityId> = world.entities.iter().map(|e| e.id).collect();
        // A seeded shuffle decides which entity is popular.
        for i in (1..entities.len()).rev() {
            entities.swap(i, rng.gen_range(0..=i));
        }
        let zipf = Zipf::new(entities.len(), 1.0);
        let mut queries: Vec<SearchQuery> = world
            .entities
            .iter()
            .map(|e| SearchQuery {
                zipcode: e.zipcode,
                category: e.category,
            })
            .collect();
        queries.sort_by_key(|q| (q.zipcode, q.category));
        queries.dedup();

        let mut histories = Vec::with_capacity(target);
        for (rank, &entity) in entities.iter().enumerate() {
            let count = ((target as f64 * zipf.prob(rank)).round() as u64).min(DEVICES);
            // `count` distinct users: an arithmetic walk with a stride
            // coprime to the pool size (20 000 = 2^5 · 5^4).
            let start = rng.gen_range(0..DEVICES);
            let stride = loop {
                let s = rng.gen_range(1..DEVICES);
                if s % 2 == 1 && s % 5 != 0 {
                    break s;
                }
            };
            for j in 0..count {
                let device = (start + j * stride) % DEVICES;
                let record_id = derive_record_id(&device_secret(seed, device), entity);
                let mut at = Timestamp::EPOCH + SimDuration::minutes(rng.gen_range(0..86_400));
                let interactions = [(); PRELOAD_INTERACTIONS].map(|_| {
                    let interaction = Interaction::solo(
                        InteractionKind::Visit,
                        at,
                        SimDuration::minutes(rng.gen_range(10..90)),
                        rng.gen_range(100.0..5_000.0),
                    );
                    at += SimDuration::minutes(rng.gen_range(60..86_400));
                    interaction
                });
                histories.push(History {
                    record_id,
                    entity,
                    interactions,
                });
            }
        }
        Dataset {
            seed,
            entities,
            zipf,
            queries,
            histories,
        }
    }

    /// The preload split by hash range (`shard_index(record_id, ranges)`),
    /// one [`HistoryStore`] per range — what each range's directories hold
    /// before the first request.
    pub fn stores_by_range(&self, ranges: usize) -> Vec<HistoryStore> {
        let mut stores: Vec<HistoryStore> = (0..ranges).map(|_| HistoryStore::new()).collect();
        for h in &self.histories {
            let store = &mut stores[orsp_core::shard_index(h.record_id.as_bytes(), ranges)];
            for interaction in h.interactions {
                store
                    .append(h.record_id, h.entity, interaction)
                    .expect("preload interactions are time-ordered");
            }
        }
        stores
    }

    /// Interactions in the preload.
    pub fn preload_interactions(&self) -> u64 {
        (self.histories.len() * PRELOAD_INTERACTIONS) as u64
    }
}

/// What a round trip's upload presents instead of its fresh token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The fresh token: expected `UploadAccepted`.
    None,
    /// A token this client already spent: expected `DoubleSpend`.
    Replay,
    /// The fresh token with its signature off by one: expected `BadToken`.
    Forge,
}

/// One fresh interaction a device reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FreshOp {
    /// The reporting device (its token rate window is per device).
    pub device: DeviceId,
    /// `hash(Ru, e)`.
    pub record_id: RecordId,
    /// The entity.
    pub entity: EntityId,
    /// The interaction.
    pub interaction: Interaction,
    /// Simulated time of the request.
    pub now: Timestamp,
    /// Token body.
    pub message: [u8; 32],
    /// Injected misbehaviour.
    pub fault: Fault,
}

/// One read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadOp {
    /// Index into [`Dataset::queries`].
    Search(usize),
    /// Index into [`Dataset::entities`].
    Fetch(usize),
}

/// A client thread's request sequence. Devices are partitioned by client
/// (`device % clients == client`), so no two clients ever touch the same
/// history or token: the final state is independent of interleaving.
pub struct OpStream {
    seed: u64,
    client: u64,
    clients: u64,
    salt: u64,
    next: u64,
    rng: StdRng,
    hash: u64,
}

impl OpStream {
    /// The stream of `client` (of `clients`). `salt` separates streams
    /// that run against different clusters in one run.
    pub fn new(seed: u64, client: usize, clients: usize, salt: u64) -> OpStream {
        OpStream {
            seed,
            client: client as u64,
            clients: clients as u64,
            salt,
            next: 0,
            rng: rng_for_indexed(seed ^ salt.rotate_left(32), "bench-ops", client as u64),
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a over every op generated so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The next fresh interaction. Simulated time advances one minute per
    /// op, so per-record timestamps are monotone and no device can use up
    /// its 64-per-day token budget.
    pub fn fresh(&mut self, data: &Dataset, faults: bool) -> FreshOp {
        let serial = self.next;
        self.next += 1;
        let per_client = DEVICES / self.clients;
        let device = self.rng.gen_range(0..per_client) * self.clients + self.client;
        let entity = data.entities[data.zipf.sample(&mut self.rng)];
        let now = Timestamp::EPOCH
            + SimDuration::days(FRESH_BASE_DAYS)
            + SimDuration::minutes(serial as i64);
        let interaction = Interaction::solo(
            InteractionKind::Visit,
            now,
            SimDuration::minutes(self.rng.gen_range(10..90)),
            self.rng.gen_range(100.0..5_000.0),
        );
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        let fault = if !faults || serial == 0 {
            Fault::None
        } else if draw < REPLAY_FRAC {
            Fault::Replay
        } else if draw < REPLAY_FRAC + FORGE_FRAC {
            Fault::Forge
        } else {
            Fault::None
        };
        let mut message = [0u8; 32];
        message[..8].copy_from_slice(&self.seed.to_le_bytes());
        message[8..16].copy_from_slice(&self.salt.to_le_bytes());
        message[16..24].copy_from_slice(&serial.to_le_bytes());
        message[24..32].copy_from_slice(&(self.client ^ 0x6F72_7370_6265_6E63).to_le_bytes());
        let op = FreshOp {
            device: DeviceId::new(device),
            record_id: derive_record_id(&device_secret(data.seed, device), entity),
            entity,
            interaction,
            now,
            message,
            fault,
        };
        self.mix(&device.to_le_bytes());
        self.mix(&entity.raw().to_le_bytes());
        self.mix(&interaction.duration.as_seconds().to_le_bytes());
        self.mix(&interaction.distance_travelled_m.to_bits().to_le_bytes());
        self.mix(&[fault as u8]);
        self.mix(&message);
        op
    }

    /// The next read: two searches, then one aggregate fetch, each over a
    /// uniformly drawn query or entity of the world.
    pub fn read(&mut self, data: &Dataset) -> ReadOp {
        let serial = self.next;
        self.next += 1;
        let op = if serial % 3 == 2 {
            ReadOp::Fetch(self.rng.gen_range(0..data.entities.len()))
        } else {
            ReadOp::Search(self.rng.gen_range(0..data.queries.len()))
        };
        match op {
            ReadOp::Search(i) => self.mix(&[0, i as u8, (i >> 8) as u8]),
            ReadOp::Fetch(i) => self.mix(&[1, i as u8, (i >> 8) as u8]),
        }
        op
    }
}

/// Poisson arrival offsets (nanoseconds from the window's start) at
/// `rate_per_s`, until `window_ns`.
pub fn poisson_schedule(seed: u64, stream: u64, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mut rng = rng_for_indexed(seed, "bench-arrivals", stream);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate_per_s * 1e9;
        if t >= window_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (World, Dataset) {
        let world = World::generate(world_config(5)).unwrap();
        let data = Dataset::generate(&world, 5, 4_000);
        (world, data)
    }

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        let (_, data) = small();
        let run = |seed| {
            let mut s = OpStream::new(seed, 1, 2, 0);
            for _ in 0..500 {
                s.fresh(&data, true);
                s.read(&data);
            }
            s.hash()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let (_, again) = small();
        assert_eq!(data.histories, again.histories);
    }

    #[test]
    fn record_timestamps_are_monotone() {
        let (_, data) = small();
        for h in &data.histories {
            assert!(h.interactions.windows(2).all(|w| w[0].start <= w[1].start));
        }
        // Fresh ops on one stream only move forward, and start after
        // every preloaded interaction.
        let last_preload = data
            .histories
            .iter()
            .map(|h| h.interactions[2].start)
            .max()
            .unwrap();
        let mut s = OpStream::new(5, 0, 2, 0);
        let mut prev = last_preload;
        for _ in 0..2_000 {
            let op = s.fresh(&data, true);
            assert!(op.interaction.start > prev);
            prev = op.interaction.start;
        }
        // The store accepts the whole preload (it enforces the order).
        let stores = data.stores_by_range(3);
        assert_eq!(
            stores.iter().map(|s| s.len()).sum::<usize>(),
            data.histories.len()
        );
    }

    #[test]
    fn record_ids_are_distinct_and_clients_never_share_a_device() {
        let (_, data) = small();
        let mut ids: Vec<_> = data.histories.iter().map(|h| h.record_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), data.histories.len());
        let mut a = OpStream::new(5, 0, 2, 0);
        let mut b = OpStream::new(5, 1, 2, 0);
        for _ in 0..1_000 {
            assert_eq!(a.fresh(&data, false).device.raw() % 2, 0);
            assert_eq!(b.fresh(&data, false).device.raw() % 2, 1);
        }
    }

    #[test]
    fn zipf_head_share_is_within_tolerance() {
        let z = Zipf::new(100, 1.0);
        // H_100 = 5.187…, so rank 0 holds 19.3 % and the top ten 56.5 %.
        assert!((z.prob(0) - 0.1928).abs() < 1e-3);
        let mut rng = rng_for_indexed(9, "zipf-test", 0);
        let n = 200_000;
        let (mut head, mut top10) = (0, 0);
        for _ in 0..n {
            let k = z.sample(&mut rng);
            head += (k == 0) as u32;
            top10 += (k < 10) as u32;
        }
        assert!((head as f64 / n as f64 - 0.1928).abs() < 0.005);
        assert!((top10 as f64 / n as f64 - 0.5647).abs() < 0.005);
        // And the preload follows it.
        let (_, data) = small();
        let top = data
            .histories
            .iter()
            .filter(|h| h.entity == data.entities[0])
            .count();
        assert!((top as f64 / data.histories.len() as f64 - z_head(&data)).abs() < 0.01);
    }

    fn z_head(data: &Dataset) -> f64 {
        data.zipf.prob(0)
    }

    #[test]
    fn fault_rates_and_read_mix_match_the_spec() {
        let (_, data) = small();
        let mut s = OpStream::new(5, 0, 2, 0);
        let n = 100_000;
        let (mut replay, mut forge) = (0, 0);
        for _ in 0..n {
            match s.fresh(&data, true).fault {
                Fault::Replay => replay += 1,
                Fault::Forge => forge += 1,
                Fault::None => {}
            }
        }
        assert!((replay as f64 / n as f64 - REPLAY_FRAC).abs() < 0.002);
        assert!((forge as f64 / n as f64 - FORGE_FRAC).abs() < 0.002);
        let mut r = OpStream::new(5, 0, 2, 0);
        let searches = (0..3_000)
            .filter(|_| matches!(r.read(&data), ReadOp::Search(_)))
            .count();
        assert_eq!(searches, 2_000);
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_sorted() {
        let due = poisson_schedule(3, 0, 500.0, 20_000_000_000);
        assert!(
            (due.len() as f64 - 10_000.0).abs() < 400.0,
            "{} arrivals",
            due.len()
        );
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(due, poisson_schedule(3, 0, 500.0, 20_000_000_000));
    }
}
