//! A threshold/timeout batch mix.
//!
//! Messages pool inside the mix; a batch flushes when either the pool
//! reaches `threshold` messages or the oldest message has waited
//! `max_latency`. Flushed batches are shuffled so exit order carries no
//! information about arrival order — this is the standard mix-net defence
//! the paper's "asynchronous upload" assumption leans on.

use crate::channel::AnonymousUpload;
use orsp_types::rng::rng_for;
use orsp_types::{SimDuration, Timestamp};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Mix parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixConfig {
    /// Flush when this many messages are pooled.
    pub threshold: usize,
    /// Flush when the oldest pooled message has waited this long.
    pub max_latency: SimDuration,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig { threshold: 32, max_latency: SimDuration::hours(6) }
    }
}

/// The batch mix.
pub struct BatchMix {
    config: MixConfig,
    pool: VecDeque<(Timestamp, AnonymousUpload)>,
    rng: StdRng,
    /// Total messages accepted.
    pub accepted: u64,
    /// Total messages flushed.
    pub flushed: u64,
}

impl BatchMix {
    /// A mix with the given config; `seed` drives the shuffle.
    pub fn new(config: MixConfig, seed: u64) -> Self {
        BatchMix {
            config,
            pool: VecDeque::new(),
            rng: rng_for(seed, "mix"),
            accepted: 0,
            flushed: 0,
        }
    }

    /// Submit a message at time `now`.
    pub fn submit(&mut self, upload: AnonymousUpload, now: Timestamp) {
        self.accepted += 1;
        self.pool.push_back((now, upload));
    }

    /// Advance the clock: flush zero or more batches due at `now`.
    /// Each returned batch is internally shuffled.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Vec<AnonymousUpload>> {
        let mut batches = Vec::new();
        loop {
            let due_by_size = self.pool.len() >= self.config.threshold;
            let due_by_time = self
                .pool
                .front()
                .map(|(t, _)| now - *t >= self.config.max_latency)
                .unwrap_or(false);
            if !due_by_size && !due_by_time {
                break;
            }
            let take = self.pool.len().min(self.config.threshold);
            let mut batch: Vec<AnonymousUpload> = self.pool.drain(..take).map(|(_, u)| u).collect();
            // Fisher–Yates shuffle.
            for i in (1..batch.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                batch.swap(i, j);
            }
            self.flushed += batch.len() as u64;
            batches.push(batch);
        }
        batches
    }

    /// Flush everything (end of simulation), shuffled as one batch.
    pub fn drain(&mut self) -> Vec<AnonymousUpload> {
        let mut batch: Vec<AnonymousUpload> = self.pool.drain(..).map(|(_, u)| u).collect();
        for i in (1..batch.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            batch.swap(i, j);
        }
        self.flushed += batch.len() as u64;
        batch
    }

    /// Messages currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LinkageScheme;
    use orsp_crypto::{BigUint, Token, UploadRequest};
    use orsp_types::{DeviceId, EntityId, Interaction, InteractionKind, RecordId};

    fn upload(entity: u64, t: i64) -> AnonymousUpload {
        let salt = [1u8; 32];
        AnonymousUpload {
            channel: LinkageScheme::Unlinkable.channel_id(
                DeviceId::new(0),
                &salt,
                EntityId::new(entity),
            ),
            request: UploadRequest {
                record_id: RecordId::from_bytes([entity as u8; 32]),
                entity: EntityId::new(entity),
                interaction: Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(t),
                    SimDuration::minutes(30),
                    10.0,
                ),
                token: Token { message: [0u8; 32], signature: BigUint::zero() },
                release_at: Timestamp::from_seconds(t),
            },
            submitted_at: Timestamp::from_seconds(t),
        }
    }

    #[test]
    fn flush_on_threshold() {
        let mut mix = BatchMix::new(MixConfig { threshold: 4, max_latency: SimDuration::DAY }, 1);
        let now = Timestamp::EPOCH;
        for i in 0..3 {
            mix.submit(upload(i, 0), now);
        }
        assert!(mix.tick(now).is_empty(), "below threshold");
        mix.submit(upload(3, 0), now);
        let batches = mix.tick(now);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(mix.pooled(), 0);
    }

    #[test]
    fn flush_on_timeout() {
        let mut mix =
            BatchMix::new(MixConfig { threshold: 100, max_latency: SimDuration::hours(1) }, 2);
        mix.submit(upload(0, 0), Timestamp::EPOCH);
        mix.submit(upload(1, 0), Timestamp::EPOCH);
        assert!(mix.tick(Timestamp::from_seconds(1_800)).is_empty());
        let batches = mix.tick(Timestamp::from_seconds(3_600));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn batches_are_shuffled() {
        let mut mix = BatchMix::new(MixConfig { threshold: 64, max_latency: SimDuration::DAY }, 3);
        let now = Timestamp::EPOCH;
        for i in 0..64 {
            mix.submit(upload(i, 0), now);
        }
        let batch = &mix.tick(now)[0];
        let order: Vec<u64> = batch.iter().map(|u| u.request.entity.raw()).collect();
        let sorted: Vec<u64> = (0..64).collect();
        assert_ne!(order, sorted, "exit order must not equal arrival order");
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, sorted, "nothing lost or duplicated");
    }

    #[test]
    fn drain_flushes_remainder() {
        let mut mix = BatchMix::new(MixConfig::default(), 4);
        for i in 0..5 {
            mix.submit(upload(i, 0), Timestamp::EPOCH);
        }
        let rest = mix.drain();
        assert_eq!(rest.len(), 5);
        assert_eq!(mix.pooled(), 0);
        assert_eq!(mix.accepted, 5);
        assert_eq!(mix.flushed, 5);
    }

    #[test]
    fn multiple_batches_per_tick() {
        let mut mix = BatchMix::new(MixConfig { threshold: 2, max_latency: SimDuration::DAY }, 5);
        let now = Timestamp::EPOCH;
        for i in 0..7 {
            mix.submit(upload(i, 0), now);
        }
        let batches = mix.tick(now);
        assert_eq!(batches.len(), 3, "three full batches");
        assert_eq!(mix.pooled(), 1, "one message left below threshold");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::channel::LinkageScheme;
    use orsp_crypto::{BigUint, Token, UploadRequest};
    use orsp_types::{DeviceId, EntityId, Interaction, InteractionKind, RecordId};
    use proptest::prelude::*;

    fn upload(entity: u64, t: i64) -> AnonymousUpload {
        AnonymousUpload {
            channel: LinkageScheme::Unlinkable.channel_id(
                DeviceId::new(0),
                &[1u8; 32],
                EntityId::new(entity),
            ),
            request: UploadRequest {
                record_id: RecordId::from_bytes([(entity % 251) as u8; 32]),
                entity: EntityId::new(entity),
                interaction: Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(t),
                    SimDuration::minutes(10),
                    1.0,
                ),
                token: Token { message: [0u8; 32], signature: BigUint::zero() },
                release_at: Timestamp::from_seconds(t),
            },
            submitted_at: Timestamp::from_seconds(t),
        }
    }

    proptest! {
        /// Conservation: whatever the submit pattern and mix parameters,
        /// every message comes out exactly once and nothing is invented.
        #[test]
        fn mix_conserves_messages(
            times in proptest::collection::vec(0i64..1_000_000, 1..120),
            threshold in 1usize..50,
            latency_s in 60i64..100_000,
        ) {
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut mix = BatchMix::new(
                MixConfig { threshold, max_latency: SimDuration::seconds(latency_s) },
                7,
            );
            let mut out = Vec::new();
            for (i, &t) in sorted.iter().enumerate() {
                mix.submit(upload(i as u64, t), Timestamp::from_seconds(t));
                for batch in mix.tick(Timestamp::from_seconds(t)) {
                    out.extend(batch);
                }
            }
            out.extend(mix.drain());
            prop_assert_eq!(out.len(), sorted.len());
            let mut ids: Vec<u64> = out.iter().map(|u| u.request.entity.raw()).collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0..sorted.len() as u64).collect();
            prop_assert_eq!(ids, expected);
            prop_assert_eq!(mix.accepted, sorted.len() as u64);
            prop_assert_eq!(mix.flushed, sorted.len() as u64);
        }
    }
}
