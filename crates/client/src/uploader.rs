//! Asynchronous anonymous upload scheduling (§4.2).
//!
//! *"since there is no need for real-time dissemination or discovery of
//! recommendations in the domains we are considering ..., an RSP's app can
//! upload all of its inferences asynchronously, thereby preventing timing
//! attacks."*
//!
//! Each queued inference is released after a random delay drawn uniformly
//! from the async window, and each entity's uploads go out on their own
//! unlinkable channel (channel separation itself lives in `orsp-anonet`;
//! here we prepare one [`UploadRequest`] per inference with its own
//! record id and rate-limit token).

use orsp_crypto::{TokenIssuer, TokenWallet, UploadRequest};
use orsp_types::{EntityId, Interaction, RecordId, SimDuration, Timestamp};
use rand::Rng;
use std::collections::BinaryHeap;

/// Min-heap ordering by release time.
#[derive(Debug, Clone, PartialEq)]
struct Queued(UploadRequest);

impl Eq for Queued {}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on release time.
        other
            .0
            .release_at
            .cmp(&self.0.release_at)
            .then_with(|| other.0.entity.cmp(&self.0.entity))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Client-side upload scheduler.
#[derive(Debug)]
pub struct UploadScheduler {
    /// Maximum random deferral applied to each upload.
    window: SimDuration,
    queue: BinaryHeap<Queued>,
    /// Inferences dropped because no token could be obtained.
    pub starved: u64,
}

impl UploadScheduler {
    /// A scheduler deferring uploads uniformly within `window`.
    pub fn new(window: SimDuration) -> Self {
        UploadScheduler { window, queue: BinaryHeap::new(), starved: 0 }
    }

    /// Queue an inference at time `now`; takes a token from the wallet
    /// (topping up from the mint if needed). Without a token the inference
    /// is counted as starved and dropped — the server would reject it
    /// anyway.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        record_id: RecordId,
        entity: EntityId,
        interaction: Interaction,
        wallet: &mut TokenWallet,
        mint: &mut M,
        now: Timestamp,
    ) -> bool {
        if wallet.balance() == 0 {
            wallet.top_up(rng, mint, now, 4);
        }
        let Some(token) = wallet.take_token() else {
            self.starved += 1;
            return false;
        };
        let delay = SimDuration::seconds(rng.gen_range(0..=self.window.as_seconds().max(1)));
        self.queue.push(Queued(UploadRequest {
            record_id,
            entity,
            interaction,
            token,
            release_at: now + delay,
        }));
        true
    }

    /// Pop every request whose release time has arrived.
    pub fn release_due(&mut self, now: Timestamp) -> Vec<UploadRequest> {
        let mut out = Vec::new();
        while let Some(q) = self.queue.peek() {
            if q.0.release_at <= now {
                out.push(self.queue.pop().unwrap().0);
            } else {
                break;
            }
        }
        out
    }

    /// Drain everything regardless of release time (end of simulation).
    pub fn drain_all(&mut self) -> Vec<UploadRequest> {
        let mut out: Vec<UploadRequest> = Vec::with_capacity(self.queue.len());
        while let Some(q) = self.queue.pop() {
            out.push(q.0);
        }
        out
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_crypto::{DeviceSecret, TokenMint};
    use orsp_types::{DeviceId, InteractionKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (UploadScheduler, TokenWallet, TokenMint, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let mint = TokenMint::new(&mut rng, 256, 100, SimDuration::DAY);
        let wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        (UploadScheduler::new(SimDuration::hours(12)), wallet, mint, rng)
    }

    fn interaction(t: i64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(t),
            SimDuration::minutes(30),
            100.0,
        )
    }

    fn rid(entity: u64) -> RecordId {
        orsp_crypto::derive_record_id(&DeviceSecret::from_bytes([1; 32]), EntityId::new(entity))
    }

    #[test]
    fn uploads_are_deferred_within_window() {
        let (mut sched, mut wallet, mut mint, mut rng) = setup();
        let now = Timestamp::from_seconds(1_000);
        for i in 0..20 {
            assert!(sched.enqueue(
                &mut rng,
                rid(i),
                EntityId::new(i),
                interaction(900),
                &mut wallet,
                &mut mint,
                now
            ));
        }
        assert_eq!(sched.pending(), 20);
        // Nothing released immediately unless delay was ~0; all released
        // by the end of the window.
        let early = sched.release_due(now).len();
        assert!(early <= 3, "most uploads deferred, got {early} immediately");
        let late = sched.release_due(now + SimDuration::hours(12));
        assert_eq!(early + late.len(), 20);
        for r in &late {
            assert!(r.release_at <= now + SimDuration::hours(12));
            assert!(r.release_at >= now);
        }
    }

    #[test]
    fn release_is_chronological() {
        let (mut sched, mut wallet, mut mint, mut rng) = setup();
        let now = Timestamp::EPOCH;
        for i in 0..30 {
            sched.enqueue(
                &mut rng,
                rid(i),
                EntityId::new(i),
                interaction(0),
                &mut wallet,
                &mut mint,
                now,
            );
        }
        let all = sched.release_due(now + SimDuration::DAY);
        for pair in all.windows(2) {
            assert!(pair[0].release_at <= pair[1].release_at);
        }
    }

    #[test]
    fn starvation_counted_when_mint_refuses() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mint = TokenMint::new(&mut rng, 256, 2, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let mut sched = UploadScheduler::new(SimDuration::hours(1));
        let now = Timestamp::EPOCH;
        let mut ok = 0;
        for i in 0..5 {
            if sched.enqueue(
                &mut rng,
                rid(i),
                EntityId::new(i),
                interaction(0),
                &mut wallet,
                &mut mint,
                now,
            ) {
                ok += 1;
            }
        }
        assert_eq!(ok, 2, "rate limit of 2 per day");
        assert_eq!(sched.starved, 3);
    }

    #[test]
    fn drain_all_empties_queue() {
        let (mut sched, mut wallet, mut mint, mut rng) = setup();
        for i in 0..5 {
            sched.enqueue(
                &mut rng,
                rid(i),
                EntityId::new(i),
                interaction(0),
                &mut wallet,
                &mut mint,
                Timestamp::EPOCH,
            );
        }
        assert_eq!(sched.drain_all().len(), 5);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn tokens_are_unique_per_upload() {
        let (mut sched, mut wallet, mut mint, mut rng) = setup();
        for i in 0..4 {
            sched.enqueue(
                &mut rng,
                rid(i),
                EntityId::new(i),
                interaction(0),
                &mut wallet,
                &mut mint,
                Timestamp::EPOCH,
            );
        }
        let reqs = sched.drain_all();
        let mut messages: Vec<[u8; 32]> = reqs.iter().map(|r| r.token.message).collect();
        messages.sort_unstable();
        messages.dedup();
        assert_eq!(messages.len(), 4);
    }
}
