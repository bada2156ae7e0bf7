//! Payment records: the "digital footprints" of §1 — card / mobile-pay
//! transactions whose merchant string the client can map to an entity.

use orsp_types::{Timestamp, UserId};
use orsp_world::{ActivityKind, World};

/// One payment, as a wallet app would expose it: a merchant descriptor
/// string and an amount. No entity id — mapping is the client's job.
#[derive(Debug, Clone, PartialEq)]
pub struct PaymentRecord {
    /// When the payment cleared.
    pub time: Timestamp,
    /// Merchant descriptor (the entity's registered name).
    pub merchant: String,
    /// Amount in cents.
    pub amount_cents: u64,
}

/// Extract a user's payment feed from the world trace.
pub fn payment_feed(world: &World, user: UserId) -> Vec<PaymentRecord> {
    world
        .events
        .iter()
        .filter(|e| e.user == user)
        .filter_map(|e| match e.kind {
            ActivityKind::Payment { amount_cents } => Some(PaymentRecord {
                time: e.start,
                merchant: world.entity(e.entity)?.name.clone(),
                amount_cents,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_world::{World, WorldConfig};

    #[test]
    fn payments_extracted_chronologically() {
        let w = World::generate(WorldConfig::tiny(37)).unwrap();
        let payer = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::Payment { .. }))
            .map(|e| e.user)
            .expect("some payment exists");
        let feed = payment_feed(&w, payer);
        assert!(!feed.is_empty());
        for pair in feed.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for p in &feed {
            assert!(p.amount_cents > 0);
            assert!(
                w.entities.iter().any(|e| e.name == p.merchant),
                "merchant {} resolvable",
                p.merchant
            );
        }
    }

    #[test]
    fn empty_for_unknown_user() {
        let w = World::generate(WorldConfig::tiny(37)).unwrap();
        assert!(payment_feed(&w, UserId::new(8_888_888)).is_empty());
    }
}
