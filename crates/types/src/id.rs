//! Typed identifiers.
//!
//! Every domain object is keyed by a newtype over `u64` so that ids of
//! different kinds cannot be confused at compile time. [`RecordId`] is the
//! one exception: it is an *opaque 32-byte* identifier because the paper's
//! privacy design (§4.2) derives it as `hash(Ru, e)` — the server must not
//! be able to recover either the user or the entity from it.

use std::fmt;

macro_rules! define_u64_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw `u64`.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw `u64` value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

define_u64_id!(
    /// A user of the recommendation service.
    UserId,
    "u"
);
define_u64_id!(
    /// An entity that users interact with: a restaurant, doctor, service
    /// provider, app, or video.
    EntityId,
    "e"
);
define_u64_id!(
    /// A physical device (phone) carried by a user. A user may replace
    /// devices over time; the client's secret `Ru` lives on the device.
    DeviceId,
    "d"
);
define_u64_id!(
    /// A search query issued against the service (zipcode × category).
    QueryId,
    "q"
);
define_u64_id!(
    /// An explicitly posted review.
    ReviewId,
    "r"
);
define_u64_id!(
    /// A group of users who interact with an entity together (§4.1:
    /// group visits must not inflate aggregate activity).
    GroupId,
    "g"
);
define_u64_id!(
    /// A blind-signed rate-limit token handed out by the RSP (§4.2).
    TokenId,
    "t"
);

/// Opaque identifier for an anonymous per-(user, entity) interaction
/// history stored at the RSP's servers.
///
/// Derived on-device as `SHA-256(Ru || entity)` so that:
///
/// * two histories stored by the same user for different entities are
///   unlinkable,
/// * the device need not store an `(entity, id)` map — the id is
///   recomputable from the locally-held secret `Ru`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub [u8; 32]);

impl RecordId {
    /// Construct from raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A short hex prefix, for logs and debugging only.
    pub fn short_hex(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RecordId({}..)", self.short_hex())
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_prefixes_distinguish_kinds() {
        assert_eq!(UserId::new(7).to_string(), "u7");
        assert_eq!(EntityId::new(7).to_string(), "e7");
        assert_eq!(DeviceId::new(7).to_string(), "d7");
        assert_eq!(QueryId::new(1).to_string(), "q1");
        assert_eq!(ReviewId::new(2).to_string(), "r2");
        assert_eq!(GroupId::new(3).to_string(), "g3");
        assert_eq!(TokenId::new(4).to_string(), "t4");
    }

    #[test]
    fn raw_round_trips() {
        let id = EntityId::from(42u64);
        assert_eq!(id.raw(), 42);
        assert_eq!(EntityId::new(id.raw()), id);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(UserId::new(1));
        set.insert(UserId::new(1));
        set.insert(UserId::new(2));
        assert_eq!(set.len(), 2);
        assert!(UserId::new(1) < UserId::new(2));
    }

    #[test]
    fn record_id_display_is_full_hex() {
        let id = RecordId::from_bytes([0xab; 32]);
        let s = id.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c == 'a' || c == 'b'));
    }

    #[test]
    fn record_id_short_hex_is_prefix() {
        let id = RecordId::from_bytes([0x01; 32]);
        assert_eq!(id.short_hex(), "010101010101");
        assert!(id.to_string().starts_with(&id.short_hex()));
    }

    #[test]
    fn record_id_debug_is_truncated() {
        let id = RecordId::from_bytes([0xff; 32]);
        let dbg = format!("{id:?}");
        assert!(dbg.starts_with("RecordId("));
        assert!(dbg.len() < 30);
    }
}
