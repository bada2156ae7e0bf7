//! Unlinkable upload channels.
//!
//! A channel is the client's route for one entity's uploads. Under the
//! paper's design the channel identifier carries no information about the
//! device ([`LinkageScheme::Unlinkable`]); the contrast scheme
//! ([`LinkageScheme::DevicePrefixed`]) models the naive design an RSP
//! might ship instead — channel ids derived from a device-stable
//! identifier — which the linkage-attack evaluator happily demolishes.

use orsp_crypto::sha256::sha256;
use orsp_crypto::UploadRequest;
use orsp_types::{DeviceId, EntityId, Timestamp};

/// Identifier of an anonymous channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub [u8; 16]);

impl ChannelId {
    /// Short hex for display.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// How channel ids are derived — the privacy-relevant design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkageScheme {
    /// Paper design: channel id = `H(device secret salt ‖ entity)` where
    /// the salt never leaves the device; two channels of one device are
    /// unlinkable.
    Unlinkable,
    /// Naive design: channel id = `H(device id ‖ entity)` with the device
    /// id *recoverable by the server* (it issued it). All of a device's
    /// channels are trivially linkable.
    DevicePrefixed,
}

impl LinkageScheme {
    /// Derive the channel id for (device, entity) under this scheme.
    ///
    /// `device_salt` models the on-device random secret (unknown to the
    /// adversary); `device` is the server-known device id.
    pub fn channel_id(
        self,
        device: DeviceId,
        device_salt: &[u8; 32],
        entity: EntityId,
    ) -> ChannelId {
        let mut buf = Vec::with_capacity(64);
        match self {
            LinkageScheme::Unlinkable => {
                buf.extend_from_slice(b"chan.unlinkable");
                buf.extend_from_slice(device_salt);
                buf.extend_from_slice(&entity.raw().to_be_bytes());
            }
            LinkageScheme::DevicePrefixed => {
                buf.extend_from_slice(b"chan.device");
                buf.extend_from_slice(&device.raw().to_be_bytes());
                buf.extend_from_slice(&entity.raw().to_be_bytes());
            }
        }
        let digest = sha256(&buf);
        let mut id = [0u8; 16];
        id.copy_from_slice(&digest[..16]);
        ChannelId(id)
    }

    /// The adversary's linkage oracle for the naive scheme: given the set
    /// of device ids the server knows, recover which device owns a
    /// channel (by brute-forcing the public derivation). Returns `None`
    /// under the unlinkable scheme — there is nothing to brute-force
    /// without the on-device salt.
    pub fn recover_device(
        self,
        channel: ChannelId,
        devices: &[DeviceId],
        entities: &[EntityId],
    ) -> Option<DeviceId> {
        match self {
            LinkageScheme::Unlinkable => None,
            LinkageScheme::DevicePrefixed => {
                let dummy_salt = [0u8; 32];
                for &d in devices {
                    for &e in entities {
                        if self.channel_id(d, &dummy_salt, e) == channel {
                            return Some(d);
                        }
                    }
                }
                None
            }
        }
    }
}

/// One upload in flight through the anonymity network.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymousUpload {
    /// The channel it travels on.
    pub channel: ChannelId,
    /// The payload (record id, entity, interaction, token).
    pub request: UploadRequest,
    /// When the client handed it to the network.
    pub submitted_at: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlinkable_ids_differ_per_entity_and_salt() {
        let s = LinkageScheme::Unlinkable;
        let salt_a = [1u8; 32];
        let salt_b = [2u8; 32];
        let d = DeviceId::new(1);
        assert_ne!(
            s.channel_id(d, &salt_a, EntityId::new(1)),
            s.channel_id(d, &salt_a, EntityId::new(2))
        );
        assert_ne!(
            s.channel_id(d, &salt_a, EntityId::new(1)),
            s.channel_id(d, &salt_b, EntityId::new(1))
        );
    }

    #[test]
    fn unlinkable_ignores_device_id() {
        // The device id must not influence the unlinkable derivation —
        // otherwise the server could brute-force it.
        let s = LinkageScheme::Unlinkable;
        let salt = [7u8; 32];
        assert_eq!(
            s.channel_id(DeviceId::new(1), &salt, EntityId::new(9)),
            s.channel_id(DeviceId::new(2), &salt, EntityId::new(9))
        );
    }

    #[test]
    fn device_prefixed_is_recoverable() {
        let s = LinkageScheme::DevicePrefixed;
        let salt = [0u8; 32];
        let devices: Vec<DeviceId> = (0..10).map(DeviceId::new).collect();
        let entities: Vec<EntityId> = (0..5).map(EntityId::new).collect();
        let ch = s.channel_id(DeviceId::new(7), &salt, EntityId::new(3));
        assert_eq!(s.recover_device(ch, &devices, &entities), Some(DeviceId::new(7)));
    }

    #[test]
    fn unlinkable_is_not_recoverable() {
        let s = LinkageScheme::Unlinkable;
        let salt = [9u8; 32]; // secret: adversary doesn't have it
        let devices: Vec<DeviceId> = (0..10).map(DeviceId::new).collect();
        let entities: Vec<EntityId> = (0..5).map(EntityId::new).collect();
        let ch = s.channel_id(DeviceId::new(7), &salt, EntityId::new(3));
        assert_eq!(s.recover_device(ch, &devices, &entities), None);
    }

    #[test]
    fn derivation_is_stable() {
        let s = LinkageScheme::Unlinkable;
        let salt = [3u8; 32];
        assert_eq!(
            s.channel_id(DeviceId::new(1), &salt, EntityId::new(1)),
            s.channel_id(DeviceId::new(1), &salt, EntityId::new(1))
        );
    }
}
