//! # orsp-crypto
//!
//! From-scratch cryptographic substrate for the `orsp` privacy design
//! (§4.2 of the paper). No third-party crypto crates are available offline,
//! so everything here is implemented from the specifications:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), used to derive the unlinkable
//!   per-(user, entity) record IDs `hash(Ru, e)`;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), used for keyed derivations;
//! * [`bigint`] — an arbitrary-precision unsigned integer with the modular
//!   arithmetic RSA needs;
//! * [`prime`] — Miller–Rabin primality testing and random prime
//!   generation;
//! * [`rsa`] — textbook RSA keypairs (sign / verify on digests);
//! * [`blind`] — Chaum blind signatures \[CRYPTO '83\], the primitive the
//!   paper cites for rate-limit tokens: the RSP signs a *blinded* token so
//!   that issue and redemption are unlinkable;
//! * [`token`] — the blind-token protocol: rate-limited issuance, the
//!   token's ledger key, and the [`UploadRequest`] a token is spent on
//!   (the spend ledger itself lives in `orsp-server`'s `ShardedIngest`);
//! * [`record`] — derivation of [`orsp_types::RecordId`] from the device
//!   secret `Ru` and an entity id.
//!
//! ## Security posture
//!
//! This is **simulation-grade** cryptography: the served mint uses 256-bit
//! RSA (signing by CRT, each signature checked before release), there is
//! no padding (signatures are over fixed-length digests), and no
//! constant-time discipline. The
//! *protocol semantics* — blindness, unlinkability, unforgeability against
//! the simulated adversary, double-spend detection — are real and are what
//! the paper's design depends on; the parameters are not deployment-ready.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod blind;
pub mod hmac;
pub mod prime;
pub mod record;
pub mod rsa;
pub mod sha256;
pub mod token;

pub use bigint::BigUint;
pub use blind::{BlindSignature, BlindedMessage, BlindingSession};
pub use record::{derive_record_id, DeviceSecret};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::{sha256, Sha256};
pub use token::{Token, TokenIssuer, TokenMint, TokenWallet, UploadRequest};
