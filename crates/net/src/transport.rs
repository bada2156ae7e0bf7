//! The `Transport` abstraction: one blocking request/response call.
//!
//! Two implementations ship: [`InMemoryTransport`] routes through the
//! full codec to an in-process [`RspService`] — deterministic, so
//! integration tests stay bit-reproducible — and
//! [`crate::client::TcpTransport`] crosses a real socket. Code written
//! against the trait (the served pipeline, the token issuer below) cannot
//! tell them apart.

use crate::error::NetError;
use crate::router::RspService;
use crate::wire::{Request, Response};
use orsp_crypto::{BlindSignature, BlindedMessage, TokenIssuer};
use orsp_types::{DeviceId, OrspError, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A blocking request/response channel to an RSP service.
///
/// `&self` receivers + `Sync` so one transport can serve many worker
/// threads (implementations use interior mutability where needed).
pub trait Transport: Sync {
    /// Send one request and wait for its response.
    fn call(&self, request: &Request) -> Result<Response, NetError>;
}

/// In-process transport: every call still round-trips through the wire
/// codec (encode → decode → handle → encode → decode), so the bytes a
/// TCP peer would see are exactly the bytes exercised here — only the
/// socket is missing. Deterministic and loss-free.
pub struct InMemoryTransport {
    service: Arc<RspService>,
    calls: AtomicU64,
}

impl InMemoryTransport {
    /// A transport owning its service.
    pub fn new(service: RspService) -> Self {
        InMemoryTransport { service: Arc::new(service), calls: AtomicU64::new(0) }
    }

    /// The service behind the transport.
    pub fn service(&self) -> &RspService {
        &self.service
    }

    /// Total calls made through this transport.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Recover the service (fails if clones of the internal handle are
    /// still alive; the base transport holds the only one).
    pub fn into_service(self) -> RspService {
        Arc::try_unwrap(self.service).unwrap_or_else(|_| panic!("service handle still shared"))
    }
}

impl Transport for InMemoryTransport {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        // Full codec fidelity: what arrives at the service is what a
        // socket peer would have delivered.
        let request_frame = request.encode();
        let response_frame = self.service.handle_frame(&request_frame);
        Ok(Response::decode(&response_frame)?)
    }
}

/// A [`TokenIssuer`] that issues over any transport: lets the unmodified
/// client wallet (`TokenWallet::request_token`) pull blind signatures
/// from a remote mint.
pub struct RemoteIssuer<'a, T: Transport + ?Sized> {
    transport: &'a T,
}

impl<'a, T: Transport + ?Sized> RemoteIssuer<'a, T> {
    /// An issuer over `transport`.
    pub fn new(transport: &'a T) -> Self {
        RemoteIssuer { transport }
    }
}

impl<T: Transport + ?Sized> TokenIssuer for RemoteIssuer<'_, T> {
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<BlindSignature> {
        let request = Request::IssueToken { device, blinded: blinded.clone(), now };
        match self.transport.call(&request) {
            Ok(Response::TokenIssued { signature }) => Ok(signature),
            Ok(Response::TokenDenied { reason }) => Err(OrspError::InvalidToken(reason)),
            Ok(other) => Err(OrspError::Crypto(format!("unexpected response {other:?}"))),
            Err(e) => Err(OrspError::Crypto(format!("transport failure: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServiceConfig;
    use orsp_crypto::{TokenMint, TokenWallet};
    use orsp_search::{Ranker, SearchIndex};
    use orsp_types::rng::rng_for;
    use orsp_types::SimDuration;
    use std::collections::HashMap;

    fn transport() -> InMemoryTransport {
        let mut rng = rng_for(11, "transport-test");
        let mint = TokenMint::new(&mut rng, 256, 8, SimDuration::DAY);
        InMemoryTransport::new(RspService::new(
            mint,
            SearchIndex::build(Vec::new()),
            HashMap::new(),
            Ranker::default(),
            ServiceConfig::default(),
        ))
    }

    #[test]
    fn ping_through_full_codec() {
        let t = transport();
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        assert_eq!(t.calls(), 1);
    }

    #[test]
    fn wallet_fills_over_transport() {
        let t = transport();
        let mut rng = rng_for(12, "transport-wallet");
        let mut wallet = TokenWallet::new(DeviceId::new(5), t.service().mint_public_key());
        let mut issuer = RemoteIssuer::new(&t);
        // `request_token` unblinds and verifies against the public key:
        // a signature that survived the codec round trip proves the
        // `BigUint` encoding is lossless.
        for _ in 0..3 {
            wallet
                .request_token(&mut rng, &mut issuer, orsp_types::Timestamp::EPOCH)
                .expect("issued");
        }
        assert_eq!(wallet.balance(), 3);
        assert_eq!(t.calls(), 3);
        assert_eq!(t.service().tokens_issued(), 3);
    }

    #[test]
    fn rate_limit_surfaces_as_invalid_token() {
        let t = transport();
        let mut rng = rng_for(13, "transport-limit");
        let mut wallet = TokenWallet::new(DeviceId::new(6), t.service().mint_public_key());
        let mut issuer = RemoteIssuer::new(&t);
        let got = wallet.top_up(&mut rng, &mut issuer, orsp_types::Timestamp::EPOCH, 100);
        assert_eq!(got, 8, "mint caps at tokens_per_window");
    }
}
