//! The blind-token protocol: rate-limited issuance + anonymous redemption.
//!
//! Issuance is *authenticated* (the mint knows which device is asking, and
//! enforces a per-device rate limit — §4.2), but the token the device later
//! presents is *unlinkable* to the issuance thanks to blinding. Redemption
//! is anonymous: the server checks only that the signature verifies and the
//! token has not been spent before.

use crate::bigint::BigUint;
use crate::blind::{try_sign_blinded, verify_unblinded, BlindedMessage, BlindingSession};
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::sha256;
use orsp_types::{DeviceId, EntityId, Interaction, OrspError, RecordId, SimDuration, Timestamp};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A spendable token: a random message and the mint's unblinded signature
/// on its digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Random 32-byte token body (chosen by the device; never seen by the
    /// mint at issue time).
    pub message: [u8; 32],
    /// Unblinded RSA signature over `sha256(message)`.
    pub signature: BigUint,
}

impl Token {
    /// The token's spend-ledger key.
    pub fn ledger_key(&self) -> [u8; 32] {
        sha256(&self.message)
    }
}

/// One inference ready to travel through the anonymity network, and the
/// body of the `Upload` RPC.
///
/// Contents are anonymous-by-construction: the record id is `hash(Ru, e)`
/// ([`crate::derive_record_id`]), the entity id is needed by the server
/// for aggregation, the interaction carries only §4.2's features, and the
/// token is unlinkable to its issuance.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadRequest {
    /// Opaque per-(user, entity) history id.
    pub record_id: RecordId,
    /// The entity the record concerns (needed for aggregation).
    pub entity: EntityId,
    /// The inferred interaction.
    pub interaction: Interaction,
    /// Blind rate-limit token.
    pub token: Token,
    /// When the client releases this request into the network.
    pub release_at: Timestamp,
}

/// Outcome of presenting a token to the redemption ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpendOutcome {
    /// Fresh, valid token — accepted and now marked spent.
    Accepted,
    /// Signature did not verify (forged or corrupted).
    Invalid,
    /// Valid signature but the token was already spent.
    DoubleSpend,
}

/// Anything a wallet can request blind signatures from.
///
/// The two implementations split the issuance path for concurrency: the
/// mutable-accounting half (per-device rate limits) is cheap and sits
/// under a lock when shared, while the expensive half — the RSA blind
/// signature — is a pure function of the keypair and can run outside any
/// lock. [`TokenMint`] itself implements the trait for single-threaded
/// callers; `&Mutex<TokenMint>` implements it for worker pools, holding
/// the lock only for the accounting.
pub trait TokenIssuer {
    /// Sign a blinded message for `device` at time `now`, enforcing the
    /// per-device rate limit.
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<crate::blind::BlindSignature>;
}

/// The RSP's token mint: issues blind signatures at a limited rate per
/// device, and maintains the redemption ledger.
pub struct TokenMint {
    /// Shared so concurrent issuers can sign outside the mint's lock.
    keypair: Arc<RsaKeyPair>,
    /// Tokens each device may obtain per rate window.
    tokens_per_window: u32,
    window: SimDuration,
    /// Per-device issuance accounting: (window start, count this window).
    issuance: HashMap<DeviceId, (Timestamp, u32)>,
    /// Spent-token ledger (digest of message → spend time).
    spent: HashMap<[u8; 32], Timestamp>,
    issued_total: u64,
}

impl TokenMint {
    /// Create a mint with a fresh keypair.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        modulus_bits: usize,
        tokens_per_window: u32,
        window: SimDuration,
    ) -> Self {
        TokenMint {
            keypair: Arc::new(RsaKeyPair::generate(rng, modulus_bits)),
            tokens_per_window,
            window,
            issuance: HashMap::new(),
            spent: HashMap::new(),
            issued_total: 0,
        }
    }

    /// The mint's public key (distributed to devices and verifiers).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.keypair.public
    }

    /// Total blind signatures issued.
    pub fn issued_total(&self) -> u64 {
        self.issued_total
    }

    /// Number of tokens spent so far.
    pub fn spent_total(&self) -> usize {
        self.spent.len()
    }

    /// Account for one issuance to `device` at time `now`: roll the rate
    /// window forward and reject when the per-device budget is spent. On
    /// `Ok` the caller is entitled to exactly one blind signature. Split
    /// out from [`Self::issue`] so a shared mint can do this bookkeeping
    /// under a lock and sign outside it.
    pub fn authorize(&mut self, device: DeviceId, now: Timestamp) -> orsp_types::Result<()> {
        let entry = self.issuance.entry(device).or_insert((now, 0));
        if now - entry.0 >= self.window {
            *entry = (now, 0);
        }
        if entry.1 >= self.tokens_per_window {
            return Err(OrspError::InvalidToken(format!(
                "device {device} exceeded {} tokens per {}",
                self.tokens_per_window, self.window
            )));
        }
        entry.1 += 1;
        self.issued_total += 1;
        Ok(())
    }

    /// A shared handle to the signing keypair, for issuers that sign
    /// outside the mint's lock. Signing is deterministic, so concurrent
    /// use cannot diverge.
    pub fn keypair_handle(&self) -> Arc<RsaKeyPair> {
        Arc::clone(&self.keypair)
    }

    /// A device asks the mint to sign a blinded message at time `now`.
    /// Enforces the per-device rate limit; the mint cannot see what it is
    /// signing (that is the point).
    pub fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<crate::blind::BlindSignature> {
        self.authorize(device, now)?;
        try_sign_blinded(&self.keypair, blinded)
    }

    /// Redeem a token at time `now`: verify the signature, then check and
    /// update the double-spend ledger.
    pub fn redeem(&mut self, token: &Token, now: Timestamp) -> SpendOutcome {
        let valid = verify_unblinded(&self.keypair.public, &token.message, &token.signature);
        self.redeem_preverified(token, now, valid)
    }

    /// Ledger half of redemption, for callers that verified the RSA
    /// signature out-of-band (e.g. a parallel pre-verification pass over
    /// a whole batch): trusts `signature_valid` instead of re-verifying.
    pub fn redeem_preverified(
        &mut self,
        token: &Token,
        now: Timestamp,
        signature_valid: bool,
    ) -> SpendOutcome {
        if !signature_valid {
            return SpendOutcome::Invalid;
        }
        let key = token.ledger_key();
        if self.spent.contains_key(&key) {
            return SpendOutcome::DoubleSpend;
        }
        self.spent.insert(key, now);
        SpendOutcome::Accepted
    }
}

impl TokenIssuer for TokenMint {
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<crate::blind::BlindSignature> {
        TokenMint::issue(self, device, blinded, now)
    }
}

/// Concurrent issuance against a shared mint: the rate-limit accounting
/// runs under the lock, the RSA signing outside it. Outcomes are
/// independent of inter-thread timing — rate limits are per-device (each
/// device talks to the mint from one worker) and signing is a pure
/// deterministic function.
impl TokenIssuer for &Mutex<TokenMint> {
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<crate::blind::BlindSignature> {
        let keypair = {
            let mut mint = self.lock().unwrap_or_else(|e| e.into_inner());
            mint.authorize(device, now)?;
            mint.keypair_handle()
        };
        try_sign_blinded(&keypair, blinded)
    }
}

/// Client-side token wallet: generates random token messages, blinds them,
/// collects signatures, and hands out spendable tokens.
pub struct TokenWallet {
    device: DeviceId,
    public: RsaPublicKey,
    tokens: Vec<Token>,
}

impl TokenWallet {
    /// A wallet for `device` trusting the mint with `public` key.
    pub fn new(device: DeviceId, public: RsaPublicKey) -> Self {
        TokenWallet { device, public, tokens: Vec::new() }
    }

    /// The device that owns this wallet.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Number of unspent tokens held.
    pub fn balance(&self) -> usize {
        self.tokens.len()
    }

    /// Request one token from the mint at time `now`. On success the wallet
    /// holds one more token.
    pub fn request_token<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        mint: &mut M,
        now: Timestamp,
    ) -> orsp_types::Result<()> {
        let mut message = [0u8; 32];
        rng.fill(&mut message);
        let (session, blinded) = BlindingSession::blind(rng, &self.public, &message);
        let blind_sig = mint.issue(self.device, &blinded, now)?;
        let signature = session.unblind(&blind_sig)?;
        self.tokens.push(Token { message, signature });
        Ok(())
    }

    /// Take a token out of the wallet for spending.
    pub fn take_token(&mut self) -> Option<Token> {
        self.tokens.pop()
    }

    /// Top the wallet up to `target` tokens, stopping early if the mint
    /// rate-limits us. Returns how many tokens were acquired.
    pub fn top_up<R: Rng + ?Sized, M: TokenIssuer>(
        &mut self,
        rng: &mut R,
        mint: &mut M,
        now: Timestamp,
        target: usize,
    ) -> usize {
        let mut acquired = 0;
        while self.balance() < target {
            match self.request_token(rng, mint, now) {
                Ok(()) => acquired += 1,
                Err(_) => break,
            }
        }
        acquired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::rng::rng_for;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, per_window: u32) -> (TokenMint, TokenWallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mint = TokenMint::new(&mut rng, 256, per_window, SimDuration::DAY);
        let wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        (mint, wallet, rng)
    }

    #[test]
    fn issue_and_redeem() {
        let (mut mint, mut wallet, mut rng) = setup(1, 10);
        wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
        let token = wallet.take_token().unwrap();
        assert_eq!(mint.redeem(&token, Timestamp::EPOCH), SpendOutcome::Accepted);
    }

    #[test]
    fn double_spend_detected() {
        let (mut mint, mut wallet, mut rng) = setup(2, 10);
        wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
        let token = wallet.take_token().unwrap();
        assert_eq!(mint.redeem(&token, Timestamp::EPOCH), SpendOutcome::Accepted);
        assert_eq!(mint.redeem(&token, Timestamp::EPOCH), SpendOutcome::DoubleSpend);
        assert_eq!(mint.spent_total(), 1);
    }

    #[test]
    fn forged_token_rejected() {
        let (mut mint, _, mut rng) = setup(3, 10);
        let forged = Token {
            message: [7u8; 32],
            signature: BigUint::random_below(&mut rng, &mint.public_key().n),
        };
        assert_eq!(mint.redeem(&forged, Timestamp::EPOCH), SpendOutcome::Invalid);
    }

    #[test]
    fn rate_limit_enforced_and_resets() {
        let (mut mint, mut wallet, mut rng) = setup(4, 2);
        let t0 = Timestamp::EPOCH;
        assert!(wallet.request_token(&mut rng, &mut mint, t0).is_ok());
        assert!(wallet.request_token(&mut rng, &mut mint, t0).is_ok());
        assert!(wallet.request_token(&mut rng, &mut mint, t0).is_err(), "third token denied");
        // A new window opens after a day.
        let t1 = t0 + SimDuration::DAY;
        assert!(wallet.request_token(&mut rng, &mut mint, t1).is_ok());
        assert_eq!(wallet.balance(), 3);
    }

    #[test]
    fn rate_limit_is_per_device() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mint = TokenMint::new(&mut rng, 256, 1, SimDuration::DAY);
        let mut w1 = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let mut w2 = TokenWallet::new(DeviceId::new(2), mint.public_key().clone());
        assert!(w1.request_token(&mut rng, &mut mint, Timestamp::EPOCH).is_ok());
        assert!(w1.request_token(&mut rng, &mut mint, Timestamp::EPOCH).is_err());
        assert!(w2.request_token(&mut rng, &mut mint, Timestamp::EPOCH).is_ok());
    }

    #[test]
    fn top_up_stops_at_rate_limit() {
        let (mut mint, mut wallet, mut rng) = setup(6, 3);
        let got = wallet.top_up(&mut rng, &mut mint, Timestamp::EPOCH, 10);
        assert_eq!(got, 3);
        assert_eq!(wallet.balance(), 3);
        assert_eq!(mint.issued_total(), 3);
    }

    #[test]
    fn shared_mint_issues_across_threads() {
        // Four workers, one device each, issuing against the same mint
        // through the &Mutex<TokenMint> issuer: every token verifies, the
        // ledger catches every token exactly once, and the issuance count
        // is exact regardless of interleaving.
        let mut rng = StdRng::seed_from_u64(8);
        let mint = TokenMint::new(&mut rng, 256, 10, SimDuration::DAY);
        let public = mint.public_key().clone();
        let shared = Mutex::new(mint);
        let tokens: Vec<Token> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|w| {
                    let public = public.clone();
                    let shared = &shared;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(100 + w);
                        let mut wallet = TokenWallet::new(DeviceId::new(w), public);
                        let mut issuer = shared;
                        for _ in 0..5 {
                            wallet.request_token(&mut rng, &mut issuer, Timestamp::EPOCH).unwrap();
                        }
                        wallet.tokens
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut mint = shared.into_inner().unwrap();
        assert_eq!(mint.issued_total(), 20);
        assert_eq!(tokens.len(), 20);
        for t in &tokens {
            assert_eq!(mint.redeem(t, Timestamp::EPOCH), SpendOutcome::Accepted);
        }
        assert_eq!(mint.spent_total(), 20);
    }

    #[test]
    fn shared_mint_enforces_rate_limit_under_contention() {
        let mut rng = StdRng::seed_from_u64(9);
        let mint = TokenMint::new(&mut rng, 256, 3, SimDuration::DAY);
        let public = mint.public_key().clone();
        let shared = Mutex::new(mint);
        // One device hammered from two workers: exactly 3 tokens total.
        let got: usize = std::thread::scope(|s| {
            (0..2u64)
                .map(|w| {
                    let public = public.clone();
                    let shared = &shared;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(200 + w);
                        let mut wallet = TokenWallet::new(DeviceId::new(7), public);
                        let mut issuer = shared;
                        wallet.top_up(&mut rng, &mut issuer, Timestamp::EPOCH, 10)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(got, 3);
        assert_eq!(shared.into_inner().unwrap().issued_total(), 3);
    }

    #[test]
    fn preverified_redeem_matches_redeem() {
        let (mut mint, mut wallet, mut rng) = setup(10, 10);
        wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
        let token = wallet.take_token().unwrap();
        // Trusted verdict path agrees with the verifying path.
        assert_eq!(
            mint.redeem_preverified(&token, Timestamp::EPOCH, true),
            SpendOutcome::Accepted
        );
        assert_eq!(
            mint.redeem_preverified(&token, Timestamp::EPOCH, true),
            SpendOutcome::DoubleSpend
        );
        let forged = Token { message: [3u8; 32], signature: BigUint::from_u64(5) };
        assert_eq!(
            mint.redeem_preverified(&forged, Timestamp::EPOCH, false),
            SpendOutcome::Invalid
        );
        assert_eq!(mint.spent_total(), 1, "invalid tokens never touch the ledger");
    }

    #[test]
    fn served_mint_key_and_blind_signature_are_pinned() {
        // The served pipeline's mint (`PipelineConfig::default()`: 256
        // bits from the "pipeline" stream) at world seed 13, and one blind
        // signature, recorded from the square-and-multiply, non-CRT
        // implementation.
        use crate::rsa::tests::from_hex;
        let mint = TokenMint::new(&mut rng_for(13, "pipeline"), 256, 1, SimDuration::DAY);
        let keypair = mint.keypair_handle();
        assert_eq!(
            keypair.public.n,
            from_hex("8238b3309bbaaa6317e366f7c8d93a3d59b756213666eb46362cab8a6a264367")
        );
        let mut rng = StdRng::seed_from_u64(13);
        let (_, blinded) = BlindingSession::blind(&mut rng, &keypair.public, b"golden token");
        assert_eq!(
            blinded.0,
            from_hex("60a786f67da34cd76340b5be86152aad571969619031769c342d0b978b9fcb73")
        );
        assert_eq!(
            try_sign_blinded(&keypair, &blinded).unwrap().0,
            from_hex("73d022fdf67d63026b3e075127db3c6960753da9ca71498c064a95b01dc2d5b8")
        );
    }

    #[test]
    fn faulty_mint_returns_an_error_not_a_signature() {
        let (mut mint, mut wallet, mut rng) = setup(11, 10);
        mint.keypair = Arc::new(mint.keypair.with_corrupted_dp());
        let err = wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap_err();
        assert!(matches!(err, OrspError::Crypto(_)), "{err}");
        assert_eq!(wallet.balance(), 0);
    }

    #[test]
    fn tokens_from_different_requests_are_distinct() {
        let (mut mint, mut wallet, mut rng) = setup(7, 10);
        wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
        wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
        let a = wallet.take_token().unwrap();
        let b = wallet.take_token().unwrap();
        assert_ne!(a.message, b.message);
        assert_eq!(mint.redeem(&a, Timestamp::EPOCH), SpendOutcome::Accepted);
        assert_eq!(mint.redeem(&b, Timestamp::EPOCH), SpendOutcome::Accepted);
    }
}
