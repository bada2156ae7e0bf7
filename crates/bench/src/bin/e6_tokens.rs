//! E6 — The blind-token service (§4.2).
//!
//! Paper: "An RSP can however limit the impact of such attacks by handing
//! out blindly signed tokens at a limited rate to every device and
//! require that every device present a valid token when anonymously
//! uploading information."
//!
//! Measures: issue/redeem throughput at 256-, 512-, 1024- and 2048-bit
//! moduli, rejection of forged and double-spent tokens, rate-limit
//! enforcement, and the success probability of the Ru-guessing attack
//! the token scheme bounds. Redemption runs through `ShardedIngest`, the
//! admission core every served upload goes through.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_crypto::{
    derive_record_id, sha256, BigUint, DeviceSecret, Token, TokenMint, TokenWallet, UploadRequest,
};
use orsp_server::{IngestOutcome, RejectReason, ShardedIngest};
use orsp_types::{
    DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Fresh ingests each size's uploads are redeemed through: one pass takes
/// milliseconds, so a single one cannot resolve a change.
const REPEATS: usize = 25;

/// Upload `i` of a run: a history of its own, so the store takes every
/// upload and the token alone decides the outcome.
fn upload(i: usize, token: Token) -> UploadRequest {
    let at = Timestamp::from_seconds(i as i64);
    UploadRequest {
        record_id: RecordId::from_bytes(sha256(&(i as u64).to_le_bytes())),
        entity: EntityId::new(i as u64 % 16),
        interaction: Interaction::solo(InteractionKind::Visit, at, SimDuration::minutes(30), 50.0),
        token,
        release_at: at,
    }
}

fn main() {
    let seed = seed_from_args();
    let n_tokens = arg_u64("tokens", 400);
    header("E6", "Blind rate-limit tokens — throughput and attack resistance");
    let mut rng = StdRng::seed_from_u64(seed);
    let now = Timestamp::EPOCH;

    // Throughput at each modulus size, fewer tokens at the larger ones.
    // Redemption is one in-memory shard of the served admission core (no
    // WAL). One pass over a size's uploads takes milliseconds, so the
    // same uploads are redeemed through `REPEATS` fresh ingests (each
    // starts with an empty ledger and accepts them all again), and the
    // row reports the median and range of the per-pass rates. The 512-bit
    // mint, its last ingest and its uploads go on to the attack checks
    // below.
    println!("\nBlind tokens by RSA modulus size (issue = blind + sign + unblind + verify;");
    println!("redeem = verify + ledger + store append through ShardedIngest,");
    println!("median and min-max of {REPEATS} passes, each through a fresh ingest):");
    println!(
        "  {:>5} {:>7} {:>14} {:>14} {:>21}",
        "bits", "tokens", "issue tok/s", "redeem tok/s", "redeem min-max"
    );
    let mut kept = None;
    let sizes = [(256, n_tokens), (512, n_tokens), (1024, n_tokens / 4), (2048, n_tokens / 10)];
    for (bits, count) in sizes {
        let count = count.max(1) as usize;
        let mut mint = TokenMint::new(&mut rng, bits, u32::MAX, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let t0 = Instant::now();
        for _ in 0..count {
            wallet.request_token(&mut rng, &mut mint, now).unwrap();
        }
        let issue_elapsed = t0.elapsed();
        let uploads: Vec<UploadRequest> =
            (0..count).map(|i| upload(i, wallet.take_token().unwrap())).collect();
        let mut rates = Vec::with_capacity(REPEATS);
        let mut last = None;
        for _ in 0..REPEATS {
            let ingest = ShardedIngest::new(1);
            let t1 = Instant::now();
            let accepted = uploads
                .iter()
                .filter(|u| matches!(ingest.ingest(u, mint.public_key()), IngestOutcome::Accepted))
                .count();
            rates.push(count as f64 / t1.elapsed().as_secs_f64());
            assert_eq!(accepted, count);
            last = Some(ingest);
        }
        rates.sort_by(f64::total_cmp);
        println!(
            "  {bits:>5} {count:>7} {:>14} {:>14} {:>21}",
            f(count as f64 / issue_elapsed.as_secs_f64()),
            f(rates[rates.len() / 2]),
            format!("{}-{}", f(rates[0]), f(rates[rates.len() - 1]))
        );
        if bits == 512 {
            kept = Some((mint, last.expect("at least one pass"), uploads));
        }
    }
    let (mint, ingest, uploads) = kept.expect("the 512-bit size is measured");
    let key = mint.public_key();

    // Double spend: every replay is caught.
    let replays = uploads
        .iter()
        .filter(|u| {
            matches!(ingest.ingest(u, key), IngestOutcome::Rejected(RejectReason::DoubleSpend))
        })
        .count();
    println!("  double-spend replays rejected:           {replays}/{n_tokens}");

    // Forgery: random signatures never verify.
    let mut forged_accepted = 0;
    for i in 0..200 {
        let forged = Token {
            message: [(i % 251) as u8; 32],
            signature: BigUint::random_below(&mut rng, &key.n),
        };
        if matches!(ingest.ingest(&upload(uploads.len() + i, forged), key), IngestOutcome::Accepted)
        {
            forged_accepted += 1;
        }
    }
    println!("  forged tokens accepted:                  {forged_accepted}/200");

    // Rate limit.
    let mut limited_mint = TokenMint::new(&mut rng, 256, 5, SimDuration::DAY);
    let mut w2 = TokenWallet::new(DeviceId::new(2), limited_mint.public_key().clone());
    let got = w2.top_up(&mut rng, &mut limited_mint, now, 100);
    println!("  tokens granted under limit of 5/day:     {got}/100 requested");

    // Ru-guessing: an attacker who wants to corrupt a victim's history
    // must guess the victim's 256-bit Ru. Empirically: random guesses
    // never collide with the victim's record id.
    let victim = DeviceSecret::generate(&mut rng);
    let entity = EntityId::new(42);
    let target = derive_record_id(&victim, entity);
    let guesses = 100_000;
    let mut hits = 0;
    for _ in 0..guesses {
        let guess = DeviceSecret::generate(&mut rng);
        if derive_record_id(&guess, entity) == target {
            hits += 1;
        }
    }
    println!("  Ru-guess collisions:                     {hits}/{guesses} (expected ~2^-256)");

    println!("\nPAPER vs MEASURED");
    compare(
        "forged/double-spent uploads rejected",
        "all",
        &format!("{}", replays + 200 - forged_accepted),
    );
    compare("rate limit bounds token grants", "5", &got.to_string());
    assert_eq!(forged_accepted, 0);
    assert_eq!(replays, n_tokens as usize);
    assert_eq!(got, 5);
    assert_eq!(hits, 0);
    println!("  shape check: PASS");
}
