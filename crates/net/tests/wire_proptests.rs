//! Property tests for the wire codec: every message type round-trips,
//! and hostile bytes — truncations, corrupted CRCs, oversized lengths,
//! arbitrary flips — always come back as typed errors, never a panic.

use orsp_client::UploadRequest;
use orsp_crypto::{BigUint, BlindSignature, BlindedMessage, Token};
use orsp_net::wire::{
    decode_frame, decode_frame_traced, frame, frame_traced, HEADER_LEN, MAX_PAYLOAD, TRACE_CTX_LEN,
};
use orsp_net::{Request, Response, SearchHit, WireError};
use orsp_obs::{EventSnapshot, HistogramSnapshot, StatsSnapshot, TraceContext};
use orsp_search::SearchQuery;
use orsp_server::{AggregateParts, EntityAggregate, RejectReason, SupportParts};
use orsp_types::{
    Category, DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration,
    StarHistogram, Timestamp,
};
use proptest::prelude::*;

fn category_from(raw: usize) -> Category {
    let mut all = Category::all_physical();
    all.push(Category::App);
    all.push(Category::Video);
    all[raw % all.len()]
}

fn kind_from(raw: usize) -> InteractionKind {
    InteractionKind::ALL[raw % InteractionKind::ALL.len()]
}

fn array32(bytes: &[u8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, b) in bytes.iter().take(32).enumerate() {
        out[i] = *b;
    }
    out
}

fn upload_from(
    record: &[u8],
    entity: u64,
    kind: usize,
    start: i64,
    duration: i64,
    distance: f64,
    group: u16,
    token_msg: &[u8],
    sig: &[u8],
    release: i64,
) -> UploadRequest {
    UploadRequest {
        record_id: RecordId::from_bytes(array32(record)),
        entity: EntityId::new(entity),
        interaction: Interaction {
            kind: kind_from(kind),
            start: Timestamp::from_seconds(start),
            duration: SimDuration::seconds(duration),
            distance_travelled_m: distance,
            group_size: group,
        },
        token: Token { message: array32(token_msg), signature: BigUint::from_bytes_be(sig) },
        release_at: Timestamp::from_seconds(release),
    }
}

proptest! {
    #[test]
    fn every_request_type_round_trips(
        device in 0u64..u64::MAX,
        blinded in proptest::collection::vec(0u8..=255, 1..64),
        now in -1_000_000_000i64..1_000_000_000,
        record in proptest::collection::vec(0u8..=255, 32..33),
        entity in 0u64..u64::MAX,
        kind in 0usize..16,
        start in -1_000_000i64..1_000_000_000,
        duration in 0i64..100_000,
        distance in 0.0f64..1e7,
        group in 0u16..2000,
        token_msg in proptest::collection::vec(0u8..=255, 32..33),
        sig in proptest::collection::vec(0u8..=255, 1..64),
        zipcode in 0u32..100_000,
        cat in 0usize..1000,
    ) {
        let requests = [
            Request::Ping,
            Request::IssueToken {
                device: DeviceId::new(device),
                blinded: BlindedMessage(BigUint::from_bytes_be(&blinded)),
                now: Timestamp::from_seconds(now),
            },
            Request::Upload {
                upload: upload_from(
                    &record, entity, kind, start, duration, distance, group,
                    &token_msg, &sig, now,
                ),
                now: Timestamp::from_seconds(now),
            },
            Request::FetchAggregate { entity: EntityId::new(entity) },
            Request::AggregateParts { entity: EntityId::new(entity) },
            Request::AggregatePartsBatch { entities: vec![] },
            Request::AggregatePartsBatch {
                entities: vec![EntityId::new(entity), EntityId::new(entity ^ 1)],
            },
            Request::Search {
                query: SearchQuery { zipcode, category: category_from(cat) },
            },
            Request::SearchParts {
                query: SearchQuery { zipcode, category: category_from(cat) },
            },
            Request::Stats,
        ];
        for request in requests {
            let encoded = request.encode();
            prop_assert_eq!(Request::decode(&encoded).unwrap(), request);
        }
    }

    #[test]
    fn every_response_type_round_trips(
        sig in proptest::collection::vec(0u8..=255, 1..64),
        reason in proptest::collection::vec(0u8..=255, 0..40),
        reject in 0usize..4,
        entity in 0u64..u64::MAX,
        histories in 0u64..10_000,
        interactions in 0u64..100_000,
        dwell in 0.0f64..10_000.0,
        repeat in 0.0f64..=1.0,
        visits in proptest::collection::vec(0u64..1_000_000, 0..24),
        efforts in proptest::collection::vec((0u64..10_000, 0.0f64..1e6), 0..40),
        hist_a in proptest::collection::vec(0u64..1_000_000, 6..7),
        hist_b in proptest::collection::vec(0u64..1_000_000, 6..7),
        score in 0.0f64..5.0,
    ) {
        let reason = String::from_utf8_lossy(&reason).into_owned();
        let rejects = [
            RejectReason::BadToken,
            RejectReason::DoubleSpend,
            RejectReason::BadRecord,
            RejectReason::EntityMismatch,
        ];
        let aggregate = EntityAggregate {
            entity: EntityId::new(entity),
            histories: histories as usize,
            interactions: interactions as usize,
            visits_per_user: visits.iter().map(|&v| v as usize).collect(),
            effort_points: efforts.iter().map(|&(c, d)| (c as usize, d)).collect(),
            mean_dwell_min: dwell,
            repeat_fraction: repeat,
        };
        let mut counts_a = [0u64; 6];
        counts_a.copy_from_slice(&hist_a);
        let mut counts_b = [0u64; 6];
        counts_b.copy_from_slice(&hist_b);
        let hit = SearchHit {
            entity: EntityId::new(entity),
            score,
            explicit: StarHistogram::from_counts(counts_a),
            inferred: StarHistogram::from_counts(counts_b),
            histories,
            repeat_fraction: repeat,
        };
        let parts = AggregateParts {
            entity: EntityId::new(entity),
            histories,
            interactions,
            visits_per_user: visits.clone(),
            repeats: histories / 2,
            dwell_secs: dwell as i64,
            dwell_n: interactions,
            effort_points: efforts.clone(),
        };
        // A `SearchParts` hit carries no published support: integers ride
        // beside it instead.
        let ranked = SearchHit { histories: 0, repeat_fraction: 0.0, ..hit.clone() };
        let support = SupportParts { histories, repeats: histories / 2 };
        let responses = [
            Response::Pong,
            Response::TokenIssued { signature: BlindSignature(BigUint::from_bytes_be(&sig)) },
            Response::TokenDenied { reason: reason.clone() },
            Response::UploadAccepted,
            Response::UploadRejected { reason: rejects[reject] },
            Response::Aggregate { aggregate: None },
            Response::Aggregate { aggregate: Some(aggregate) },
            Response::AggregateParts { parts: None },
            Response::AggregateParts { parts: Some(parts.clone()) },
            Response::AggregatePartsBatch { parts: vec![] },
            Response::AggregatePartsBatch { parts: vec![Some(parts), None] },
            Response::SearchResults { hits: vec![] },
            Response::SearchResults { hits: vec![hit.clone(), hit] },
            Response::SearchParts { hits: vec![], support: vec![] },
            Response::SearchParts {
                hits: vec![ranked.clone(), ranked],
                support: vec![support, SupportParts::default()],
            },
            Response::Busy,
            Response::Error { detail: reason },
        ];
        for response in responses {
            let encoded = response.encode();
            prop_assert_eq!(Response::decode(&encoded).unwrap(), response);
        }
    }

    #[test]
    fn search_parts_truncations_and_hostile_counts_are_typed_errors(
        n in 0usize..6,
        entity in 0u64..u64::MAX,
        histories in 0u64..u64::MAX,
        declared in 0u16..=u16::MAX,
        zipcode in 0u32..100_000,
        cat in 0usize..1000,
    ) {
        let hit = SearchHit {
            entity: EntityId::new(entity),
            score: 3.5,
            explicit: StarHistogram::from_counts([1, 2, 3, 4, 5, 6]),
            inferred: StarHistogram::default(),
            histories: 0,
            repeat_fraction: 0.0,
        };
        let response = Response::SearchParts {
            hits: vec![hit; n],
            support: vec![SupportParts { histories, repeats: histories / 3 }; n],
        };
        let encoded = response.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Response::decode(&encoded[..cut]).is_err(), "cut {}", cut);
        }
        let request =
            Request::SearchParts { query: SearchQuery { zipcode, category: category_from(cat) } };
        let encoded = request.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Request::decode(&encoded[..cut]).is_err(), "cut {}", cut);
        }
        // A count the payload cannot back is refused before any hit is
        // read or any vector sized from it.
        let mut payload = response.encode_payload();
        payload[1..3].copy_from_slice(&declared.to_le_bytes());
        if declared as usize != n {
            match Response::decode_payload(&payload) {
                Err(WireError::Malformed(_)) | Err(WireError::Truncated { .. }) => {}
                other => prop_assert!(false, "declared {} over {} hits gave {:?}", declared, n, other),
            }
        }
    }

    #[test]
    fn stats_snapshot_round_trips(
        counter_names in proptest::collection::vec(
            proptest::collection::vec(0u8..26, 1..16), 0..8),
        counter_vals in proptest::collection::vec(0u64..u64::MAX, 8..9),
        gauge_names in proptest::collection::vec(
            proptest::collection::vec(0u8..26, 1..16), 0..8),
        gauge_vals in proptest::collection::vec(i64::MIN..i64::MAX, 8..9),
        hist_names in proptest::collection::vec(
            proptest::collection::vec(0u8..26, 1..16), 0..6),
        hist_vals in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 6..7),
    ) {
        // The shim has no string strategy: derive names from letter bytes.
        let name_of = |bytes: &Vec<u8>| -> String {
            bytes.iter().map(|b| (b'a' + b) as char).collect()
        };
        let snapshot = StatsSnapshot {
            counters: counter_names
                .iter()
                .zip(&counter_vals)
                .map(|(n, v)| (name_of(n), *v))
                .collect(),
            gauges: gauge_names
                .iter()
                .zip(&gauge_vals)
                .map(|(n, v)| (name_of(n), *v))
                .collect(),
            histograms: hist_names
                .iter()
                .zip(&hist_vals)
                .map(|(n, &(count, sum, max, p50))| HistogramSnapshot {
                    name: name_of(n),
                    count,
                    sum,
                    max,
                    p50,
                    p90: p50.max(max / 2),
                    p99: max,
                })
                .collect(),
            events: counter_names
                .iter()
                .zip(&counter_vals)
                .map(|(n, v)| EventSnapshot {
                    at_micros: *v,
                    kind: name_of(n),
                    detail: format!("detail for {}", name_of(n)),
                })
                .collect(),
        };
        let response = Response::Stats { snapshot };
        let encoded = response.encode();
        prop_assert_eq!(Response::decode(&encoded).unwrap(), response);
    }

    #[test]
    fn truncated_stats_snapshot_is_a_typed_error(
        n_counters in 1usize..5,
        value in 0u64..u64::MAX,
    ) {
        let snapshot = StatsSnapshot {
            counters: (0..n_counters).map(|i| (format!("c{i}"), value)).collect(),
            gauges: vec![("g".into(), -1)],
            histograms: vec![HistogramSnapshot {
                name: "h".into(), count: 1, sum: value, max: value,
                p50: value, p90: value, p99: value,
            }],
            events: vec![EventSnapshot {
                at_micros: value,
                kind: "shed".into(),
                detail: "peer".into(),
            }],
        };
        let encoded = Response::Stats { snapshot }.encode();
        for cut in 0..encoded.len() {
            match Response::decode(&encoded[..cut]) {
                Err(_) => {}
                Ok(other) => prop_assert!(false, "cut {} decoded as {:?}", cut, other),
            }
        }
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error(
        device in 0u64..u64::MAX,
        blinded in proptest::collection::vec(0u8..=255, 1..48),
        now in 0i64..1_000_000,
    ) {
        let request = Request::IssueToken {
            device: DeviceId::new(device),
            blinded: BlindedMessage(BigUint::from_bytes_be(&blinded)),
            now: Timestamp::from_seconds(now),
        };
        let encoded = request.encode();
        for cut in 0..encoded.len() {
            // Never panics, never succeeds, always typed.
            match Request::decode(&encoded[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                other => prop_assert!(false, "cut {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_silently(
        zipcode in 0u32..100_000,
        cat in 0usize..1000,
        pos_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let request = Request::Search {
            query: SearchQuery { zipcode, category: category_from(cat) },
        };
        let mut encoded = request.encode();
        let pos = pos_seed % encoded.len();
        encoded[pos] ^= flip;
        // A flip in the payload is caught by the CRC; a flip in the
        // header by magic/version/length/CRC validation. Either way:
        // a typed error, never a wrong message and never a panic.
        prop_assert!(Request::decode(&encoded).is_err(), "flip at {} undetected", pos);
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation(
        declared in (MAX_PAYLOAD as u32 + 1)..u32::MAX,
    ) {
        let mut encoded = Request::Ping.encode();
        encoded[6..10].copy_from_slice(&declared.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&encoded).unwrap_err(),
            WireError::Oversized { len: declared as usize }
        );
    }

    #[test]
    fn random_soup_never_panics(
        soup in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        // Arbitrary bytes must always produce a clean result.
        let _ = Request::decode(&soup);
        let _ = Response::decode(&soup);
        let _ = decode_frame(&soup);
        // Same soup wearing a valid frame: payload decoding alone must
        // also hold the no-panic property.
        let framed = frame(&soup);
        let _ = Request::decode(&framed);
        let _ = Response::decode(&framed);
    }

    #[test]
    fn frame_parse_is_consistent_with_header_len(
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let framed = frame(&payload);
        prop_assert_eq!(framed.len(), HEADER_LEN + payload.len());
        let (decoded, consumed) = decode_frame(&framed).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(consumed, framed.len());
    }

    #[test]
    fn untraced_v2_frames_look_contextless_to_the_reader(
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        // A sender that has nothing to propagate (tracing off, unsampled
        // request): same payload out, no context.
        let framed = frame(&payload);
        let (decoded, ctx, _) = decode_frame_traced(&framed).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(ctx, None);
    }

    #[test]
    fn traced_frames_round_trip_and_every_truncation_is_typed(
        payload in proptest::collection::vec(0u8..=255, 0..96),
        trace_hi in 0u64..u64::MAX,
        trace_lo in 0u64..u64::MAX,
        span in 0u64..u64::MAX,
        sampled in 0u8..2,
    ) {
        let ctx = TraceContext {
            trace_id: (trace_hi as u128) << 64 | trace_lo as u128,
            span_id: span,
            sampled: sampled == 1,
        };
        let framed = frame_traced(&payload, Some(&ctx));
        prop_assert_eq!(framed.len(), HEADER_LEN + TRACE_CTX_LEN + payload.len());
        let (decoded, got, consumed) = decode_frame_traced(&framed).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(got, Some(ctx));
        prop_assert_eq!(consumed, framed.len());
        // Truncation across the header, the trace block, and the
        // payload: typed errors at every cut, never a panic, never a
        // wrong decode.
        for cut in 0..framed.len() {
            prop_assert!(decode_frame_traced(&framed[..cut]).is_err(), "cut {}", cut);
        }
    }
}

/// `SearchParts` borrowed the hit encoder; the public `SearchResults`
/// bytes must not have moved. Expected bytes are spelled out field by
/// field, independent of the codec's helpers.
#[test]
fn search_results_bytes_are_pinned() {
    let hit = |entity: u64, histories: u64, repeat_fraction: f64| SearchHit {
        entity: EntityId::new(entity),
        score: 4.25,
        explicit: StarHistogram::from_counts([0, 1, 2, 3, 4, 5]),
        inferred: StarHistogram::from_counts([9, 8, 7, 6, 5, 4]),
        histories,
        repeat_fraction,
    };
    let hits = vec![hit(0x0102_0304_0506_0708, 412, 0.375), hit(2, 0, 0.0), hit(3, 5, 1.0)];
    let mut want = vec![0x87, 3, 0];
    for h in &hits {
        want.extend(h.entity.raw().to_le_bytes());
        want.extend(h.score.to_bits().to_le_bytes());
        for count in h.explicit.counts().into_iter().chain(h.inferred.counts()) {
            want.extend(count.to_le_bytes());
        }
        want.extend(h.histories.to_le_bytes());
        want.extend(h.repeat_fraction.to_bits().to_le_bytes());
    }
    assert_eq!(&want[3..11], &[8, 7, 6, 5, 4, 3, 2, 1], "entity id, little endian");
    let response = Response::SearchResults { hits };
    assert_eq!(response.encode_payload(), want);
    // Three hits frame to the 401 bytes the benchmark's replay reports
    // as `net.frame_bytes_search_resp`.
    assert_eq!(response.encode().len(), 401);
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
}
