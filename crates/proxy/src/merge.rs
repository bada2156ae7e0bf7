//! Pure merge rules for scatter-gathered reads.
//!
//! Every function here is deterministic and transport-free: the proxy's
//! correctness claim — N backends answer bit-identically to one node —
//! reduces to these merges plus the exactness of
//! [`AggregateParts`](orsp_server::AggregateParts) and
//! [`SupportParts`](orsp_server::SupportParts) (integer accumulators,
//! commutative/associative `merge`, floats derived once at the end).
//!
//! The rules are strict by design. Backends built from the same published
//! world state *must* agree on everything except the per-backend partial
//! support behind a hit; any other disagreement means a misconfigured or
//! corrupt cluster, and the merge refuses with a typed [`MergeError`]
//! instead of guessing.

use orsp_net::SearchHit;
use orsp_server::{AggregateParts, EntityAggregate, SupportParts};
use orsp_types::EntityId;
use std::collections::HashSet;
use std::fmt;

/// Why a scatter-gather merge refused to produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A backend returned a partial aggregate for the wrong entity.
    EntityMismatch {
        /// Entity the merge asked about.
        asked: EntityId,
        /// Entity a backend answered about.
        got: EntityId,
    },
    /// One backend's hit list names the same entity twice — its snapshot
    /// is corrupt (the store keys aggregates by entity, so duplicates
    /// cannot arise from honest state).
    DuplicateEntity(EntityId),
    /// Backends disagree on something the world determines (hit order,
    /// scores, histograms) — they are not serving the same corpus.
    Divergent {
        /// Which field disagreed.
        what: &'static str,
    },
    /// One backend's `SearchParts` answer does not carry exactly one
    /// support entry per hit, so there is no telling which hit a count
    /// belongs to.
    SupportMismatch {
        /// Hits in the answer.
        hits: usize,
        /// Support entries in the answer.
        support: usize,
    },
    /// The gather produced no lists to merge (zero backends).
    NoBackends,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::EntityMismatch { asked, got } => {
                write!(f, "asked about entity {asked} but a backend answered about {got}")
            }
            MergeError::DuplicateEntity(e) => {
                write!(f, "a backend's hit list names entity {e} twice")
            }
            MergeError::Divergent { what } => {
                write!(f, "backends disagree on {what}")
            }
            MergeError::SupportMismatch { hits, support } => {
                write!(f, "a backend answered {hits} hits with {support} support entries")
            }
            MergeError::NoBackends => write!(f, "no backend responses to merge"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merge per-backend partial aggregates for one entity. `None` entries
/// are backends that have no histories for the entity (every record id
/// routes to exactly one backend, so absence is normal, not an error).
/// Returns `None` when no backend knows the entity at all.
pub fn merge_parts(
    entity: EntityId,
    parts: impl IntoIterator<Item = Option<AggregateParts>>,
) -> Result<Option<AggregateParts>, MergeError> {
    let mut merged: Option<AggregateParts> = None;
    for part in parts.into_iter().flatten() {
        if part.entity != entity {
            return Err(MergeError::EntityMismatch { asked: entity, got: part.entity });
        }
        match &mut merged {
            Some(m) => m.merge(&part),
            None => merged = Some(part),
        }
    }
    Ok(merged)
}

/// Apply the k-anonymity floor *after* the merge and finalize. Flooring
/// per backend would wrongly suppress entities that clear the floor only
/// in total — the floor is a property of the published corpus, and the
/// corpus is the union of the backends.
pub fn floored_aggregate(
    merged: Option<AggregateParts>,
    min_support: usize,
) -> Option<EntityAggregate> {
    merged.filter(|p| p.histories as usize >= min_support).map(|p| p.finalize())
}

/// Check that every backend returned the same ranked hit list — same
/// entities in the same order, bit-equal scores, equal explicit and
/// inferred star histograms — and hand back one copy to patch.
///
/// `histories` and `repeat_fraction` are deliberately *excluded* from the
/// comparison: they derive from each backend's partial data and
/// legitimately differ; the proxy overwrites them from the merged
/// support. Everything else derives from published world state that all
/// backends share, so inequality is a cluster fault, not load skew.
pub fn search_consensus(lists: &[Vec<SearchHit>]) -> Result<Vec<SearchHit>, MergeError> {
    let template = lists.first().ok_or(MergeError::NoBackends)?;
    let mut seen = HashSet::new();
    for hit in template {
        if !seen.insert(hit.entity) {
            return Err(MergeError::DuplicateEntity(hit.entity));
        }
    }
    for list in &lists[1..] {
        if list.len() != template.len() {
            return Err(MergeError::Divergent { what: "hit count" });
        }
        let mut seen = HashSet::new();
        for (a, b) in template.iter().zip(list) {
            if !seen.insert(b.entity) {
                return Err(MergeError::DuplicateEntity(b.entity));
            }
            if a.entity != b.entity {
                return Err(MergeError::Divergent { what: "hit order" });
            }
            if a.score.to_bits() != b.score.to_bits() {
                return Err(MergeError::Divergent { what: "scores" });
            }
            if a.explicit != b.explicit {
                return Err(MergeError::Divergent { what: "explicit histograms" });
            }
            if a.inferred != b.inferred {
                return Err(MergeError::Divergent { what: "inferred histograms" });
            }
        }
    }
    Ok(template.clone())
}

/// Merge the `SearchParts` legs of one search: the hit list every backend
/// agrees on ([`search_consensus`]) and, per hit, the support counts
/// summed across legs — two integer adds per hit per leg, unfloored.
///
/// Consensus still runs although one round now carries everything: the
/// support sum is only meaningful if position `i` names the same entity
/// on every leg, and that is exactly what consensus establishes.
pub fn merge_search_parts(
    legs: Vec<(Vec<SearchHit>, Vec<SupportParts>)>,
) -> Result<(Vec<SearchHit>, Vec<SupportParts>), MergeError> {
    if let Some((hits, support)) = legs.iter().find(|(hits, support)| hits.len() != support.len()) {
        return Err(MergeError::SupportMismatch { hits: hits.len(), support: support.len() });
    }
    let (lists, supports): (Vec<_>, Vec<_>) = legs.into_iter().unzip();
    let hits = search_consensus(&lists)?;
    let mut merged = vec![SupportParts::default(); hits.len()];
    for support in &supports {
        for (sum, part) in merged.iter_mut().zip(support) {
            sum.merge(*part);
        }
    }
    Ok((hits, merged))
}

/// Fill each hit's published support from the merged counts, with the
/// k-anonymity floor applied to the *sum* — an entity that clears the
/// floor only in total is supported, one that stays below it reads
/// `(0, 0.0)`, exactly as on one node.
pub fn fill_support(hits: &mut [SearchHit], support: &[SupportParts], min_support: usize) {
    debug_assert_eq!(hits.len(), support.len(), "one merged support entry per hit");
    for (hit, support) in hits.iter_mut().zip(support) {
        (hit.histories, hit.repeat_fraction) = support.published(min_support);
    }
}

/// Fold per-backend stats snapshots into the proxy's own, namespacing
/// every backend metric as `backend<i>_<name>`. A backend that could not
/// be reached contributes a single `backend<i>_unreachable` counter of 1
/// instead of its metrics — the `Stats` RPC degrades partially rather
/// than failing, because observability is most needed when part of the
/// cluster is down.
pub fn namespaced_stats(
    local: orsp_obs::StatsSnapshot,
    backends: Vec<(usize, Option<orsp_obs::StatsSnapshot>)>,
) -> orsp_obs::StatsSnapshot {
    let mut out = local;
    for (i, snapshot) in backends {
        match snapshot {
            Some(snap) => {
                out.counters
                    .extend(snap.counters.into_iter().map(|(n, v)| (format!("backend{i}_{n}"), v)));
                out.gauges
                    .extend(snap.gauges.into_iter().map(|(n, v)| (format!("backend{i}_{n}"), v)));
                out.histograms.extend(snap.histograms.into_iter().map(|mut h| {
                    h.name = format!("backend{i}_{}", h.name);
                    h
                }));
                // Events keep their arrival order: local first, then each
                // backend's — per-process clocks aren't comparable, so
                // sorting across processes by timestamp would lie.
                out.events.extend(snap.events.into_iter().map(|mut e| {
                    e.kind = format!("backend{i}_{}", e.kind);
                    e
                }));
            }
            None => out.counters.push((format!("backend{i}_unreachable"), 1)),
        }
    }
    // Snapshots are sorted by name everywhere else (byte-identical
    // renders); keep the merged one on the same contract.
    out.counters.sort_by(|a, b| a.0.cmp(&b.0));
    out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    out.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{Rating, StarHistogram};

    fn parts(entity: u64, histories: u64, dwell_secs: i64) -> AggregateParts {
        AggregateParts {
            entity: EntityId::new(entity),
            histories,
            interactions: histories * 2,
            visits_per_user: vec![0, histories],
            repeats: histories / 2,
            dwell_secs,
            dwell_n: histories,
            effort_points: vec![(2, 100.0)],
        }
    }

    fn hit(entity: u64, score: f64) -> SearchHit {
        let mut explicit = StarHistogram::default();
        explicit.add(Rating::stars(4));
        SearchHit {
            entity: EntityId::new(entity),
            score,
            explicit,
            inferred: StarHistogram::default(),
            histories: 0,
            repeat_fraction: 0.0,
        }
    }

    #[test]
    fn merge_skips_absent_backends_and_sums_the_rest() {
        let merged = merge_parts(
            EntityId::new(7),
            vec![Some(parts(7, 3, 900)), None, Some(parts(7, 2, 600))],
        )
        .expect("merge")
        .expect("some");
        assert_eq!(merged.histories, 5);
        assert_eq!(merged.dwell_secs, 1500);
        assert_eq!(merged.effort_points.len(), 2);
    }

    #[test]
    fn merge_of_all_absent_is_none() {
        assert_eq!(merge_parts(EntityId::new(7), vec![None, None]), Ok(None));
    }

    #[test]
    fn wrong_entity_is_a_typed_error() {
        let err = merge_parts(EntityId::new(7), vec![Some(parts(8, 3, 900))]).unwrap_err();
        assert_eq!(
            err,
            MergeError::EntityMismatch { asked: EntityId::new(7), got: EntityId::new(8) }
        );
    }

    #[test]
    fn floor_applies_to_the_merged_total_not_per_backend() {
        // 3 + 2 histories: neither backend clears a floor of 5 alone,
        // the union does. Per-backend flooring would lose this entity.
        let merged =
            merge_parts(EntityId::new(7), vec![Some(parts(7, 3, 900)), Some(parts(7, 2, 600))])
                .expect("merge");
        assert!(floored_aggregate(merged.clone(), 5).is_some());
        assert!(floored_aggregate(merged, 6).is_none());
        assert!(floored_aggregate(None, 0).is_none());
    }

    #[test]
    fn consensus_accepts_identical_lists_with_differing_support_fields() {
        let mut a = vec![hit(1, 4.0), hit(2, 3.0)];
        let mut b = a.clone();
        a[0].histories = 9; // local floor artifacts may differ...
        b[0].repeat_fraction = 0.5;
        let merged = search_consensus(&[a.clone(), b]).expect("consensus");
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].entity, EntityId::new(1));
    }

    #[test]
    fn consensus_rejects_divergence_and_duplicates() {
        let base = vec![hit(1, 4.0), hit(2, 3.0)];
        assert_eq!(search_consensus(&[]).unwrap_err(), MergeError::NoBackends);

        let mut reordered = base.clone();
        reordered.swap(0, 1);
        assert_eq!(
            search_consensus(&[base.clone(), reordered]).unwrap_err(),
            MergeError::Divergent { what: "hit order" }
        );

        let mut rescored = base.clone();
        rescored[1].score = 3.0000000001;
        assert_eq!(
            search_consensus(&[base.clone(), rescored]).unwrap_err(),
            MergeError::Divergent { what: "scores" }
        );

        let mut short = base.clone();
        short.pop();
        assert_eq!(
            search_consensus(&[base.clone(), short]).unwrap_err(),
            MergeError::Divergent { what: "hit count" }
        );

        let dup = vec![hit(1, 4.0), hit(1, 4.0)];
        assert_eq!(
            search_consensus(&[dup]).unwrap_err(),
            MergeError::DuplicateEntity(EntityId::new(1))
        );

        let mut restarred = base.clone();
        restarred[0].explicit.add(Rating::stars(1));
        assert_eq!(
            search_consensus(&[base, restarred]).unwrap_err(),
            MergeError::Divergent { what: "explicit histograms" }
        );
    }

    fn support(histories: u64, repeats: u64) -> SupportParts {
        SupportParts { histories, repeats }
    }

    /// Merge the legs and publish at `floor`: `(histories, repeat_fraction)` per hit.
    fn searched(
        legs: Vec<(Vec<SearchHit>, Vec<SupportParts>)>,
        floor: usize,
    ) -> Result<Vec<(u64, f64)>, MergeError> {
        let (mut hits, merged) = merge_search_parts(legs)?;
        fill_support(&mut hits, &merged, floor);
        Ok(hits.iter().map(|h| (h.histories, h.repeat_fraction)).collect())
    }

    #[test]
    fn search_support_floors_the_sum_not_each_leg() {
        // The benchmark's entities all hold hundreds of histories per
        // backend, so only these cases ever see the floor fire.
        let hits = || vec![hit(7, 4.0), hit(8, 3.0), hit(9, 2.0)];
        let legs = vec![
            // 7: 3 + 2 clears 5 only in total. 8: 2 + 2 stays below.
            // 9: absent on two of the three backends.
            (hits(), vec![support(3, 1), support(2, 2), support(0, 0)]),
            (hits(), vec![support(2, 2), support(2, 1), support(0, 0)]),
            (hits(), vec![support(0, 0), support(0, 0), support(6, 3)]),
        ];
        assert_eq!(searched(legs, 5), Ok(vec![(5, 0.6), (0, 0.0), (6, 0.5)]));
    }

    #[test]
    fn search_merge_overwrites_whatever_support_a_leg_left_in_its_hits() {
        let mut stale = vec![hit(7, 4.0)];
        stale[0].histories = 99;
        stale[0].repeat_fraction = 0.9;
        assert_eq!(searched(vec![(stale, vec![support(2, 1)])], 5), Ok(vec![(0, 0.0)]));
    }

    #[test]
    fn search_legs_that_cannot_be_lined_up_are_a_typed_error() {
        let base = || vec![hit(1, 4.0), hit(2, 3.0)];
        let full = || vec![support(9, 1), support(9, 1)];
        assert_eq!(merge_search_parts(vec![]).unwrap_err(), MergeError::NoBackends);
        assert_eq!(
            merge_search_parts(vec![(base(), full()), (base(), vec![support(9, 1)])]).unwrap_err(),
            MergeError::SupportMismatch { hits: 2, support: 1 }
        );
        let mut reordered = base();
        reordered.swap(0, 1);
        assert_eq!(
            merge_search_parts(vec![(base(), full()), (reordered, full())]).unwrap_err(),
            MergeError::Divergent { what: "hit order" }
        );
        let mut short = base();
        short.pop();
        assert_eq!(
            merge_search_parts(vec![(base(), full()), (short, vec![support(9, 1)])]).unwrap_err(),
            MergeError::Divergent { what: "hit count" }
        );
    }

    proptest::proptest! {
        /// However an entity's histories are partitioned over backends,
        /// the search path's integer sum publishes the very bits the
        /// `FetchAggregate` path derives from the merged parts.
        #[test]
        fn search_support_equals_the_fetched_aggregate_over_any_partition(
            histories in proptest::collection::vec((1u64..6, 0usize..3), 0..40),
            floor in 0usize..12,
        ) {
            let entity = EntityId::new(7);
            let mut backends = vec![AggregateParts::empty(entity); 3];
            for &(interactions, backend) in &histories {
                let parts = &mut backends[backend];
                parts.histories += 1;
                parts.interactions += interactions;
                parts.repeats += u64::from(interactions >= 2);
                parts.effort_points.push((interactions, 100.0));
            }
            let legs =
                backends.iter().map(|p| (vec![hit(7, 4.0)], vec![p.support()])).collect();
            let (got_histories, got_fraction) = searched(legs, floor).expect("merge")[0];
            let union = merge_parts(entity, backends.into_iter().map(Some)).expect("merge");
            let fetched = floored_aggregate(union, floor);
            let (want_histories, want_fraction) =
                fetched.map_or((0, 0.0), |agg| (agg.histories as u64, agg.repeat_fraction));
            proptest::prop_assert_eq!(got_histories, want_histories);
            proptest::prop_assert_eq!(got_fraction.to_bits(), want_fraction.to_bits());
        }
    }

    #[test]
    fn empty_backend_results_merge_to_empty() {
        let merged = search_consensus(&[vec![], vec![], vec![]]).expect("consensus");
        assert!(merged.is_empty());
    }

    #[test]
    fn stats_namespace_and_degrade_partially() {
        let local = orsp_obs::StatsSnapshot {
            counters: vec![("proxy_requests_total".into(), 4)],
            ..Default::default()
        };
        let b0 = orsp_obs::StatsSnapshot {
            counters: vec![("rpc_total".into(), 2)],
            gauges: vec![("world_users".into(), 10)],
            events: vec![orsp_obs::EventSnapshot {
                at_micros: 5,
                kind: "shed".into(),
                detail: "conn".into(),
            }],
            ..Default::default()
        };
        let merged = namespaced_stats(local, vec![(0, Some(b0)), (1, None)]);
        assert_eq!(merged.counter("backend0_rpc_total"), Some(2));
        assert_eq!(merged.gauge("backend0_world_users"), Some(10));
        assert_eq!(merged.events.len(), 1);
        assert_eq!(merged.events[0].kind, "backend0_shed", "event kinds are namespaced");
        assert_eq!(merged.counter("backend1_unreachable"), Some(1));
        assert_eq!(merged.counter("proxy_requests_total"), Some(4));
        let names: Vec<_> = merged.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "merged snapshot stays name-sorted");
    }
}
