//! Visit sessionization: turning a stream of noisy location fixes into
//! dwell episodes.
//!
//! A small state machine in the style the networking guides favour —
//! explicit states, no hidden timers:
//!
//! ```text
//!            fix near current cluster           gap > max_gap or moved
//!           ┌─────────────────────────┐        ┌────────────────────┐
//!           ▼                         │        ▼                    │
//!       Dwelling ────────────────► Dwelling  Idle ◄──────────── Dwelling
//!  (update centroid, extend end)          (emit visit if dwell ≥ min)
//! ```
//!
//! Anchor dwells (home, work) are visits too at this layer; the caller
//! filters by whether the dwell location maps to a listed entity.

use crate::mapper::EntityMapper;
use orsp_sensors::LocationFix;
use orsp_types::{EntityId, GeoPoint, SimDuration, Timestamp};

/// A detected dwell episode.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedVisit {
    /// Dwell start (first fix of the cluster).
    pub start: Timestamp,
    /// Dwell end (last fix of the cluster).
    pub end: Timestamp,
    /// Cluster centroid.
    pub centroid: GeoPoint,
    /// Entity the centroid maps to, if any.
    pub entity: Option<EntityId>,
    /// Distance from the previous dwell's centroid, meters — the paper's
    /// "distance travelled since previous stationary spot".
    pub travel_from_prev_m: f64,
    /// Number of fixes supporting the cluster.
    pub fix_count: usize,
}

impl DetectedVisit {
    /// Dwell duration.
    pub fn dwell(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Configuration for the sessionizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionizerConfig {
    /// Fixes farther than this from the running centroid start a new
    /// cluster.
    pub cluster_radius_m: f64,
    /// Fixes more than this far apart in time break a cluster even at the
    /// same place (the sampling gap means we can't vouch for presence).
    pub max_gap: SimDuration,
    /// Minimum dwell for a cluster to count as a visit.
    pub min_dwell: SimDuration,
    /// Maximum distance from centroid to a directory entity for the visit
    /// to be attributed to that entity.
    pub entity_match_m: f64,
}

impl Default for SessionizerConfig {
    fn default() -> Self {
        SessionizerConfig {
            cluster_radius_m: 120.0,
            max_gap: SimDuration::minutes(45),
            min_dwell: SimDuration::minutes(15),
            entity_match_m: 80.0,
        }
    }
}

/// Streaming visit detector.
#[derive(Debug, Clone)]
pub struct VisitSessionizer {
    config: SessionizerConfig,
    state: State,
    prev_centroid: Option<GeoPoint>,
}

#[derive(Debug, Clone)]
enum State {
    Idle,
    Dwelling { start: Timestamp, last: Timestamp, sum_x: f64, sum_y: f64, count: usize },
}

impl VisitSessionizer {
    /// A sessionizer with the given config.
    pub fn new(config: SessionizerConfig) -> Self {
        VisitSessionizer { config, state: State::Idle, prev_centroid: None }
    }

    /// Feed one fix; returns a completed visit if this fix closed one.
    pub fn push(&mut self, fix: &LocationFix, mapper: &EntityMapper) -> Option<DetectedVisit> {
        match &mut self.state {
            State::Idle => {
                self.state = State::Dwelling {
                    start: fix.time,
                    last: fix.time,
                    sum_x: fix.point.x,
                    sum_y: fix.point.y,
                    count: 1,
                };
                None
            }
            State::Dwelling { start, last, sum_x, sum_y, count } => {
                let centroid = GeoPoint::new(*sum_x / *count as f64, *sum_y / *count as f64);
                let same_place = centroid.distance_to(&fix.point) <= self.config.cluster_radius_m;
                let in_time = fix.time - *last <= self.config.max_gap;
                if same_place && in_time {
                    *last = fix.time;
                    *sum_x += fix.point.x;
                    *sum_y += fix.point.y;
                    *count += 1;
                    None
                } else {
                    // Close the current cluster, open a new one at the fix.
                    let (cstart, clast, ccount) = (*start, *last, *count);
                    self.state = State::Dwelling {
                        start: fix.time,
                        last: fix.time,
                        sum_x: fix.point.x,
                        sum_y: fix.point.y,
                        count: 1,
                    };
                    self.close(centroid, cstart, clast, ccount, mapper)
                }
            }
        }
    }

    /// Flush any in-progress cluster at end of stream.
    pub fn finish(&mut self, mapper: &EntityMapper) -> Option<DetectedVisit> {
        if let State::Dwelling { start, last, sum_x, sum_y, count } = self.state.clone() {
            self.state = State::Idle;
            let centroid = GeoPoint::new(sum_x / count as f64, sum_y / count as f64);
            self.close(centroid, start, last, count, mapper)
        } else {
            None
        }
    }

    fn close(
        &mut self,
        centroid: GeoPoint,
        start: Timestamp,
        last: Timestamp,
        count: usize,
        mapper: &EntityMapper,
    ) -> Option<DetectedVisit> {
        let travel = self.prev_centroid.map(|p| p.distance_to(&centroid)).unwrap_or(0.0);
        self.prev_centroid = Some(centroid);
        if last - start < self.config.min_dwell {
            return None;
        }
        Some(DetectedVisit {
            start,
            end: last,
            centroid,
            entity: mapper.entity_at(&centroid, self.config.entity_match_m),
            travel_from_prev_m: travel,
            fix_count: count,
        })
    }

    /// Run a whole fix stream through a fresh sessionizer.
    pub fn sessionize(
        fixes: &[LocationFix],
        mapper: &EntityMapper,
        config: SessionizerConfig,
    ) -> Vec<DetectedVisit> {
        let mut s = VisitSessionizer::new(config);
        let mut out = Vec::new();
        for f in fixes {
            if let Some(v) = s.push(f, mapper) {
                out.push(v);
            }
        }
        if let Some(v) = s.finish(mapper) {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::EntityDirectory;
    use orsp_sensors::FixSource;
    use orsp_types::{Category, Cuisine};

    fn mapper() -> EntityMapper {
        EntityMapper::new(vec![EntityDirectory {
            id: EntityId::new(7),
            name: "Cafe".into(),
            category: Category::Restaurant(Cuisine::French),
            location: GeoPoint::new(1_000.0, 1_000.0),
            phone: 1,
        }])
    }

    fn fix(t_s: i64, x: f64, y: f64) -> LocationFix {
        LocationFix {
            time: Timestamp::from_seconds(t_s),
            point: GeoPoint::new(x, y),
            source: FixSource::Gps,
        }
    }

    #[test]
    fn detects_a_simple_visit() {
        let m = mapper();
        // 40 minutes of fixes at the cafe, then movement away.
        let mut fixes: Vec<LocationFix> =
            (0..9).map(|i| fix(i * 300, 1_000.0 + (i % 3) as f64, 1_000.0)).collect();
        fixes.push(fix(9 * 300, 5_000.0, 5_000.0));
        let visits = VisitSessionizer::sessionize(&fixes, &m, SessionizerConfig::default());
        assert_eq!(visits.len(), 1);
        let v = &visits[0];
        assert_eq!(v.entity, Some(EntityId::new(7)));
        assert!(v.dwell() >= SimDuration::minutes(40));
        assert_eq!(v.fix_count, 9);
    }

    #[test]
    fn short_dwell_is_not_a_visit() {
        let m = mapper();
        // Two fixes 5 minutes apart, then away: below min_dwell.
        let fixes =
            vec![fix(0, 1_000.0, 1_000.0), fix(300, 1_000.0, 1_001.0), fix(600, 9_000.0, 0.0)];
        let visits = VisitSessionizer::sessionize(&fixes, &m, SessionizerConfig::default());
        assert!(visits.is_empty());
    }

    #[test]
    fn time_gap_splits_clusters() {
        let m = mapper();
        let cfg = SessionizerConfig::default();
        // Two one-hour dwells at the same place separated by a 3-hour gap
        // with no fixes: must be two visits, not one 5-hour visit.
        let mut fixes = Vec::new();
        for i in 0..7 {
            fixes.push(fix(i * 600, 1_000.0, 1_000.0));
        }
        let resume = 3_600 + 3 * 3_600;
        for i in 0..7 {
            fixes.push(fix(resume + i * 600, 1_000.0, 1_000.0));
        }
        let visits = VisitSessionizer::sessionize(&fixes, &m, cfg);
        assert_eq!(visits.len(), 2);
        assert!(visits[0].dwell() <= SimDuration::hours(2));
    }

    #[test]
    fn travel_from_prev_is_centroid_distance() {
        let m = mapper();
        let mut fixes = Vec::new();
        // Dwell 1 at origin.
        for i in 0..5 {
            fixes.push(fix(i * 600, 0.0, 0.0));
        }
        // Dwell 2 at the cafe.
        for i in 0..5 {
            fixes.push(fix(4_000 + i * 600, 1_000.0, 1_000.0));
        }
        let visits = VisitSessionizer::sessionize(&fixes, &m, SessionizerConfig::default());
        assert_eq!(visits.len(), 2);
        assert_eq!(visits[0].travel_from_prev_m, 0.0, "no previous dwell");
        let expected = GeoPoint::ORIGIN.distance_to(&GeoPoint::new(1_000.0, 1_000.0));
        assert!((visits[1].travel_from_prev_m - expected).abs() < 1.0);
    }

    #[test]
    fn dwell_away_from_entities_has_no_entity() {
        let m = mapper();
        let fixes: Vec<LocationFix> = (0..6).map(|i| fix(i * 600, 0.0, 0.0)).collect();
        let visits = VisitSessionizer::sessionize(&fixes, &m, SessionizerConfig::default());
        assert_eq!(visits.len(), 1);
        assert_eq!(visits[0].entity, None);
    }

    #[test]
    fn noise_within_cluster_radius_stays_one_visit() {
        let m = mapper();
        let fixes: Vec<LocationFix> = (0..8)
            .map(|i| {
                fix(i * 600, 1_000.0 + (i as f64 * 17.0) % 60.0, 1_000.0 - (i as f64 * 13.0) % 60.0)
            })
            .collect();
        let visits = VisitSessionizer::sessionize(&fixes, &m, SessionizerConfig::default());
        assert_eq!(visits.len(), 1);
        assert_eq!(visits[0].entity, Some(EntityId::new(7)));
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let m = mapper();
        let visits = VisitSessionizer::sessionize(&[], &m, SessionizerConfig::default());
        assert!(visits.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use orsp_sensors::FixSource;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the fix stream, sessionization never panics, visits
        /// are chronological and non-overlapping, and every visit meets
        /// the minimum dwell.
        #[test]
        fn sessionizer_invariants(
            raw in proptest::collection::vec((0i64..2_000_000, -5_000.0f64..5_000.0, -5_000.0f64..5_000.0), 0..200),
        ) {
            let mut fixes: Vec<LocationFix> = raw
                .iter()
                .map(|&(t, x, y)| LocationFix {
                    time: Timestamp::from_seconds(t),
                    point: GeoPoint::new(x, y),
                    source: FixSource::Gps,
                })
                .collect();
            fixes.sort_by_key(|f| f.time);
            let mapper = crate::mapper::EntityMapper::new(Vec::new());
            let config = SessionizerConfig::default();
            let visits = VisitSessionizer::sessionize(&fixes, &mapper, config);
            for v in &visits {
                prop_assert!(v.dwell() >= config.min_dwell);
                prop_assert!(v.fix_count >= 1);
            }
            for pair in visits.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start, "visits must not overlap");
            }
        }
    }
}
