//! From spans to a per-layer budget.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover (their union, so parallel fan-out legs
//! are not subtracted twice). Gaps between a caller's span and its
//! callee's — encode, socket, reactor hop, decode — therefore stay with
//! the caller: the self time of a `BackendLink` span *is* the network
//! hop. On a sequential chain (the device round trip) every op's self
//! times sum to its root span exactly, so the layers' *means* add up to
//! the mean whole op unless spans were lost or mis-parented — that gap
//! is `budget.roundtrip_sum_err_frac`. (Medians do not add on a skewed
//! distribution; the table prints both so the skew is visible.)

use crate::stats::Sample;
use crate::trace::{Kind, Seam, Span};
use std::collections::{BTreeMap, HashMap};

/// What was measured at one `(seam, kind)` boundary.
#[derive(Debug, Default, Clone)]
pub struct LayerStat {
    /// Self time of every span, ns.
    pub self_ns: Vec<u64>,
    /// Duration of every span, ns.
    pub dur_ns: Vec<u64>,
    /// Time covered by children, per span, ns.
    pub child_ns: Vec<u64>,
    /// `items` of every span (WAL batch sizes).
    pub items: Vec<u64>,
    /// Self time summed per op, ns (for budget rows).
    pub per_op_self_ns: Vec<u64>,
}

/// The analysed trace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per boundary.
    pub layers: BTreeMap<(Seam, Kind), LayerStat>,
    /// Root span durations by op kind, ns.
    pub roots: BTreeMap<Kind, Vec<u64>>,
    /// Spans whose parent was never recorded (0 on a complete trace).
    pub orphans: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Build the per-layer statistics of a set of spans.
pub fn analyze(spans: &[Span]) -> Analysis {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut analysis = Analysis::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
            if !ids.contains(&s.parent) {
                analysis.orphans += 1;
            }
        }
    }
    // (op, seam, kind) → self time summed over the op's spans there.
    let mut per_op: HashMap<(u64, Seam, Kind), u64> = HashMap::new();
    for s in spans {
        let child = children
            .remove(&s.id)
            .map(|c| covered(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let own = s.dur().saturating_sub(child);
        let stat = analysis.layers.entry((s.seam, s.kind)).or_default();
        stat.self_ns.push(own);
        stat.dur_ns.push(s.dur());
        stat.child_ns.push(child);
        stat.items.push(s.items as u64);
        *per_op.entry((s.op, s.seam, s.kind)).or_default() += own;
        if s.parent == 0 && s.seam == Seam::ClientOp {
            analysis.roots.entry(s.kind).or_default().push(s.dur());
        }
    }
    for ((_, seam, kind), own) in per_op {
        analysis
            .layers
            .entry((seam, kind))
            .or_default()
            .per_op_self_ns
            .push(own);
    }
    analysis
}

impl Analysis {
    fn pooled(
        &self,
        pick: impl Fn(Seam, Kind) -> bool,
        field: impl Fn(&LayerStat) -> &Vec<u64>,
    ) -> Sample {
        Sample::new(
            self.layers
                .iter()
                .filter(|((seam, kind), _)| pick(*seam, *kind))
                .flat_map(|(_, stat)| field(stat).iter().copied())
                .collect(),
        )
    }

    /// p50 self time (µs) over every span at `seam` whose kind passes.
    pub fn self_us(&self, seam: Seam, kinds: &[Kind]) -> f64 {
        self.pooled(
            |s, k| s == seam && (kinds.is_empty() || kinds.contains(&k)),
            |st| &st.self_ns,
        )
        .us(0.5)
    }

    /// p50 duration (µs) over every span at `seam` whose kind passes.
    pub fn dur_us(&self, seam: Seam, kinds: &[Kind]) -> f64 {
        self.pooled(
            |s, k| s == seam && (kinds.is_empty() || kinds.contains(&k)),
            |st| &st.dur_ns,
        )
        .us(0.5)
    }

    /// p50 child-covered time (µs): for a fan-out, the slowest-leg wait.
    pub fn child_us(&self, seam: Seam, kinds: &[Kind]) -> f64 {
        self.pooled(
            |s, k| s == seam && (kinds.is_empty() || kinds.contains(&k)),
            |st| &st.child_ns,
        )
        .us(0.5)
    }

    /// WAL batch sizes seen at the `WalSink` seam.
    pub fn batch_sizes(&self) -> Sample {
        self.pooled(|s, _| s == Seam::WalSink, |st| &st.items)
    }
}

/// Which crate's layer a boundary's self time belongs to.
pub fn layer_name(seam: Seam, kind: Kind) -> String {
    let k = kind.name();
    match (seam, kind) {
        (Seam::ClientOp, _) => "client.glue".into(),
        (Seam::Blind, _) => "client.blind".into(),
        (Seam::Unblind, _) => "client.unblind".into(),
        (Seam::Issuer, _) | (Seam::ClientRpc, _) => format!("net.client_hop[{k}]"),
        (Seam::Proxy, Kind::Search | Kind::Fetch) => format!("proxy.merge[{k}]"),
        (Seam::Proxy, _) => format!("proxy.route[{k}]"),
        (Seam::BackendLink, _) => format!("net.backend_hop[{k}]"),
        (Seam::Backend, Kind::Replicate) => "replica.follower_apply".into(),
        (Seam::Backend, _) => format!("server.{k}"),
        (Seam::WalSink, _) => "storage.commit".into(),
        (Seam::PeerLink, _) => "net.peer_hop".into(),
        (Seam::Publish, _) => "aggregate.publish".into(),
    }
}

/// One row of the printed budget.
pub struct BudgetRow {
    pub layer: String,
    /// p50 of the op's self time in this layer, µs.
    pub p50_us: f64,
    /// Mean of the same, µs.
    pub mean_us: f64,
    /// `mean_us` as a share of the mean whole op.
    pub share: f64,
}

/// The budget of one op kind: rows, the whole op's p50 and mean (µs),
/// and how far the rows' means are from adding up to the whole's.
pub struct Budget {
    pub kind: Kind,
    pub ops: usize,
    pub rows: Vec<BudgetRow>,
    pub whole_p50_us: f64,
    pub whole_mean_us: f64,
    pub sum_err_frac: f64,
}

/// The budget of op kind `root`. Rows are every boundary the kind's ops
/// crossed; an op that did not cross one counts zero there, so means add
/// up to the mean whole op on sequential chains.
pub fn budget(spans: &[Span], root: Kind) -> Option<Budget> {
    let ops: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.seam == Seam::ClientOp && s.kind == root)
        .map(|s| s.op)
        .collect();
    if ops.is_empty() {
        return None;
    }
    let of_kind: Vec<Span> = spans
        .iter()
        .filter(|s| ops.contains(&s.op))
        .copied()
        .collect();
    let analysis = analyze(&of_kind);
    let whole = Sample::new(analysis.roots.get(&root).cloned().unwrap_or_default());
    let n = ops.len();
    let mut rows: Vec<BudgetRow> = analysis
        .layers
        .iter()
        .map(|((seam, kind), stat)| {
            // Ops that never reached this boundary spent nothing there.
            let mut per_op = stat.per_op_self_ns.clone();
            per_op.resize(n.max(per_op.len()), 0);
            let sample = Sample::new(per_op);
            let mean_us = sample.mean() / 1e3;
            BudgetRow {
                layer: layer_name(*seam, *kind),
                p50_us: sample.us(0.5),
                mean_us,
                share: if whole.mean() > 0.0 {
                    mean_us * 1e3 / whole.mean()
                } else {
                    0.0
                },
            }
        })
        .collect();
    rows.sort_by(|a, b| b.mean_us.total_cmp(&a.mean_us));
    let mean_sum: f64 = rows.iter().map(|r| r.mean_us).sum();
    let whole_mean_us = whole.mean() / 1e3;
    Some(Budget {
        kind: root,
        ops: n,
        rows,
        whole_p50_us: whole.us(0.5),
        whole_mean_us,
        sum_err_frac: if whole_mean_us > 0.0 {
            (mean_sum - whole_mean_us).abs() / whole_mean_us
        } else {
            0.0
        },
    })
}

impl Budget {
    /// The budget as a table: one row per layer, p50 and mean self time,
    /// share of the whole op, and the sums against the traced whole.
    pub fn render(&self) -> String {
        let mut out = format!(
            "budget of one {} ({} traced ops; self time = span - union of child spans)\n\
             {:<28} {:>10} {:>10} {:>8}\n",
            self.kind.name(),
            self.ops,
            "layer",
            "p50 us",
            "mean us",
            "share"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>10.1} {:>10.1} {:>7.1}%\n",
                r.layer,
                r.p50_us,
                r.mean_us,
                r.share * 100.0
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>10.1} {:>10.1} {:>7.1}%\n{:<28} {:>10.1} {:>10.1}\n",
            "sum of layers",
            self.rows.iter().map(|r| r.p50_us).sum::<f64>(),
            self.rows.iter().map(|r| r.mean_us).sum::<f64>(),
            self.rows.iter().map(|r| r.share).sum::<f64>() * 100.0,
            "traced whole op",
            self.whole_p50_us,
            self.whole_mean_us,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seam: Seam, kind: Kind, op: u64, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            seam,
            kind,
            node: 0,
            op,
            id,
            parent,
            start_ns: start,
            end_ns: end,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A proxy span with two overlapping legs and a later third.
        let spans = [
            span(Seam::ClientOp, Kind::Search, 1, 1, 0, 0, 1_000),
            span(Seam::Proxy, Kind::Search, 1, 2, 1, 100, 900),
            span(Seam::BackendLink, Kind::Search, 1, 3, 2, 200, 500),
            span(Seam::BackendLink, Kind::Search, 1, 4, 2, 300, 600),
            span(Seam::BackendLink, Kind::Parts, 1, 5, 2, 700, 800),
        ];
        let a = analyze(&spans);
        assert_eq!(a.orphans, 0);
        // Union of [200,500] ∪ [300,600] ∪ [700,800] = 500.
        assert_eq!(a.layers[&(Seam::Proxy, Kind::Search)].child_ns, vec![500]);
        assert_eq!(a.layers[&(Seam::Proxy, Kind::Search)].self_ns, vec![300]);
        assert_eq!(a.layers[&(Seam::ClientOp, Kind::Search)].self_ns, vec![200]);
        assert_eq!(a.roots[&Kind::Search], vec![1_000]);
    }

    #[test]
    fn a_sequential_chain_sums_to_its_root() {
        let mut spans = Vec::new();
        for op in 1..=40u64 {
            let base = op * 10_000;
            let id = op * 10;
            spans.push(span(
                Seam::ClientOp,
                Kind::RoundTrip,
                op,
                id,
                0,
                base,
                base + 1_000 + op,
            ));
            spans.push(span(
                Seam::Issuer,
                Kind::Issue,
                op,
                id + 1,
                id,
                base + 50,
                base + 450,
            ));
            spans.push(span(
                Seam::Proxy,
                Kind::Issue,
                op,
                id + 2,
                id + 1,
                base + 100,
                base + 400,
            ));
            spans.push(span(
                Seam::ClientRpc,
                Kind::Upload,
                op,
                id + 3,
                id,
                base + 500,
                base + 950,
            ));
        }
        let b = budget(&spans, Kind::RoundTrip).unwrap();
        assert_eq!(b.ops, 40);
        let mean_sum: f64 = b.rows.iter().map(|r| r.mean_us).sum();
        assert!(
            (mean_sum - b.whole_mean_us).abs() < 1e-6,
            "means add up exactly"
        );
        assert!(b.sum_err_frac < 1e-9);
        // Lose a middle layer's spans: its children are orphaned, their
        // time is counted under them and under the root, and the gap shows.
        let lossy: Vec<Span> = spans
            .iter()
            .filter(|s| s.seam != Seam::Issuer)
            .copied()
            .collect();
        assert!(analyze(&lossy).orphans == 40);
        assert!(budget(&lossy, Kind::RoundTrip).unwrap().sum_err_frac > 0.1);
        assert!(budget(&spans, Kind::Search).is_none());
    }
}
