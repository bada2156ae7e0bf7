//! Histograms with explicit bin edges (Figure 3a's visits-per-user bars).

/// A histogram over `f64` values with explicit right-open bins
/// `[edge[i], edge[i+1])`; values at or beyond the last edge land in an
/// overflow bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// A histogram with the given ascending bin edges (at least 2).
    pub fn new(edges: Vec<f64>) -> Histogram {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let bins = edges.len() - 1;
        Histogram { edges, counts: vec![0; bins], overflow: 0, underflow: 0 }
    }

    /// Integer-count bins `[0,1), [1,2), ..., [max, max+1)` — the natural
    /// shape for visits-per-user.
    pub fn integer_bins(max: usize) -> Histogram {
        Histogram::new((0..=max + 1).map(|i| i as f64).collect())
    }

    /// Add one value.
    pub fn add(&mut self, value: f64) {
        if value < self.edges[0] {
            self.underflow += 1;
            return;
        }
        if value >= *self.edges.last().unwrap() {
            self.overflow += 1;
            return;
        }
        let idx = self.edges.partition_point(|&e| e <= value) - 1;
        self.counts[idx] += 1;
    }

    /// Add many values.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Bin count by index.
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// All `(bin_low_edge, count)` pairs.
    pub fn bars(&self) -> Vec<(f64, u64)> {
        self.edges[..self.edges.len() - 1]
            .iter()
            .zip(self.counts.iter())
            .map(|(&e, &c)| (e, c))
            .collect()
    }

    /// Total values recorded in bins (excluding under/overflow).
    pub fn total_in_bins(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Values beyond the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Values below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Normalized bars: `(bin_low_edge, fraction)`.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let total = (self.total_in_bins() + self.overflow + self.underflow).max(1) as f64;
        self.bars().into_iter().map(|(e, c)| (e, c as f64 / total)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_bins_place_counts() {
        let mut h = Histogram::integer_bins(5);
        h.extend([0.0, 1.0, 1.0, 3.0, 5.0, 6.0, -1.0]);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total_in_bins(), 5);
    }

    #[test]
    fn bars_align_with_edges() {
        let mut h = Histogram::new(vec![0.0, 10.0, 20.0]);
        h.extend([5.0, 15.0, 15.5]);
        assert_eq!(h.bars(), vec![(0.0, 1), (10.0, 2)]);
    }

    #[test]
    fn boundary_values_go_right_bin() {
        let mut h = Histogram::new(vec![0.0, 1.0, 2.0]);
        h.add(1.0);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.count(1), 1);
        h.add(2.0);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn normalized_sums_to_at_most_one() {
        let mut h = Histogram::integer_bins(3);
        h.extend([0.0, 1.0, 2.0, 3.0, 99.0]);
        let sum: f64 = h.normalized().iter().map(|(_, f)| f).sum();
        assert!((sum - 0.8).abs() < 1e-12, "overflow excluded from bars: {sum}");
    }

    #[test]
    #[should_panic(expected = "edges must ascend")]
    fn unsorted_edges_panic() {
        Histogram::new(vec![1.0, 0.0]);
    }
}
