//! The ring math every replication decision derives from.
//!
//! One formula places data everywhere in this repo: [`shard_index`] over
//! the record id. The proxy uses it with the backend count to pick a
//! *hash range*; this module extends that to a replica set per range.
//! Both the proxy's failover routing and each `orsp-replica` node carry
//! the same [`Topology`] value, so promotion decisions made at the front
//! door always name a node the range's replicas expect.

use crate::sharded::shard_index;
use orsp_types::RecordId;
use std::fmt;

/// Why a cluster shape is impossible. Each variant names the one value
/// at fault, so a daemon can point at the flag that set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// `cluster_size` is 0.
    EmptyCluster,
    /// `node` is not in `0..cluster_size`.
    NodeOutsideCluster {
        /// The node index asked for.
        node: u32,
        /// The ring size.
        cluster_size: u32,
    },
    /// `replication_factor` is not in `1..=cluster_size`.
    ReplicationFactor {
        /// The copies per range asked for.
        replication_factor: u32,
        /// The ring size.
        cluster_size: u32,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShapeError::EmptyCluster => write!(f, "a cluster has at least one node"),
            ShapeError::NodeOutsideCluster { node, cluster_size } => {
                write!(f, "node {node} outside cluster of {cluster_size}")
            }
            ShapeError::ReplicationFactor { replication_factor, cluster_size } => {
                write!(f, "replication factor {replication_factor} not in 1..={cluster_size}")
            }
        }
    }
}

/// Static cluster shape: this node's index, the ring size, and how many
/// copies each range keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// This node's index in the ring (`0..cluster_size`).
    pub node: u32,
    /// Number of nodes (= number of hash ranges).
    pub cluster_size: u32,
    /// Copies per range, including the primary. 1 = no replication.
    pub replication_factor: u32,
}

impl Topology {
    /// Build a topology, validating the shape.
    ///
    /// # Panics
    ///
    /// On any shape [`Topology::try_new`] refuses.
    pub fn new(node: u32, cluster_size: u32, replication_factor: u32) -> Topology {
        Topology::try_new(node, cluster_size, replication_factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a topology, or say which value makes the shape impossible.
    pub fn try_new(
        node: u32,
        cluster_size: u32,
        replication_factor: u32,
    ) -> Result<Topology, ShapeError> {
        if cluster_size == 0 {
            return Err(ShapeError::EmptyCluster);
        }
        if node >= cluster_size {
            return Err(ShapeError::NodeOutsideCluster { node, cluster_size });
        }
        if !(1..=cluster_size).contains(&replication_factor) {
            return Err(ShapeError::ReplicationFactor { replication_factor, cluster_size });
        }
        Ok(Topology { node, cluster_size, replication_factor })
    }

    /// Which hash range a record belongs to — the proxy's routing
    /// formula, verbatim.
    pub fn range_of(&self, record_id: &RecordId) -> u32 {
        shard_index(record_id.as_bytes(), self.cluster_size as usize) as u32
    }

    /// The nodes holding `range`, in promotion order: the born owner
    /// first, then the next `replication_factor - 1` nodes around the
    /// ring. Membership is static; *roles* within the set move.
    pub fn replica_set(&self, range: u32) -> Vec<u32> {
        (0..self.replication_factor).map(|k| (range + k) % self.cluster_size).collect()
    }

    /// True iff this node is in `range`'s replica set.
    pub fn holds(&self, range: u32) -> bool {
        self.replica_set(range).contains(&self.node)
    }

    /// Every range this node holds a copy of, in range order. The born
    /// range (`range == node`) is always first.
    pub fn held_ranges(&self) -> Vec<u32> {
        let mut held: Vec<u32> = (0..self.cluster_size).filter(|&r| self.holds(r)).collect();
        held.sort_by_key(|&r| (r != self.node, r));
        held
    }

    /// The other members of `range`'s replica set — who a primary
    /// forwards `Replicate` batches to.
    pub fn peers_of(&self, range: u32) -> Vec<u32> {
        self.replica_set(range).into_iter().filter(|&n| n != self.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_sets_wrap_the_ring_and_partition_primaries() {
        let t = Topology::new(0, 3, 2);
        assert_eq!(t.replica_set(0), vec![0, 1]);
        assert_eq!(t.replica_set(1), vec![1, 2]);
        assert_eq!(t.replica_set(2), vec![2, 0]);
        assert_eq!(t.held_ranges(), vec![0, 2], "born range first");
        assert_eq!(t.peers_of(0), vec![1]);
        assert!(!t.holds(1));
    }

    #[test]
    fn rf_one_degenerates_to_the_unreplicated_cluster() {
        let t = Topology::new(2, 3, 1);
        assert_eq!(t.replica_set(2), vec![2]);
        assert_eq!(t.held_ranges(), vec![2]);
        assert!(t.peers_of(2).is_empty());
    }

    #[test]
    fn every_node_agrees_on_every_replica_set() {
        // The proxy and each node compute replica sets independently;
        // the set must not depend on who is asking.
        for node in 0..5 {
            let t = Topology::new(node, 5, 3);
            for range in 0..5 {
                let reference = Topology::new(0, 5, 3).replica_set(range);
                assert_eq!(t.replica_set(range), reference);
            }
        }
    }

    #[test]
    fn range_of_matches_the_proxy_routing_formula() {
        let t = Topology::new(0, 7, 2);
        for i in 0..64u8 {
            let id = RecordId::from_bytes([i; 32]);
            assert_eq!(t.range_of(&id) as usize, crate::shard_index(id.as_bytes(), 7));
        }
    }

    #[test]
    fn impossible_shapes_are_refused_by_the_one_check() {
        assert_eq!(Topology::try_new(0, 0, 0), Err(ShapeError::EmptyCluster));
        assert_eq!(
            Topology::try_new(3, 3, 2),
            Err(ShapeError::NodeOutsideCluster { node: 3, cluster_size: 3 })
        );
        assert_eq!(
            Topology::try_new(0, 3, 4),
            Err(ShapeError::ReplicationFactor { replication_factor: 4, cluster_size: 3 })
        );
        assert_eq!(
            Topology::try_new(0, 3, 0),
            Err(ShapeError::ReplicationFactor { replication_factor: 0, cluster_size: 3 })
        );
        assert_eq!(Topology::try_new(2, 3, 3), Ok(Topology::new(2, 3, 3)));
    }
}
