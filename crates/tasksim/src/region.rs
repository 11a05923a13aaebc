//! Logical regions, fields, and partitions.
//!
//! Legion's data model organizes data into *logical regions*; regions can
//! be partitioned into subregions, and the dependence analysis must know
//! whether two region arguments may alias. We model the structural core:
//! a forest of regions where each region has at most one *disjoint*
//! partition into subregions (sufficient for every workload in the paper's
//! evaluation — stencil/halo partitions are disjoint). Two regions alias
//! iff one is an ancestor of (or equal to) the other.
//!
//! Regions also carry an allocation generation so that a freed-and-reused
//! region name can be distinguished by the runtime's bookkeeping while
//! still *hashing* identically — which is precisely the cuPyNumeric
//! behaviour (Figure 1) that makes naive manual tracing invalid.

use crate::ids::RegionId;
use crate::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

#[derive(Debug, Clone)]
struct RegionNode {
    parent: Option<RegionId>,
    children: Vec<RegionId>,
    /// Depth from its tree root (roots have depth 0).
    depth: u32,
    /// Number of fields in the region's field space.
    fields: u32,
    live: bool,
}

/// The forest of logical regions.
///
/// # Example
///
/// ```
/// use tasksim::region::RegionForest;
///
/// let mut forest = RegionForest::new();
/// let grid = forest.create_region(1);
/// let parts = forest.partition(grid, 4).unwrap();
/// assert!(forest.may_alias(grid, parts[0]));
/// assert!(!forest.may_alias(parts[0], parts[1]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionForest {
    nodes: Vec<RegionNode>,
}

/// Errors from region-forest operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// The region id does not name a live region of this forest.
    UnknownRegion(RegionId),
    /// The region is already partitioned.
    AlreadyPartitioned(RegionId),
    /// A partition must have at least one subregion.
    EmptyPartition,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownRegion(r) => write!(f, "unknown or destroyed region {r}"),
            Self::AlreadyPartitioned(r) => write!(f, "region {r} already partitioned"),
            Self::EmptyPartition => write!(f, "partition needs at least one subregion"),
        }
    }
}

impl std::error::Error for RegionError {}

impl RegionForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new top-level region with `fields` fields.
    pub fn create_region(&mut self, fields: u32) -> RegionId {
        let id = RegionId(self.nodes.len() as u32);
        self.nodes.push(RegionNode {
            parent: None,
            children: Vec::new(),
            depth: 0,
            fields,
            live: true,
        });
        id
    }

    /// Partitions `region` into `parts` disjoint subregions, returning
    /// their ids.
    ///
    /// # Errors
    ///
    /// Fails if `region` is unknown/destroyed, already partitioned, or
    /// `parts == 0`.
    pub fn partition(
        &mut self,
        region: RegionId,
        parts: u32,
    ) -> Result<Vec<RegionId>, RegionError> {
        let node = self.get(region)?;
        if !node.children.is_empty() {
            return Err(RegionError::AlreadyPartitioned(region));
        }
        if parts == 0 {
            return Err(RegionError::EmptyPartition);
        }
        let (depth, fields) = (node.depth + 1, node.fields);
        let mut ids = Vec::with_capacity(parts as usize);
        for _ in 0..parts {
            let id = RegionId(self.nodes.len() as u32);
            self.nodes.push(RegionNode {
                parent: Some(region),
                children: Vec::new(),
                depth,
                fields,
                live: true,
            });
            ids.push(id);
        }
        self.nodes[region.index()].children = ids.clone();
        Ok(ids)
    }

    /// Destroys a region (and implicitly its subtree). The id is never
    /// reused; allocators model cuPyNumeric-style reuse *above* this layer
    /// by creating fresh regions.
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown or already destroyed.
    pub fn destroy_region(&mut self, region: RegionId) -> Result<(), RegionError> {
        self.get(region)?;
        let mut stack = vec![region];
        while let Some(r) = stack.pop() {
            self.nodes[r.index()].live = false;
            stack.extend(self.nodes[r.index()].children.iter().copied());
        }
        Ok(())
    }

    /// Whether `region` names a live region.
    pub fn is_live(&self, region: RegionId) -> bool {
        self.nodes.get(region.index()).is_some_and(|n| n.live)
    }

    /// Number of fields of `region`.
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown or destroyed.
    pub fn field_count(&self, region: RegionId) -> Result<u32, RegionError> {
        Ok(self.get(region)?.fields)
    }

    /// The parent region, if any.
    pub fn parent(&self, region: RegionId) -> Option<RegionId> {
        self.nodes.get(region.index()).and_then(|n| n.parent)
    }

    /// The root of `region`'s tree.
    pub fn root(&self, mut region: RegionId) -> RegionId {
        while let Some(p) = self.parent(region) {
            region = p;
        }
        region
    }

    /// Whether two regions may name overlapping data: true iff one is an
    /// ancestor of (or equal to) the other. Siblings of a disjoint
    /// partition never alias.
    pub fn may_alias(&self, a: RegionId, b: RegionId) -> bool {
        if a == b {
            return true;
        }
        let (da, db) = (self.depth(a), self.depth(b));
        // Walk the deeper one up to the shallower's depth; alias iff they
        // meet.
        let (mut deep, mut shallow, dd, ds) =
            if da >= db { (a, b, da, db) } else { (b, a, db, da) };
        for _ in ds..dd {
            deep = match self.parent(deep) {
                Some(p) => p,
                None => return false,
            };
        }
        let _ = &mut shallow;
        deep == shallow
    }

    fn depth(&self, r: RegionId) -> u32 {
        self.nodes.get(r.index()).map_or(0, |n| n.depth)
    }

    fn get(&self, r: RegionId) -> Result<&RegionNode, RegionError> {
        match self.nodes.get(r.index()) {
            Some(n) if n.live => Ok(n),
            _ => Err(RegionError::UnknownRegion(r)),
        }
    }
}

impl Snapshot for RegionForest {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_seq(&self.nodes, |w, n| {
            w.put_opt_u32(n.parent.map(|p| p.0));
            w.put_seq(&n.children, |w, c| w.put_u32(c.0));
            w.put_u32(n.depth);
            w.put_u32(n.fields);
            w.put_bool(n.live);
        });
    }
}

impl Restore for RegionForest {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let nodes = r.get_seq(|r| {
            let parent = r.get_opt_u32()?.map(RegionId);
            let children = r.get_seq(|r| Ok(RegionId(r.get_u32()?)))?;
            Ok(RegionNode {
                parent,
                children,
                depth: r.get_u32()?,
                fields: r.get_u32()?,
                live: r.get_bool()?,
            })
        })?;
        let bound = nodes.len();
        for n in &nodes {
            if n.parent.is_some_and(|p| p.index() >= bound)
                || n.children.iter().any(|c| c.index() >= bound)
            {
                return Err(SnapshotError::Corrupt("region id out of range".into()));
            }
        }
        Ok(Self { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_alias_self() {
        let mut f = RegionForest::new();
        let a = f.create_region(2);
        let b = f.create_region(2);
        assert!(f.may_alias(a, a));
        assert!(!f.may_alias(a, b));
        assert_eq!(f.field_count(a), Ok(2));
        assert_eq!(f.root(a), a);
    }

    #[test]
    fn partition_disjointness() {
        let mut f = RegionForest::new();
        let top = f.create_region(1);
        let parts = f.partition(top, 4).unwrap();
        assert_eq!(parts.len(), 4);
        for (i, &p) in parts.iter().enumerate() {
            assert!(f.may_alias(top, p), "parent aliases child");
            assert!(f.may_alias(p, top), "child aliases parent");
            assert_eq!(f.parent(p), Some(top));
            assert_eq!(f.root(p), top);
            for &q in &parts[i + 1..] {
                assert!(!f.may_alias(p, q), "siblings are disjoint");
            }
        }
    }

    #[test]
    fn nested_partitions() {
        let mut f = RegionForest::new();
        let top = f.create_region(1);
        let mid = f.partition(top, 2).unwrap();
        let leaves = f.partition(mid[0], 2).unwrap();
        assert!(f.may_alias(leaves[0], top), "grandchild aliases root");
        assert!(f.may_alias(top, leaves[1]));
        assert!(!f.may_alias(leaves[0], mid[1]), "cousin subtrees disjoint");
        assert_eq!(f.root(leaves[1]), top);
    }

    #[test]
    fn double_partition_rejected() {
        let mut f = RegionForest::new();
        let top = f.create_region(1);
        f.partition(top, 2).unwrap();
        assert_eq!(f.partition(top, 2), Err(RegionError::AlreadyPartitioned(top)));
        assert_eq!(f.partition(RegionId(99), 2), Err(RegionError::UnknownRegion(RegionId(99))));
        let solo = f.create_region(1);
        assert_eq!(f.partition(solo, 0), Err(RegionError::EmptyPartition));
    }

    #[test]
    fn destroy_subtree() {
        let mut f = RegionForest::new();
        let top = f.create_region(1);
        let parts = f.partition(top, 2).unwrap();
        f.destroy_region(top).unwrap();
        assert!(!f.is_live(top));
        assert!(!f.is_live(parts[0]));
        assert!(f.destroy_region(top).is_err(), "double destroy rejected");
        // Ids are not reused.
        let fresh = f.create_region(1);
        assert_ne!(fresh, top);
        assert_ne!(fresh, parts[0]);
        assert_ne!(fresh, parts[1]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// may_alias is reflexive and symmetric over random forests.
            #[test]
            fn alias_relation_properties(ops in proptest::collection::vec(0u8..3, 1..40)) {
                let mut f = RegionForest::new();
                let mut regions = vec![f.create_region(1)];
                for op in ops {
                    match op {
                        0 => regions.push(f.create_region(1)),
                        _ => {
                            let r = regions[regions.len() / 2];
                            if let Ok(parts) = f.partition(r, 3) {
                                regions.extend(parts);
                            }
                        }
                    }
                }
                for &a in &regions {
                    prop_assert!(f.may_alias(a, a));
                    for &b in &regions {
                        prop_assert_eq!(f.may_alias(a, b), f.may_alias(b, a));
                    }
                }
            }
        }
    }
}
