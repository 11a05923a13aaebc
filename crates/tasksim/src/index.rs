//! Index task launches with projection onto partitions.
//!
//! Legion applications launch *index tasks*: one operation whose point
//! tasks span a partition, with each point `i` accessing subregion `i`
//! through a projection functor. The dependence analysis treats the whole
//! launch as a single operation whose region footprint is the union of
//! its points' requirements — which is exactly how this module lowers an
//! [`IndexLaunch`] to a [`TaskDesc`]: one requirement per projected
//! subregion plus one per broadcast (whole-region) argument.
//!
//! Two index launches over disjoint projections of different partitions
//! therefore run in parallel, launches writing the same projection
//! serialize, and a whole-region operation fences all of them — the same
//! aliasing discipline point tasks would induce, at per-launch (not
//! per-point) analysis cost, matching Legion's control-replicated
//! analysis model.

use crate::cost::Micros;
use crate::ids::{RegionId, TaskKindId};
use crate::privilege::{Privilege, ReductionOp};
use crate::task::{RegionRequirement, TaskDesc};

/// Builder for an index task launch.
///
/// # Example
///
/// ```
/// use tasksim::index::IndexLaunch;
/// use tasksim::region::RegionForest;
/// use tasksim::ids::TaskKindId;
/// use tasksim::cost::Micros;
///
/// let mut forest = RegionForest::new();
/// let grid = forest.create_region(1);
/// let parts = forest.partition(grid, 4).unwrap();
///
/// let stencil = IndexLaunch::new(TaskKindId(7))
///     .projects_reads(&parts)
///     .projects_writes(&parts)
///     .gpu_time_per_point(Micros(500.0), 4);
/// let task = stencil.into_task();
/// assert_eq!(task.requirements.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct IndexLaunch {
    kind: TaskKindId,
    requirements: Vec<RegionRequirement>,
    points: u32,
    gpu_time: Micros,
}

impl IndexLaunch {
    /// An index launch of task `kind` (the point count is taken from the
    /// first projection added).
    pub fn new(kind: TaskKindId) -> Self {
        Self { kind, requirements: Vec::new(), points: 0, gpu_time: Micros::ZERO }
    }

    /// Point `i` reads `parts[i]`.
    pub fn projects_reads(self, parts: &[RegionId]) -> Self {
        self.project(parts, Privilege::ReadOnly)
    }

    /// Point `i` writes (discarding) `parts[i]`.
    pub fn projects_writes(self, parts: &[RegionId]) -> Self {
        self.project(parts, Privilege::WriteDiscard)
    }

    /// Point `i` reads and writes `parts[i]`.
    pub fn projects_read_writes(self, parts: &[RegionId]) -> Self {
        self.project(parts, Privilege::ReadWrite)
    }

    /// Every point reads the whole of `region` (a broadcast argument, like
    /// simulation constants).
    pub fn broadcasts(mut self, region: RegionId) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::ReadOnly));
        self
    }

    /// Every point reduces into the whole of `region` (e.g. a residual
    /// accumulator).
    pub fn reduces_broadcast(mut self, region: RegionId, op: ReductionOp) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::Reduce(op)));
        self
    }

    /// Execution time per point on its GPU; with `points` spread over
    /// `gpus` GPUs the launch occupies the machine for
    /// `per_point × ceil(points / gpus)`.
    pub fn gpu_time_per_point(mut self, per_point: Micros, gpus: u32) -> Self {
        let waves = (self.points.max(1)).div_ceil(gpus.max(1));
        self.gpu_time = per_point * f64::from(waves);
        self
    }

    /// The number of points (set by the first projection).
    pub fn points(&self) -> u32 {
        self.points
    }

    /// Lowers the launch to a single analyzable operation.
    pub fn into_task(self) -> TaskDesc {
        let mut t = TaskDesc::new(self.kind).gpu_time(self.gpu_time);
        t.requirements = self.requirements;
        t
    }

    fn project(mut self, parts: &[RegionId], privilege: Privilege) -> Self {
        if self.points == 0 {
            self.points = parts.len() as u32;
        }
        debug_assert_eq!(
            self.points as usize,
            parts.len(),
            "all projections of a launch must agree on the point count"
        );
        for &p in parts {
            self.requirements.push(RegionRequirement::new(p, privilege));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DependenceAnalyzer;
    use crate::ids::OpId;
    use crate::region::RegionForest;

    fn setup(parts_count: u32) -> (RegionForest, Vec<RegionId>, RegionId) {
        let mut f = RegionForest::new();
        let grid = f.create_region(1);
        let parts = f.partition(grid, parts_count).unwrap();
        (f, parts, grid)
    }

    #[test]
    fn launch_lowering_shape() {
        let (_, parts, grid) = setup(4);
        let t = IndexLaunch::new(TaskKindId(1))
            .projects_reads(&parts)
            .projects_writes(&parts)
            .broadcasts(grid)
            .gpu_time_per_point(Micros(100.0), 2)
            .into_task();
        assert_eq!(t.requirements.len(), 9);
        // 4 points over 2 GPUs = 2 waves of 100µs.
        assert_eq!(t.gpu_time, Micros(200.0));
    }

    #[test]
    fn disjoint_projections_of_siblings_are_parallel() {
        let mut f = RegionForest::new();
        let a = f.create_region(1);
        let b = f.create_region(1);
        let pa = f.partition(a, 4).unwrap();
        let pb = f.partition(b, 4).unwrap();
        let mut an = DependenceAnalyzer::new();
        let w_a = IndexLaunch::new(TaskKindId(0)).projects_writes(&pa).into_task();
        let w_b = IndexLaunch::new(TaskKindId(0)).projects_writes(&pb).into_task();
        assert!(an.analyze(OpId(0), &w_a, &f).is_empty());
        assert!(an.analyze(OpId(1), &w_b, &f).is_empty(), "different trees are parallel");
    }

    #[test]
    fn same_projection_launches_serialize() {
        let (f, parts, _) = setup(4);
        let mut an = DependenceAnalyzer::new();
        let w1 = IndexLaunch::new(TaskKindId(0)).projects_writes(&parts).into_task();
        let w2 = IndexLaunch::new(TaskKindId(1)).projects_read_writes(&parts).into_task();
        assert!(an.analyze(OpId(0), &w1, &f).is_empty());
        assert_eq!(an.analyze(OpId(1), &w2, &f), vec![OpId(0)]);
    }

    #[test]
    fn whole_region_op_fences_projected_launches() {
        let (f, parts, grid) = setup(4);
        let mut an = DependenceAnalyzer::new();
        let w = IndexLaunch::new(TaskKindId(0)).projects_writes(&parts).into_task();
        let fence = TaskDesc::new(TaskKindId(9)).reads(grid);
        assert!(an.analyze(OpId(0), &w, &f).is_empty());
        assert_eq!(an.analyze(OpId(1), &fence, &f), vec![OpId(0)]);
    }

    #[test]
    fn reduction_launches_commute() {
        let (f, parts, grid) = setup(2);
        let sum = ReductionOp(0);
        let mut an = DependenceAnalyzer::new();
        let r1 = IndexLaunch::new(TaskKindId(0))
            .projects_reads(&parts)
            .reduces_broadcast(grid, sum)
            .into_task();
        let r2 = r1.clone();
        assert!(an.analyze(OpId(0), &r1, &f).is_empty());
        // Reads of parts vs reduce into grid conflict (parent aliases
        // children) — but same-op reductions on grid commute, and reads
        // commute; the only cross edges are read-vs-reduce on aliasing
        // regions.
        let deps = an.analyze(OpId(1), &r2, &f);
        assert_eq!(deps, vec![OpId(0)], "reads fence the earlier reduction");
    }

    #[test]
    fn hash_distinguishes_projection_targets() {
        let (_, parts, _) = setup(4);
        let a = IndexLaunch::new(TaskKindId(0)).projects_writes(&parts).into_task();
        let b = IndexLaunch::new(TaskKindId(0)).projects_writes(&parts[..2]).into_task();
        assert_ne!(a.semantic_hash(), b.semantic_hash());
    }
}
