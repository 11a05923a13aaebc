//! The calibration kernel: a fixed amount of work that lives in the
//! benchmark, so no change to the engine can make it faster or slower.
//!
//! It is timed next to the untraced `Session` runs, and
//! `untraced_cal_x` divides their wall time by its wall time. The host's
//! slow and fast periods move both sides; a change to the runtime path
//! the untraced and automatic sessions share moves only the numerator.
//! The mix imitates what that path does per task: hash-table probes,
//! inserts and removals, and small heap blocks rewritten and read, over
//! a working set of about 1.5 MiB.
//!
//! The table and blocks are allocated once and reused by every run. A
//! kernel that allocated them afresh, touching new memory every run,
//! tracked the untraced runs far worse: on `s3d` on a shared two-vCPU
//! VM its ratio spread 0.15 (interquartile range ÷ median over six runs)
//! against 0.02 for this one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Keys the table cycles through (about half of them live at a time).
const KEYS: u64 = 1 << 16;
/// Small blocks, rewritten in turn.
const RING: usize = 1 << 12;
/// Most `u64`s in one block.
const BLOCK: usize = 16;
/// Steps of one kernel run.
const STEPS: usize = 150_000;

/// The kernel's memory, kept between runs.
pub struct Kernel {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    ring: Vec<Vec<u64>>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self {
            table: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            ring: (0..RING).map(|_| Vec::with_capacity(BLOCK)).collect(),
        }
    }
}

impl Kernel {
    /// Wall seconds of one kernel run.
    pub fn time_s(&mut self) -> f64 {
        let start = crate::now();
        std::hint::black_box(self.run());
        start.elapsed().as_secs_f64()
    }

    /// The kernel proper; returns a checksum so the work cannot be
    /// elided.
    fn run(&mut self) -> u64 {
        self.table.clear();
        for block in &mut self.ring {
            block.clear();
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut sum = 0u64;
        for step in 0..STEPS {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            match self.table.remove(&key) {
                Some(v) => sum = sum.wrapping_add(v),
                None => {
                    self.table.insert(key, x);
                }
            }
            let block = &mut self.ring[step % RING];
            block.clear();
            block.extend(std::iter::repeat_n(x, 1 + (x >> 60) as usize));
            sum = sum.wrapping_add(self.ring[(x as usize >> 8) % RING].iter().sum::<u64>());
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_is_deterministic() {
        let mut k = super::Kernel::default();
        let first = k.run();
        assert_eq!(first, k.run());
        assert_eq!(first, super::Kernel::default().run());
    }
}
