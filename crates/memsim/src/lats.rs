//! The `lats` pointer-chase latency benchmark (§IV-A7, Figure 1).
//!
//! Chases pointers around a ring laid out at cache-line stride across an
//! array of a given footprint, exactly like the original benchmark the
//! paper modified: dependent loads, one outstanding access, measured in
//! core cycles. Sweeping the footprint walks the working set across L1,
//! L2 and HBM, producing the staircase of Figure 1.
//!
//! A serial ring at line stride defeats spatial locality; the dependent
//! chain defeats memory-level parallelism. The paper's 16-work-item
//! coalesced variant maps all 16 lanes into the same cache line, so a
//! chase step is one line access (see crate docs).

use crate::cache::Hierarchy;
use pvc_arch::GpuModel;

/// Configuration of a latency sweep.
#[derive(Debug, Clone)]
pub struct LatsConfig {
    /// Smallest footprint in bytes (default 16 KiB).
    pub min_bytes: u64,
    /// Largest footprint in bytes (default 1 GiB).
    pub max_bytes: u64,
    /// Sweep points per octave (default 2: ×√2 spacing like the
    /// original benchmark's plot).
    pub points_per_octave: u32,
    /// Chase steps measured per footprint after the warm-up pass.
    pub steps: u64,
}

impl Default for LatsConfig {
    fn default() -> Self {
        LatsConfig {
            min_bytes: 16 * 1024,
            max_bytes: 1 << 30,
            points_per_octave: 2,
            steps: 1 << 16,
        }
    }
}

/// One point of the Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Array footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean access latency in core cycles.
    pub cycles: f64,
    /// Mean access latency in nanoseconds at the device's max clock.
    pub nanos: f64,
}

impl LatencyPoint {
    /// The point for a chase of `footprint_bytes` that averaged `cycles`
    /// on `gpu`, converted to nanoseconds at the device's max clock.
    pub fn on(gpu: &GpuModel, footprint_bytes: u64, cycles: f64) -> Self {
        LatencyPoint {
            footprint_bytes,
            cycles,
            nanos: cycles / gpu.clock.max_hz() * 1e9,
        }
    }
}

/// The footprints a sweep visits: `min_bytes` growing by
/// `2^(1/points_per_octave)` while it stays at or below `max_bytes`.
///
/// # Panics
/// Panics if `min_bytes`, `points_per_octave` or `steps` is zero. A zero
/// `min_bytes` never grows, so the sweep would never end; a zero
/// `points_per_octave` has no step; zero `steps` has no mean latency.
pub fn footprints(cfg: &LatsConfig) -> Vec<u64> {
    assert!(cfg.min_bytes > 0, "LatsConfig::min_bytes must be positive");
    assert!(
        cfg.points_per_octave > 0,
        "LatsConfig::points_per_octave must be positive"
    );
    assert!(cfg.steps > 0, "LatsConfig::steps must be positive");
    let step = 2f64.powf(1.0 / cfg.points_per_octave as f64);
    let mut out = Vec::new();
    let mut footprint = cfg.min_bytes as f64;
    while footprint <= cfg.max_bytes as f64 {
        out.push(footprint as u64);
        footprint *= step;
    }
    out
}

/// Runs the pointer-chase sweep on one partition of `gpu`.
///
/// # Example
/// ```
/// use pvc_memsim::{latency_profile, LatsConfig};
/// use pvc_arch::systems::pvc_aurora_gpu;
///
/// let cfg = LatsConfig { min_bytes: 64 << 10, max_bytes: 256 << 10,
///                        points_per_octave: 1, steps: 1 << 12 };
/// let curve = latency_profile(&pvc_aurora_gpu(), &cfg);
/// // Inside the 512 KiB L1: every point sits at the L1 latency.
/// assert!(curve.iter().all(|p| (p.cycles - 64.0).abs() < 5.0));
/// ```
///
/// Returns one [`LatencyPoint`] per footprint. The ring is a fixed
/// pseudo-random permutation of line-aligned slots (seeded by the
/// footprint), matching the original `lats`' randomized ring that defeats
/// hardware prefetch.
///
/// # Panics
/// Panics on a degenerate `cfg` (see [`footprints`]).
pub fn latency_profile(gpu: &GpuModel, cfg: &LatsConfig) -> Vec<LatencyPoint> {
    footprints(cfg)
        .into_iter()
        .map(|bytes| LatencyPoint::on(gpu, bytes, chase(gpu, bytes, cfg.steps)))
        .collect()
}

/// Mean per-access latency (cycles) chasing a ring of `footprint_bytes`.
///
/// # Panics
/// Panics if `steps` is zero.
pub fn chase(gpu: &GpuModel, footprint_bytes: u64, steps: u64) -> f64 {
    assert!(steps > 0, "a chase needs at least one step");
    let line = gpu.partition.caches.first().map_or(64, |c| c.line_bytes) as u64;
    let slots = (footprint_bytes / line).max(1);
    // Following the ring from slot 0 visits the cyclic order starting
    // just after slot 0's position.
    let order = ring_order(slots);
    let start = (order
        .iter()
        .position(|&s| s == 0)
        .expect("slot 0 is in the ring")
        + 1)
        % order.len();
    let walk = || {
        order[start..]
            .iter()
            .chain(&order[..start])
            .cycle()
            .map(|&s| s as u64 * line)
    };

    let mut h = Hierarchy::for_partition(&gpu.partition);
    // Warm-up: one full traversal fills whatever fits. For footprints far
    // beyond the outermost cache a partial traversal is statistically
    // identical (almost every measured access misses anyway), so the
    // warm-up is capped to bound simulation cost.
    let outer_lines = gpu
        .partition
        .caches
        .iter()
        .map(|c| c.size_bytes / c.line_bytes as u64)
        .max()
        .unwrap_or(0);
    let warmup = slots.min(outer_lines.saturating_mul(3).max(1 << 20));
    for addr in walk().take(warmup as usize) {
        let _ = h.access(addr);
    }
    // Measured phase, restarting from slot 0.
    let measured = steps.min(slots.saturating_mul(4)).max(slots.min(steps));
    let mut total = 0.0;
    for addr in walk().take(measured as usize) {
        total += h.access(addr);
    }
    total / measured as f64
}

/// True when [`chase`] returns the same cycles on `a` and `b` for every
/// footprint and step count: a chase reads only the partition's cache
/// levels and its memory latency.
pub fn same_chase(a: &GpuModel, b: &GpuModel) -> bool {
    a.partition.caches == b.partition.caches
        && a.partition.memory.latency_cycles == b.partition.memory.latency_cycles
}

/// A deterministic pseudo-random cyclic ordering of `0..slots`: the ring
/// visits `order[k]` then `order[k + 1]`, wrapping at the end, so a chase
/// visits every slot. The order comes from Sattolo's algorithm with an
/// xorshift generator, seeded by `slots`; Figure 1's bytes depend on
/// these exact draws.
///
/// # Panics
/// Panics if `slots` does not fit a `u32` slot index.
pub(crate) fn ring_order(slots: u64) -> Vec<u32> {
    assert!(
        slots <= 1 << 32,
        "ring of {slots} slots exceeds u32 indices"
    );
    let mut items: Vec<u32> = (0..slots).map(|s| s as u32).collect();
    let mut state = 0x9E3779B97F4A7C15u64 ^ slots;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut i = items.len();
    while i > 1 {
        i -= 1;
        let j = (rng() % i as u64) as usize;
        items.swap(i, j);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::systems::{h100_gpu, mi250_gpu, pvc_aurora_gpu, pvc_dawn_gpu};

    fn level_at(gpu: &GpuModel, footprint: u64) -> f64 {
        chase(gpu, footprint, 1 << 14)
    }

    /// The successor-table form of the ring: `next[s]` is the slot the
    /// chase visits after `s`.
    fn permutation_ring(slots: u64) -> Vec<u64> {
        let n = slots as usize;
        let mut items: Vec<u64> = (0..slots).collect();
        let mut state = 0x9E3779B97F4A7C15u64 ^ slots;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Sattolo: single-cycle permutation.
        let mut i = n;
        while i > 1 {
            i -= 1;
            let j = (rng() % i as u64) as usize;
            items.swap(i, j);
        }
        // items is now a cyclic ordering; build successor table.
        let mut next = vec![0u64; n];
        for k in 0..n {
            next[items[k] as usize] = items[(k + 1) % n];
        }
        next
    }

    /// [`chase`] written as a walk of the successor table from slot 0.
    fn chase_by_successors(gpu: &GpuModel, footprint_bytes: u64, steps: u64) -> f64 {
        let line = gpu.partition.caches.first().map_or(64, |c| c.line_bytes) as u64;
        let slots = (footprint_bytes / line).max(1);
        let ring = permutation_ring(slots);
        let mut h = Hierarchy::for_partition(&gpu.partition);
        let outer_lines = gpu
            .partition
            .caches
            .iter()
            .map(|c| c.size_bytes / c.line_bytes as u64)
            .max()
            .unwrap_or(0);
        let warmup = slots.min(outer_lines.saturating_mul(3).max(1 << 20));
        let mut idx = 0u64;
        for _ in 0..warmup {
            let _ = h.access(ring[idx as usize] * line);
            idx = ring[idx as usize];
        }
        let mut total = 0.0;
        let mut idx = 0u64;
        let measured = steps.min(slots.saturating_mul(4)).max(slots.min(steps));
        for _ in 0..measured {
            total += h.access(ring[idx as usize] * line);
            idx = ring[idx as usize];
        }
        total / measured as f64
    }

    #[test]
    fn flat_walk_equals_successor_walk_bit_for_bit() {
        for gpu in [pvc_aurora_gpu(), pvc_dawn_gpu(), h100_gpu(), mi250_gpu()] {
            let caches = &gpu.partition.caches;
            let outer = caches.last().expect("a cache level").size_bytes;
            // Inside each cache level, then beyond the outermost one; a
            // short odd-sized chase inside L1 stops mid-ring.
            let sizes = caches.iter().map(|c| c.size_bytes / 2);
            let cases = sizes.chain([outer + outer / 2]).map(|fp| (fp, 1 << 12));
            for (fp, steps) in cases.chain([(caches[0].size_bytes / 4 + 4160, 3)]) {
                let flat = chase(&gpu, fp, steps);
                let reference = chase_by_successors(&gpu, fp, steps);
                assert_eq!(flat.to_bits(), reference.to_bits(), "{} fp={fp}", gpu.name);
            }
        }
        // Degenerate rings: one and two slots.
        let gpu = pvc_aurora_gpu();
        for fp in [1, 64, 128] {
            assert_eq!(
                chase(&gpu, fp, 5).to_bits(),
                chase_by_successors(&gpu, fp, 5).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "min_bytes")]
    fn zero_min_bytes_is_rejected() {
        footprints(&LatsConfig {
            min_bytes: 0,
            ..LatsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "points_per_octave")]
    fn zero_points_per_octave_is_rejected() {
        footprints(&LatsConfig {
            points_per_octave: 0,
            ..LatsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "steps")]
    fn zero_steps_is_rejected() {
        footprints(&LatsConfig {
            steps: 0,
            ..LatsConfig::default()
        });
    }

    #[test]
    fn footprints_grow_by_root_two_up_to_max() {
        let fps = footprints(&LatsConfig::default());
        assert_eq!(fps.len(), 32);
        assert_eq!(fps[0], 16 * 1024);
        assert_eq!(fps[2], 32 * 1024);
        assert!(*fps.last().unwrap() <= 1 << 30);
    }

    #[test]
    fn permutation_is_single_cycle() {
        for slots in [2u64, 7, 64, 1000] {
            let ring = permutation_ring(slots);
            let mut seen = vec![false; slots as usize];
            let mut idx = 0u64;
            for _ in 0..slots {
                assert!(!seen[idx as usize], "cycle shorter than {slots}");
                seen[idx as usize] = true;
                idx = ring[idx as usize];
            }
            assert_eq!(idx, 0, "must return to start");
        }
    }

    #[test]
    fn pvc_staircase_matches_cache_levels() {
        let gpu = pvc_aurora_gpu();
        // 128 KiB: inside the 512 KiB L1.
        assert!((level_at(&gpu, 128 * 1024) - 64.0).abs() < 5.0);
        // 8 MiB: beyond L1, inside the 192 MiB L2.
        assert!((level_at(&gpu, 8 << 20) - 390.0).abs() < 20.0);
        // 1 GiB: beyond L2 -> HBM latency.
        assert!((level_at(&gpu, 1 << 30) - 860.0).abs() < 40.0);
    }

    #[test]
    fn h100_l1_transition_is_earlier_than_pvc() {
        // Figure 1: PVC's 512 KiB L1 "is larger than the other GPUs in
        // this study". At 384 KiB PVC still hits L1 while H100 (256 KiB)
        // has fallen to L2.
        let pvc = pvc_aurora_gpu();
        let h100 = h100_gpu();
        let fp = 384 * 1024;
        let pvc_lat = level_at(&pvc, fp);
        let h_lat = level_at(&h100, fp);
        assert!(pvc_lat < 100.0, "PVC should still be in L1: {pvc_lat}");
        assert!(h_lat > 200.0, "H100 should be in L2: {h_lat}");
    }

    #[test]
    fn mi250_hbm_latency_lowest_in_cycles() {
        // §IV-B6: PVC HBM latency is 44% higher than MI250's.
        let pvc = level_at(&pvc_aurora_gpu(), 1 << 30);
        let mi = level_at(&mi250_gpu(), 1 << 30);
        assert!((pvc / mi - 1.44).abs() < 0.1, "ratio {}", pvc / mi);
    }

    #[test]
    fn dawn_and_aurora_within_two_percent() {
        // §IV-B6: "both Dawn and Aurora consistently perform within 1-2%
        // of each other" — identical silicon, identical hierarchy.
        for fp in [64 * 1024u64, 16 << 20, 1 << 30] {
            let a = level_at(&pvc_aurora_gpu(), fp);
            let d = level_at(&pvc_dawn_gpu(), fp);
            assert!((a - d).abs() / d < 0.02, "fp={fp}: {a} vs {d}");
        }
    }

    #[test]
    fn profile_is_monotonically_nondecreasing_in_plateaus() {
        let gpu = pvc_aurora_gpu();
        let cfg = LatsConfig {
            min_bytes: 64 * 1024,
            max_bytes: 1 << 28,
            points_per_octave: 1,
            steps: 1 << 13,
        };
        let pts = latency_profile(&gpu, &cfg);
        assert!(pts.len() > 8);
        for w in pts.windows(2) {
            assert!(
                w[1].cycles >= w[0].cycles - 1.0,
                "latency dropped with footprint: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn nanos_consistent_with_clock() {
        let gpu = pvc_aurora_gpu();
        let pts = latency_profile(
            &gpu,
            &LatsConfig {
                min_bytes: 64 * 1024,
                max_bytes: 64 * 1024,
                points_per_octave: 1,
                steps: 1 << 12,
            },
        );
        let p = pts[0];
        assert!((p.nanos - p.cycles / 1.6).abs() < 1e-9);
    }
}
