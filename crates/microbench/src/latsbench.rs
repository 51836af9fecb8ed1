//! `lats` memory-latency microbenchmark (§IV-A7, Figure 1).
//!
//! Sweeps pointer-chase footprints across the simulated cache hierarchy
//! of each GPU and reports the latency staircase. The host-side
//! [`pvc_kernels::chase::ChaseRing`] provides the matching real access
//! pattern (single dependent chain, Sattolo ring).

use pvc_arch::{GpuModel, System};
use pvc_memsim::lats;
use pvc_memsim::{latency_profile, LatencyPoint, LatsConfig};

/// One architecture's Figure 1 series.
#[derive(Debug, Clone)]
pub struct LatsSeries {
    /// Label used in the figure legend.
    pub label: &'static str,
    /// The swept curve.
    pub points: Vec<LatencyPoint>,
    /// Plateau latencies (cycles) detected for reporting: L1, L2 (when
    /// present) and device memory.
    pub plateaus: Vec<f64>,
}

/// GPU model for a figure series.
fn gpu_for(system: System) -> GpuModel {
    system.node().gpu
}

/// Default sweep: 32 KiB – 1 GiB, 2 points/octave (Figure 1's x-range).
pub fn default_config() -> LatsConfig {
    LatsConfig {
        min_bytes: 32 * 1024,
        max_bytes: 1 << 30,
        points_per_octave: 2,
        steps: 1 << 14,
    }
}

/// Runs the sweep for one system.
pub fn run(system: System, cfg: &LatsConfig) -> LatsSeries {
    let gpu = gpu_for(system);
    let points = latency_profile(&gpu, cfg);
    series(system, &gpu, points)
}

/// Wraps a swept curve with the system's legend label and plateaus.
fn series(system: System, gpu: &GpuModel, points: Vec<LatencyPoint>) -> LatsSeries {
    let mut plateaus: Vec<f64> = gpu
        .partition
        .caches
        .iter()
        .map(|c| c.latency_cycles)
        .collect();
    plateaus.push(gpu.partition.memory.latency_cycles);
    LatsSeries {
        label: system.label(),
        points,
        plateaus,
    }
}

/// All four Figure 1 series (Aurora, Dawn, H100, MI250), equal to
/// [`run`] on each system.
///
/// Every (hierarchy, footprint) chase is computed once — Aurora and Dawn
/// share one hierarchy — and the chases fan out over `pvc_core::par`,
/// largest footprint first so the longest jobs start earliest. Rows are
/// reassembled in legend order with each system's own clock.
///
/// # Panics
/// Panics on a degenerate `cfg` (see [`lats::footprints`]).
pub fn figure1(cfg: &LatsConfig) -> Vec<LatsSeries> {
    let footprints = lats::footprints(cfg);
    let gpus: Vec<GpuModel> = System::ALL.iter().map(|&s| gpu_for(s)).collect();
    // Each system reuses the chases of the first system sharing its hierarchy.
    let owner: Vec<usize> = (0..gpus.len())
        .map(|i| {
            (0..i)
                .find(|&j| lats::same_chase(&gpus[j], &gpus[i]))
                .unwrap_or(i)
        })
        .collect();
    let mut jobs: Vec<(usize, usize)> = (0..gpus.len())
        .filter(|&i| owner[i] == i)
        .flat_map(|i| (0..footprints.len()).map(move |k| (i, k)))
        .collect();
    jobs.sort_by_key(|&(_, k)| std::cmp::Reverse(footprints[k]));
    let cycles = pvc_core::par::map_collect(jobs.len(), |j| {
        let (i, k) = jobs[j];
        lats::chase(&gpus[i], footprints[k], cfg.steps)
    });
    let mut owned = vec![vec![f64::NAN; footprints.len()]; gpus.len()];
    for (&(i, k), c) in jobs.iter().zip(cycles) {
        owned[i][k] = c;
    }
    System::ALL
        .iter()
        .zip(&gpus)
        .zip(&owner)
        .map(|((&system, gpu), &o)| {
            let points = footprints
                .iter()
                .zip(&owned[o])
                .map(|(&bytes, &cycles)| LatencyPoint::on(gpu, bytes, cycles))
                .collect();
            series(system, gpu, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> LatsConfig {
        LatsConfig {
            min_bytes: 64 * 1024,
            max_bytes: 1 << 29,
            points_per_octave: 1,
            steps: 1 << 13,
        }
    }

    #[test]
    fn four_series_for_figure_1() {
        let series = figure1(&quick_cfg());
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    fn figure1_equals_per_system_sweeps() {
        let cfg = LatsConfig {
            min_bytes: 32 * 1024,
            max_bytes: 64 << 20,
            points_per_octave: 1,
            steps: 1 << 12,
        };
        for (fig, system) in figure1(&cfg).iter().zip(System::ALL) {
            let own = run(system, &cfg);
            assert_eq!(fig.label, own.label);
            assert_eq!(fig.points, own.points, "{}", own.label);
            assert_eq!(fig.plateaus, own.plateaus);
        }
    }

    #[test]
    fn pvc_l1_plateau_is_widest() {
        // Figure 1: "the Xe-Core on Dawn and Aurora has a L1 cache of
        // 512KiB … larger than the other GPUs in this study". Count sweep
        // points at the L1 plateau.
        let cfg = quick_cfg();
        let pvc = run(System::Aurora, &cfg);
        let h100 = run(System::JlseH100, &cfg);
        let at_l1 = |s: &LatsSeries, l1: f64| {
            s.points
                .iter()
                .filter(|p| (p.cycles - l1).abs() < l1 * 0.15)
                .count()
        };
        assert!(at_l1(&pvc, 64.0) > at_l1(&h100, 34.0));
    }

    #[test]
    fn staircase_orders_by_hierarchy() {
        let s = run(System::Aurora, &quick_cfg());
        let first = s.points.first().unwrap().cycles;
        let last = s.points.last().unwrap().cycles;
        assert!(first < 100.0, "small footprints in L1: {first}");
        assert!(last > 700.0, "large footprints in HBM: {last}");
    }

    #[test]
    fn plateaus_reported_per_level() {
        let s = run(System::JlseMi250, &quick_cfg());
        assert_eq!(s.plateaus, vec![130.0, 219.0, 597.0]);
    }
}
