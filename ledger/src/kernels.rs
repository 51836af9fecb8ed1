//! `host_kernels`: the host microbenchmark kernels of `pvc-kernels` (the
//! `examples/host_microbench` path) at stated sizes. The workload's
//! operation is one round of the suite: one call each of the FMA chain,
//! triad, DGEMM, FFT and pointer chase.
//!
//! Why this workload: it is the only one where `pvc-kernels` does most
//! of the work. The catalog barely calls the kernels, so without it a
//! kernel fix (such as hardware FMA dispatch) would go unmeasured. The
//! paper's method needs two things from the host: microbenchmark peaks
//! measured on it (FMA chain, STREAM triad) and each kernel's attained
//! fraction of those peaks, which the traced run reports.
//!
//! Sizes are configured here, not in `HostConfig::default()`: the triad
//! arrays total at least four times the last-level cache read from
//! sysfs, so triad measures memory rather than cache, and GEMM is 512³.

use crate::program::vm_hwm_kib;
use crate::span::{self, Recorder};
use crate::{op_metrics, Args, Metric, Outcome, Rung};
use pvc_core::rng::SimRng;
use pvc_kernels::chase::ChaseRing;
use pvc_kernels::fft::{fft, Complex, Direction};
use pvc_kernels::spmv::{synthetic_sparse, Csr};
use pvc_kernels::{fma, gemm, triad};
use std::hint::black_box;
use std::time::Instant;

/// Input set-ups per run behind `setup_s`; the median is reported.
const SETUP_REPS: usize = 5;
/// FMA work items: fewer than 16 Ki halves the measured FMA rate, the
/// base of the fraction-of-peak metrics.
const FMA_LANES: usize = 1 << 14;
const GEMM_N: usize = 512;
const FFT_N: usize = 1 << 16;
/// A 16 MiB ring: past the share of a shared LLC one core keeps, so the
/// chase sees memory latency; a 4 MiB ring swings with neighbours' cache
/// use. Each call chases a sixteenth of it, which keeps a round near
/// 0.5 s, most of it the 512³ DGEMM, so a 15 s run times about 30
/// rounds and its 95th percentile is not just the slowest round.
const CHASE_SLOTS: usize = 1 << 22;
const CHASE_STEPS: usize = 1 << 18;
const SPMV_ROWS: usize = 1 << 19;
const SPMV_NNZ_PER_ROW: usize = 16;
/// The triad arrays together hold at least this many LLCs.
const LLC_MULTIPLE: u64 = 4;
/// Calls timed one by one per kernel in the traced rung.
const TRACED_CALLS: usize = 5;

/// The last-level cache size in bytes: the highest-level cache of CPU 0
/// in sysfs.
fn llc_bytes() -> Result<u64, String> {
    let root = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(root).map_err(|e| format!("read {root}: {e}"))? {
        let dir = entry.map_err(|e| format!("read {root}: {e}"))?.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * scale));
        }
    }
    best.map(|(_, bytes)| bytes)
        .ok_or_else(|| format!("no cache sizes under {root}"))
}

/// Seeded kernel inputs at the stated sizes.
struct Inputs {
    triad_a: Vec<f64>,
    triad_b: Vec<f64>,
    triad_c: Vec<f64>,
    gemm_a: Vec<f64>,
    gemm_b: Vec<f64>,
    gemm_c: Vec<f64>,
    signal: Vec<Complex<f64>>,
    ring: ChaseRing,
}

const TRIAD_SCALAR: f64 = 3.0;

impl Inputs {
    fn new(seed: u64, triad_elems: usize) -> Inputs {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut fill =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.random_range(-1.0..1.0)).collect() };
        let triad_b = fill(triad_elems);
        let triad_c = fill(triad_elems);
        let signal = fill(FFT_N)
            .into_iter()
            .map(|re| Complex::new(re, 0.0))
            .collect();
        Inputs {
            triad_a: vec![0.0; triad_elems],
            triad_b,
            triad_c,
            gemm_a: gemm::test_matrix(GEMM_N, seed.wrapping_mul(2) | 1),
            gemm_b: gemm::test_matrix(GEMM_N, seed.wrapping_mul(2) + 2),
            gemm_c: vec![0.0; GEMM_N * GEMM_N],
            signal,
            ring: ChaseRing::new(CHASE_SLOTS, seed),
        }
    }
}

fn fma_flops() -> f64 {
    (2 * FMA_LANES as u64 * fma::FMA_PER_WORK_ITEM) as f64
}

fn fft_flops() -> f64 {
    pvc_kernels::fft::fft_flops_c2c(FFT_N)
}

/// One round of the suite: one call of each of the five suite kernels.
/// Returns the round's wall time in milliseconds.
fn suite_round(x: &mut Inputs) -> f64 {
    let t0 = Instant::now();
    black_box(fma::paper_kernel::<f32>(FMA_LANES));
    triad::triad(&mut x.triad_a, &x.triad_b, &x.triad_c, TRIAD_SCALAR);
    black_box(x.triad_a[0]);
    gemm::gemm(GEMM_N, &x.gemm_a, &x.gemm_b, &mut x.gemm_c);
    black_box(x.gemm_c[0]);
    let mut v = x.signal.clone();
    fft(&mut v, Direction::Forward);
    black_box(v[0]);
    black_box(x.ring.chase(CHASE_STEPS));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The triad length whose three arrays together hold `LLC_MULTIPLE`
/// last-level caches.
fn triad_elems() -> Result<usize, String> {
    Ok((LLC_MULTIPLE * llc_bytes()?).div_ceil(3 * 8) as usize)
}

/// Checks every kernel's output against an independent reference;
/// returns (attempted, failed).
fn check_outputs(x: &mut Inputs) -> (u64, u64) {
    let mut checks = Vec::new();
    // FMA: every lane's chain x <- 0.5x + 1 settles at 2.
    let r = fma::paper_kernel::<f32>(FMA_LANES);
    checks.push((
        "fma",
        (r.checksum - 2.0 * FMA_LANES as f64).abs() < 1e-6 * FMA_LANES as f64,
    ));
    // Triad: a = b + s*c element by element.
    triad::triad(&mut x.triad_a, &x.triad_b, &x.triad_c, TRIAD_SCALAR);
    let triad_ok = x
        .triad_a
        .iter()
        .zip(&x.triad_b)
        .zip(&x.triad_c)
        .all(|((a, b), c)| *a == c.mul_add(TRIAD_SCALAR, *b));
    checks.push(("triad", triad_ok));
    // GEMM: sum(C) = sum_k colsum(A)_k * rowsum(B)_k, an O(n²) reference.
    gemm::gemm(GEMM_N, &x.gemm_a, &x.gemm_b, &mut x.gemm_c);
    let n = GEMM_N;
    let reference: f64 = (0..n)
        .map(|k| {
            (0..n).map(|i| x.gemm_a[i * n + k]).sum::<f64>()
                * x.gemm_b[k * n..(k + 1) * n].iter().sum::<f64>()
        })
        .sum();
    let total: f64 = x.gemm_c.iter().sum();
    let scale: f64 = x.gemm_c.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
    checks.push(("gemm", (total - reference).abs() <= 1e-9 * scale));
    // FFT: forward then backward, divided by N, returns the input.
    let mut v = x.signal.clone();
    fft(&mut v, Direction::Forward);
    fft(&mut v, Direction::Backward);
    let err = v
        .iter()
        .zip(&x.signal)
        .map(|(a, b)| (a.scale(1.0 / FFT_N as f64) - *b).norm_sqr().sqrt())
        .fold(0.0, f64::max);
    checks.push(("fft", err < 1e-9));
    // Chase: a single cycle returns to slot 0 after exactly N steps.
    checks.push((
        "chase",
        x.ring.chase(CHASE_SLOTS) == 0 && x.ring.is_single_cycle(),
    ));
    for (kernel, ok) in &checks {
        if !ok {
            eprintln!("host_kernels: {kernel} output check failed");
        }
    }
    (
        checks.len() as u64,
        checks.iter().filter(|(_, ok)| !ok).count() as u64,
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let triad_elems = triad_elems()?;
    println!(
        "llc {} MiB; triad arrays 3 x {} elements = {} MiB ({}x llc)",
        llc_bytes()? >> 20,
        triad_elems,
        (triad_elems * 24) >> 20,
        LLC_MULTIPLE
    );
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(black_box(Inputs::new(args.seed, triad_elems)));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut x = inputs.expect("at least one set-up");

    // One untimed round first: page faults, frequency ramp, cache fill.
    suite_round(&mut x);
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        rounds.push(suite_round(&mut x));
    }
    let window = t0.elapsed().as_secs_f64();
    let (attempted, failed) = check_outputs(&mut x);
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.e2e = op_metrics(&setup, &rounds, window);
    let rss = vm_hwm_kib(std::process::id()).map_or(f64::NAN, |kib| kib as f64 / 1024.0);
    out.layers.push(
        Metric::new("process.peak_rss_mib", "MiB", rss, 1)
            .moves("op_p50_ms@host_kernels")
            .note("VmHWM of the benchmark process, which runs the kernels"),
    );
    Ok(out)
}

/// Median milliseconds per call of `f` over `TRACED_CALLS` spans.
fn per_call_ms(rec: &Recorder, kernel: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let ms: Vec<f64> = (0..TRACED_CALLS)
        .map(|_| rec.time("kernels.call", kernel, &mut f).1 * 1e3)
        .collect();
    span::median(&ms)
}

/// The kernels rung of the per-layer ladder: each kernel call timed on
/// its own, its computed work, and the attained fraction of the host
/// peaks. Its traced operation is one round: the summed median call
/// times of the five suite kernels.
pub fn rung(args: &Args, rec: &Recorder, out: &mut Outcome) -> Result<Rung, String> {
    let mut x = Inputs::new(args.seed, triad_elems()?);
    let triad_n = x.triad_a.len();
    let fma_ms = per_call_ms(rec, "fma", || {
        black_box(fma::paper_kernel::<f32>(FMA_LANES));
    });
    let triad_ms = per_call_ms(rec, "triad", || {
        triad::triad(&mut x.triad_a, &x.triad_b, &x.triad_c, TRIAD_SCALAR);
        black_box(x.triad_a[0]);
    });
    let gemm_ms = per_call_ms(rec, "gemm", || {
        gemm::gemm(GEMM_N, &x.gemm_a, &x.gemm_b, &mut x.gemm_c);
        black_box(x.gemm_c[0]);
    });
    let fft_ms = per_call_ms(rec, "fft", || {
        let mut v = x.signal.clone();
        fft(&mut v, Direction::Forward);
        black_box(v[0]);
    });
    let chase_ms = per_call_ms(rec, "chase", || {
        black_box(x.ring.chase(CHASE_STEPS));
    });
    drop(x);

    let csr: Csr<f64> = synthetic_sparse(SPMV_ROWS, SPMV_NNZ_PER_ROW, args.seed);
    let mut rng = SimRng::seed_from_u64(args.seed ^ 0x5b);
    let v: Vec<f64> = (0..csr.cols).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut y = vec![0.0; csr.rows];
    let spmv_ms = per_call_ms(rec, "spmv", || {
        csr.spmv(&v, &mut y);
        black_box(y[0]);
    });
    // SpMV output: every row against a sequential recomputation in the
    // kernel's own accumulation order.
    out.attempted += 1;
    let spmv_ok = (0..csr.rows).all(|r| {
        let acc = (csr.row_ptr[r]..csr.row_ptr[r + 1]).fold(0.0, |acc, k| {
            csr.values[k].mul_add(v[csr.col_idx[k] as usize], acc)
        });
        acc == y[r]
    });
    if !spmv_ok {
        out.failed += 1;
        eprintln!("host_kernels: spmv output check failed");
    }

    let fma_flops = fma_flops();
    let gemm_flops = gemm::gemm_flops(GEMM_N) as f64;
    let fft_flops = fft_flops();
    let triad_bytes = triad::triad_bytes(triad_n, 8) as f64;
    let spmv_bytes = csr.traffic_bytes() as f64;
    let fma_rate = fma_flops / fma_ms;
    let triad_rate = triad_bytes / triad_ms;
    let n = TRACED_CALLS;
    let per_call = [
        ("fma", fma_ms),
        ("triad", triad_ms),
        ("gemm", gemm_ms),
        ("fft", fft_ms),
        ("spmv", spmv_ms),
        ("chase", chase_ms),
    ];
    let mut layers: Vec<Metric> = per_call
        .iter()
        .map(|&(k, ms)| Metric::new(format!("kernels.{k}_ms"), "ms", ms, n))
        .collect();
    // The host peaks and rates of the paper's microbenchmarks, from the
    // median calls.
    layers.extend([
        Metric::new("kernels.fma_gflops", "GFlop/s", fma_flops / fma_ms / 1e6, n),
        Metric::new(
            "kernels.dgemm_gflops",
            "GFlop/s",
            gemm_flops / gemm_ms / 1e6,
            n,
        ),
        Metric::new("kernels.fft_gflops", "GFlop/s", fft_flops / fft_ms / 1e6, n),
        Metric::new("kernels.triad_gbs", "GB/s", triad_bytes / triad_ms / 1e6, n),
        Metric::new(
            "kernels.chase_ns",
            "ns",
            chase_ms * 1e6 / CHASE_STEPS as f64,
            n,
        ),
    ]);
    let computed = [
        ("kernels.fma_flops_computed", "flop", fma_flops),
        ("kernels.triad_bytes_computed", "bytes", triad_bytes),
        ("kernels.gemm_flops_computed", "flop", gemm_flops),
        ("kernels.fft_flops_computed", "flop", fft_flops),
        ("kernels.spmv_flops_computed", "flop", csr.flops() as f64),
        ("kernels.spmv_bytes_computed", "bytes", spmv_bytes),
        (
            "kernels.chase_bytes_computed",
            "bytes",
            (CHASE_STEPS * 4) as f64,
        ),
    ];
    layers.extend(computed.iter().map(|&(name, unit, v)| {
        Metric::new(name, unit, v, 1).note("computed per call, not measured")
    }));
    layers.extend([
        Metric::new(
            "kernels.gemm_frac_fma_peak",
            "ratio",
            gemm_flops / gemm_ms / fma_rate,
            n,
        )
        .note("base: FP32 FMA-chain rate"),
        Metric::new(
            "kernels.fft_frac_fma_peak",
            "ratio",
            fft_flops / fft_ms / fma_rate,
            n,
        )
        .note("base: FP32 FMA-chain rate"),
        Metric::new(
            "kernels.spmv_frac_triad",
            "ratio",
            spmv_bytes / spmv_ms / triad_rate,
            n,
        )
        .note("base: triad bytes/s; SpMV bytes from the CSR traffic model"),
    ]);
    Ok(Rung {
        layers: layers
            .into_iter()
            .map(|m| m.moves("op_p50_ms@host_kernels"))
            .collect(),
        traced_op_ms: fma_ms + triad_ms + gemm_ms + fft_ms + chase_ms,
    })
}
