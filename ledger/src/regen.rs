//! `regen_cold`: one cold `reproduce warm --store <fresh path>` is the
//! workload's operation.
//!
//! Why this workload: it is the heaviest command users run. It computes
//! all corpus requests cold in one batch and writes each to the store.
//! About 90% of it is the Figure 1 memsim sweep, so a `CacheSim` or
//! `lats` change shows here; it is also the bulk store-write path, and
//! it never touches HTTP or the host kernels.
//!
//! A regeneration counts only if a following `reproduce warm --verify`
//! serves every corpus request from the store with zero computes.

use crate::program::{run_sampled, RunDir};
use crate::span::{self, Recorder};
use crate::{op_metrics, Args, Metric, Outcome, Rung};
use pvc_arch::System;
use pvc_core::rng::SimRng;
use pvc_core::Json;
use pvc_memsim::{Hierarchy, LatsConfig};
use pvc_report::serve::CatalogExecutor;
use pvc_serve::{Atom, Executor, Request, ServeConfig, Service, Telemetry};
use pvc_store::Store;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cold process starts per run behind `setup_s`; the median is reported.
/// One takes ~6 ms and swings with the host's load, hence many.
const SETUP_REPS: usize = 21;
/// Cold regenerations per untraced run, at least: one swings between
/// ~23 s and ~25 s with the order the Figure 1 systems land on the two
/// worker threads, so a run reports the median of two. A traced run
/// makes one, which keeps it inside the benchmark's time limit.
const REGENS: usize = 2;
/// A cold warm takes ~25 s on a 2-core host; anything near this is hung.
const WARM_TIMEOUT_S: f64 = 150.0;
/// Accesses timed for `memsim.access_ns`, after as many warm-up accesses.
const ACCESSES: usize = 1 << 21;
/// `FlowNetwork::run` repetitions behind `simrt.flow_run_1k_ms`.
const FLOW_REPS: usize = 7;
/// Every atom op of `CatalogExecutor`; `report.atom_s.<op>` is reported
/// for each. An op missing here is counted in `report.atoms` only.
const ATOM_OPS: [&str; 9] = [
    "figure",
    "run",
    "profile",
    "table",
    "ablation",
    "experiments",
    "conformance",
    "devices",
    "list",
];
/// The end-to-end metric the regeneration rungs move.
const MOVES: &str = "op_p50_ms@regen_cold";

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = RunDir::new("regen_cold")?;
    let corpus_len = pvc_report::warm::warm_corpus().len() as u64;
    let mut out = Outcome::default();

    // Set-up: a cold process start against a fresh store that answers
    // one trivial request — what every `reproduce` command pays first.
    let request = dir.file("devices.json");
    std::fs::write(&request, r#"{"kind":"devices"}"#).map_err(|e| format!("write request: {e}"))?;
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let store = dir.file(&format!("setup-{i}.bin"));
        let f = run_sampled(
            Command::new(&args.reproduce)
                .arg("query")
                .arg("--store")
                .arg(&store)
                .arg(&request),
            WARM_TIMEOUT_S,
        )?;
        if !f.status.success() || !f.stdout.contains("\"result\"") {
            return Err(format!("set-up query failed ({}): {}", f.status, f.stderr));
        }
        setup.push(f.wall);
    }

    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let t0 = std::time::Instant::now();
    let regens = if args.trace { 1 } else { REGENS };
    while walls.len() < regens || t0.elapsed().as_secs_f64() < args.seconds {
        let store = dir.file(&format!("regen-{}.bin", walls.len()));
        let warm = run_sampled(
            Command::new(&args.reproduce)
                .arg("warm")
                .arg("--store")
                .arg(&store),
            WARM_TIMEOUT_S,
        )?;
        walls.push(warm.wall);
        rss.push(warm.peak_rss_kib.unwrap_or(0) as f64 / 1024.0);
        let verify = run_sampled(
            Command::new(&args.reproduce)
                .arg("warm")
                .arg("--store")
                .arg(&store)
                .arg("--verify"),
            WARM_TIMEOUT_S,
        )?;
        let served = verified_hits(&verify.stdout).filter(|_| verify.status.success());
        out.attempted += corpus_len;
        out.failed += corpus_len - served.unwrap_or(0).min(corpus_len);
        if !warm.status.success() || served.is_none() {
            eprintln!(
                "regen_cold: warm exited {}, verify exited {}: {}{}",
                warm.status, verify.status, warm.stderr, verify.stderr
            );
        }
        let _ = std::fs::remove_file(&store);
    }
    let walls_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    out.e2e = op_metrics(&setup, &walls_ms, walls.iter().sum());
    // Peak memory is bimodal (~350 or ~440 MiB, by whether two of
    // Figure 1's 1 GiB chase rings are live at once), too unsteady for
    // an end-to-end bound; it is a per-layer metric.
    out.layers.push(
        Metric::new("process.peak_rss_mib", "MiB", span::median(&rss), rss.len())
            .moves(MOVES)
            .note(format!("VmHWM of each warm process: {rss:.0?}")),
    );
    Ok(out)
}

/// The number of corpus requests a successful `warm --verify` served
/// from the store.
fn verified_hits(stdout: &str) -> Option<u64> {
    if !stdout.contains("verify ok") {
        return None;
    }
    let line = stdout.lines().find(|l| l.starts_with("warmed "))?;
    let (_, rest) = line.split_once(": ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// The catalog executor with a span around every executed atom, labelled
/// by atom op, and a running sum of the solver work it reports.
struct TracedExecutor<'a> {
    rec: &'a Recorder,
    batch: u64,
    flow_visits: AtomicU64,
}

impl Executor for TracedExecutor<'_> {
    fn cost(&self, req: &Request) -> u64 {
        CatalogExecutor.cost(req)
    }

    fn atoms(&self, req: &Request) -> Result<Vec<Atom>, String> {
        CatalogExecutor.atoms(req)
    }

    fn execute_atom(&self, atom: &Atom) -> Result<Json, String> {
        let op = atom
            .params
            .get("op")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let t0 = self.rec.now();
        let result = CatalogExecutor.execute_atom(atom);
        self.rec.record(
            "report.execute_atom",
            op,
            t0,
            self.rec.now(),
            Some(self.batch),
            None,
        );
        result
    }

    fn assemble(&self, req: &Request, parts: Vec<Json>) -> Result<Json, String> {
        CatalogExecutor.assemble(req, parts)
    }

    fn work_counters(&self, atom: &Atom, result: &Json) -> Vec<(String, u64)> {
        let counters = CatalogExecutor.work_counters(atom, result);
        for (name, n) in &counters {
            if name == "simrt.flow.solver_flow_visits" {
                self.flow_visits.fetch_add(*n, Ordering::Relaxed);
            }
        }
        counters
    }
}

/// The regeneration rung of the per-layer ladder: the corpus batch in
/// process with a span per atom, then the store, memsim and simrt on
/// their own. Its traced operation is the in-process batch.
pub fn rung(args: &Args, rec: &Recorder, dir: &RunDir, out: &mut Outcome) -> Result<Rung, String> {
    let corpus = pvc_report::warm::warm_corpus();
    let fingerprint = pvc_report::warm::build_fingerprint();
    let store_path = dir.file("regen-traced.bin");
    let batch = rec.reserve();
    let exec = TracedExecutor {
        rec,
        batch,
        flow_visits: AtomicU64::new(0),
    };
    let mut cfg = ServeConfig::default();
    cfg.queue_depth = cfg.queue_depth.max(corpus.len());
    let mut service = Service::new(exec, cfg);
    service.set_telemetry(Telemetry::recording(64));
    let (store, report) =
        Store::open(&store_path, fingerprint).map_err(|e| format!("open store: {e}"))?;
    service.attach_store(store, &report);
    let t0 = rec.now();
    let envelopes = service.handle_batch(corpus.iter().map(|t| Request::parse(t)).collect());
    let t1 = rec.now();
    rec.record_as(
        batch,
        "serve.handle_batch",
        "warm corpus",
        t0,
        t1,
        None,
        None,
    );
    out.attempted += corpus.len() as u64;
    out.failed += envelopes
        .iter()
        .filter(|e| e.get("result").is_none())
        .count() as u64;
    let flow_visits = service.executor().flow_visits.load(Ordering::Relaxed);
    drop(service);

    let spans = rec.spans();
    let self_time = span::self_times(&spans);
    let mut per_op: BTreeMap<&str, (f64, usize)> =
        ATOM_OPS.iter().map(|&op| (op, (0.0, 0))).collect();
    let mut atoms = 0;
    for s in spans.iter().filter(|s| s.name == "report.execute_atom") {
        atoms += 1;
        match per_op.get_mut(s.label.as_str()) {
            Some(e) => {
                e.0 += self_time[&s.id];
                e.1 += 1;
            }
            None => eprintln!(
                "regen_cold: atom op '{}' has no report.atom_s metric",
                s.label
            ),
        }
    }
    let atom_total: f64 = per_op.values().map(|(t, _)| t).sum();
    let mut layers: Vec<Metric> = per_op
        .iter()
        .map(|(op, (t, n))| {
            Metric::new(format!("report.atom_s.{op}"), "s", *t, *n)
                .moves(MOVES)
                .note(format!(
                    "{:.1}% of summed atom self time",
                    100.0 * t / atom_total
                ))
        })
        .collect();
    layers.push(Metric::new("report.atoms", "count", atoms as f64, atoms).moves(MOVES));
    let batch_s = t1 - t0;

    let bytes_written = std::fs::metadata(&store_path)
        .map_err(|e| format!("stat store: {e}"))?
        .len();
    layers.extend(store_rung(
        rec,
        &store_path,
        fingerprint,
        &corpus,
        &dir.file("regen-rung.bin"),
        out,
    )?);
    layers.push(
        Metric::new(
            "store.bytes_written",
            "bytes",
            bytes_written as f64,
            corpus.len(),
        )
        .moves(MOVES)
        .note("segment file after the cold corpus batch"),
    );

    let figure1 = envelopes
        .iter()
        .zip(&corpus)
        .find(|(_, line)| line.as_str() == r#"{"kind":"figure","id":1}"#)
        .and_then(|(e, _)| e.get("result")?.get("csv")?.as_str().map(str::to_string))
        .ok_or("the corpus batch returned no Figure 1 CSV")?;
    let (chase_s, chases) = figure1_chases(rec, &figure1, out);
    let core_seconds = batch_s * pvc_core::par::threads() as f64;
    layers.push(
        Metric::new(
            "memsim.access_ns",
            "ns",
            access_ns(rec, args.seed),
            ACCESSES,
        )
        .moves(MOVES),
    );
    layers.push(
        Metric::new("memsim.fig1_chase_s", "s", chase_s, chases)
            .moves(MOVES)
            .note("summed lats::chase over the Figure 1 footprints of all four systems"),
    );
    layers.push(
        Metric::new(
            "memsim.share_of_regen",
            "ratio",
            chase_s / core_seconds,
            chases,
        )
        .moves(MOVES)
        .note(format!(
            "base: traced batch {batch_s:.2} s x {} threads = {core_seconds:.2} core-seconds",
            pvc_core::par::threads()
        )),
    );

    layers.push(
        Metric::new(
            "simrt.flow.solver_flow_visits",
            "count",
            flow_visits as f64,
            atoms,
        )
        .moves(MOVES)
        .note("sum of Executor::work_counters over the corpus batch"),
    );
    let flow_ms = flow_run_1k(rec, args.seed);
    layers.push(
        Metric::new(
            "simrt.flow_run_1k_ms",
            "ms",
            span::median(&flow_ms),
            flow_ms.len(),
        )
        .moves(MOVES),
    );
    Ok(Rung {
        layers,
        traced_op_ms: batch_s * 1e3,
    })
}

/// The store rung: `Store::open` of a populated segment, one `get` per
/// stored request, and one `put` per value into a fresh segment at
/// `scratch`. Every value read back must equal the one written.
fn store_rung(
    rec: &Recorder,
    populated: &Path,
    fingerprint: u64,
    lines: &[String],
    scratch: &Path,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let (opened, open_s) = rec.time("store.open", "populated", || {
        Store::open(populated, fingerprint)
    });
    let (store, _) = opened.map_err(|e| format!("open {}: {e}", populated.display()))?;
    let (mut fresh, _) = Store::open(scratch, fingerprint)
        .map_err(|e| format!("open {}: {e}", scratch.display()))?;
    let mut gets = Vec::new();
    let mut puts = Vec::new();
    for line in lines {
        let req = Request::parse(line).map_err(|e| format!("corpus line {line}: {e}"))?;
        let (value, get_s) = rec.time("store.get", req.kind(), || {
            store.get(req.key(), req.text()).map(<[u8]>::to_vec)
        });
        let Some(value) = value else { continue };
        gets.push(get_s * 1e6);
        let (written, put_s) = rec.time("store.put", req.kind(), || {
            fresh.put(req.key(), req.text(), &value)
        });
        written.map_err(|e| format!("put into {}: {e}", scratch.display()))?;
        puts.push(put_s * 1e6);
        out.attempted += 1;
        if fresh.get(req.key(), req.text()) != Some(&value[..]) {
            out.failed += 1;
        }
    }
    if gets.is_empty() {
        return Err(format!(
            "{} holds none of the {} requests",
            populated.display(),
            lines.len()
        ));
    }
    Ok(vec![
        Metric::new("store.open_ms", "ms", open_s * 1e3, 1)
            .moves("setup_s@http_zipf")
            .note(format!("{} records", store.len())),
        Metric::new("store.get_us_p50", "us", span::median(&gets), gets.len())
            .moves("op_p50_ms@http_zipf"),
        Metric::new("store.put_us_p50", "us", span::median(&puts), puts.len()).moves(MOVES),
    ])
}

/// Re-runs every `lats::chase` of Figure 1 with a span each, fanned out
/// over the four systems exactly as the figure is, and checks every
/// point against the CSV the corpus batch produced. Returns the summed
/// chase time and the number of chases.
fn figure1_chases(rec: &Recorder, csv: &str, out: &mut Outcome) -> (f64, usize) {
    let cfg = LatsConfig::default();
    let mut footprints = Vec::new();
    let mut footprint = cfg.min_bytes as f64;
    let step = 2f64.powf(1.0 / cfg.points_per_octave as f64);
    while footprint <= cfg.max_bytes as f64 {
        footprints.push(footprint as u64);
        footprint *= step;
    }
    let series = pvc_core::par::map_collect(System::ALL.len(), |i| {
        let system = System::ALL[i];
        let gpu = system.node().gpu;
        footprints
            .iter()
            .map(|&bytes| {
                let label = format!("{} {bytes}", system.cli_name());
                rec.time("memsim.chase", label, || {
                    pvc_memsim::lats::chase(&gpu, bytes, cfg.steps)
                })
            })
            .collect::<Vec<_>>()
    });
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    for (k, &bytes) in footprints.iter().enumerate() {
        let row = rows
            .get(k)
            .filter(|r| r.first() == Some(&bytes.to_string().as_str()));
        for (i, points) in series.iter().enumerate() {
            out.attempted += 1;
            let cell = row.and_then(|r| r.get(i + 1)).copied();
            if cell != Some(format!("{:.1}", points[k].0).as_str()) {
                out.failed += 1;
            }
        }
    }
    let total = series.iter().flatten().map(|(_, s)| s).sum();
    (total, footprints.len() * series.len())
}

/// Host nanoseconds per `Hierarchy::access` on the Aurora hierarchy,
/// chasing a seeded single-cycle ring twice the size of the outermost
/// modelled cache, so nearly every access walks every level.
fn access_ns(rec: &Recorder, seed: u64) -> f64 {
    let partition = System::Aurora.node().gpu.partition;
    let line = partition.caches.first().map_or(64, |c| c.line_bytes) as u64;
    let outer_lines = partition
        .caches
        .iter()
        .map(|c| c.size_bytes / c.line_bytes as u64)
        .max()
        .unwrap_or(1);
    let slots = (2 * outer_lines) as usize;
    let mut items: Vec<u32> = (0..slots as u32).collect();
    let mut rng = SimRng::seed_from_u64(seed);
    for i in (1..slots).rev() {
        items.swap(i, rng.below(i as u64) as usize);
    }
    let mut next = vec![0u32; slots];
    for k in 0..slots {
        next[items[k] as usize] = items[(k + 1) % slots];
    }
    let mut h = Hierarchy::for_partition(&partition);
    let mut idx = 0usize;
    let mut walk = |n: usize| {
        let mut cycles = 0.0;
        for _ in 0..n {
            cycles += h.access(idx as u64 * line);
            idx = next[idx] as usize;
        }
        std::hint::black_box(cycles)
    };
    walk(ACCESSES);
    let (_, s) = rec.time("memsim.access", "aurora ring", || walk(ACCESSES));
    s * 1e9 / ACCESSES as f64
}

/// Milliseconds per `FlowNetwork::run` on a seeded network of 1000
/// staggered flows over 64 links and 8 shared pools.
fn flow_run_1k(rec: &Recorder, seed: u64) -> Vec<f64> {
    use pvc_simrt::{FlowNetwork, FlowSpec, Time};
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF10);
    let flows: Vec<(f64, f64, usize, usize)> = (0..1000)
        .map(|i| {
            let start = i as f64 * 0.01 + rng.random_range(0.0..0.01);
            (
                start,
                rng.random_range(40.0..57.0),
                rng.below(64) as usize,
                rng.below(8) as usize,
            )
        })
        .collect();
    (0..FLOW_REPS)
        .map(|_| {
            let mut net = FlowNetwork::new();
            let pools: Vec<_> = (0..8).map(|_| net.add_resource(100.0)).collect();
            let links: Vec<_> = (0..64).map(|_| net.add_resource(50.0)).collect();
            for &(start, bytes, link, pool) in &flows {
                net.add_flow(FlowSpec {
                    start: Time::from_secs(start),
                    bytes,
                    path: vec![links[link], pools[pool]],
                    latency: 0.0,
                });
            }
            let (done, s) = rec.time("simrt.flow_run", "1k flows", || net.run());
            std::hint::black_box(done);
            s * 1e3
        })
        .collect()
}
