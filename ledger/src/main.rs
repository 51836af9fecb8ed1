//! `pvc-ledger`: the repository benchmark.
//!
//! ```text
//! bash ledger/run.sh --workload <regen_cold|http_zipf|host_kernels> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload loads one layer of the stack heavily and leaves the
//! others nearly idle, so a fix to one layer moves exactly one workload
//! (see `ledger/README.md` for the metric map). Every workload reports
//! the same end-to-end metrics about its own *operation* (one cold
//! regeneration, one HTTP request, one round of the host kernel suite):
//! set-up time, median and 95th-percentile operation time, and
//! operations per second. `--trace 0` measures them with tracing off,
//! driving the `reproduce` binary and the host kernels as a user would.
//! `--trace 1` measures them the same way, then climbs the per-layer
//! ladder: every workload's traced rung, with spans recorded around the
//! benchmark's own calls into each layer's public functions. It writes a
//! Chrome trace and prints every per-layer metric beside the end-to-end
//! metric it should move.
//!
//! Every run checks the program's outputs and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, holding exactly the metrics `BENCHMARK.json`
//! names for the mode.

mod http;
mod kernels;
mod program;
mod regen;
mod span;

use program::{trace_path, RunDir};
use pvc_core::Json;
use span::Recorder;
use std::path::PathBuf;

/// The benchmark's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `reproduce` binary the run drives (built by `run.sh`).
    pub reproduce: PathBuf,
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Number of measurements behind the value.
    pub samples: usize,
    /// The end-to-end metric this per-layer metric should move, as
    /// `metric@workload`.
    pub moves: &'static str,
    /// The base of a ratio, or what a count is of.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            moves: "",
            note: String::new(),
        }
    }

    pub fn moves(mut self, e2e: &'static str) -> Metric {
        self.moves = e2e;
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, measured with tracing off.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics: the workload's own (such as peak memory) and,
    /// with `--trace 1`, every rung of the ladder.
    pub layers: Vec<Metric>,
    /// Where the traced run wrote its Chrome trace.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn e2e(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().find(|m| m.name == name)
    }
}

/// The end-to-end metrics every workload reports about its operation,
/// from the operation times (ms) measured over a timed window of
/// `window_s` seconds, and the set-up times (s).
pub fn op_metrics(setup: &[f64], ops_ms: &[f64], window_s: f64) -> Vec<Metric> {
    let n = ops_ms.len();
    vec![
        Metric::new("setup_s", "s", span::median(setup), setup.len()),
        Metric::new("op_p50_ms", "ms", span::median(ops_ms), n),
        Metric::new("op_p95_ms", "ms", span::quantile(ops_ms, 0.95), n),
        Metric::new("ops_per_s", "1/s", n as f64 / window_s, n),
    ]
}

/// What one rung of the per-layer ladder measured.
pub struct Rung {
    pub layers: Vec<Metric>,
    /// The traced counterpart of the rung's workload operation, ms.
    pub traced_op_ms: f64,
}

const USAGE: &str =
    "usage: pvc-ledger --reproduce PATH --workload <regen_cold|http_zipf|host_kernels> \
--seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reproduce = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--reproduce" => reproduce = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        reproduce: reproduce.ok_or("--reproduce is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "regen_cold" => regen::run(&args),
        "http_zipf" => http::run(&args),
        "host_kernels" => kernels::run(&args),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let result = result.and_then(|mut out| {
        if args.trace {
            ladder(&args, &mut out)?;
        }
        Ok(out)
    });
    match result {
        Ok(outcome) => {
            print_report(&args, &outcome);
            let reported = if args.trace {
                &outcome.layers
            } else {
                &outcome.e2e
            };
            if outcome.attempted == 0 {
                eprintln!("{}: no operation was attempted", args.workload);
                std::process::exit(1);
            }
            if let Some(m) = reported.iter().find(|m| !m.value.is_finite()) {
                eprintln!("{}: metric {} has no finite value", args.workload, m.name);
                std::process::exit(1);
            }
            if let Err(e) = check_manifest(args.trace, reported) {
                eprintln!("{}: {e}", args.workload);
                std::process::exit(1);
            }
            println!("{}", result_line(reported, &outcome));
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// The per-layer ladder: every workload's traced rung, whichever
/// workload was named, so each layer is measured where it does most of
/// the work and every run reports every per-layer metric. One recorder
/// holds all spans and becomes one Chrome trace.
fn ladder(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let dir = RunDir::new("ladder")?;
    let rec = Recorder::new();
    let rungs = [
        ("regen_cold", regen::rung(args, &rec, &dir, out)?),
        ("http_zipf", http::rung(args, &rec, &dir, out)?),
        ("host_kernels", kernels::rung(args, &rec, out)?),
    ];
    let untraced = out.e2e("op_p50_ms").map_or(f64::NAN, |m| m.value);
    for (workload, rung) in rungs {
        if workload == args.workload {
            out.layers.push(
                Metric::new("trace.overhead_ms", "ms", rung.traced_op_ms - untraced, 1)
                    .moves("op_p50_ms")
                    .note(format!(
                        "traced {workload} operation {:.3} ms minus untraced op_p50_ms",
                        rung.traced_op_ms
                    )),
            );
        }
        out.layers.extend(rung.layers);
    }
    let path = trace_path(&args.workload, args.seed)?;
    rec.write_chrome(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.trace_file = Some(path);
    Ok(())
}

/// Checks that `reported` holds exactly the metrics `BENCHMARK.json`
/// names for the mode (`end_to_end` or `per_layer`), each in its unit.
fn check_manifest(trace: bool, reported: &[Metric]) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let manifest =
        pvc_core::json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let listed = manifest
        .get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    let mut want: Vec<(String, String)> = Vec::new();
    for m in listed {
        let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
        want.push((
            field("name").ok_or("a manifest metric has no name")?,
            field("unit").ok_or("a manifest metric has no unit")?,
        ));
    }
    let mut have: Vec<(String, String)> = reported
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    want.sort();
    have.sort();
    if want == have {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|w| !have.contains(w)).collect();
    let extra: Vec<_> = have.iter().filter(|h| !want.contains(h)).collect();
    Err(format!(
        "reported {key} metrics differ from BENCHMARK.json: missing {missing:?}, unlisted {extra:?}"
    ))
}

/// The human-readable report: every metric by name, unit and sample
/// count, then failed/attempted; per-layer metrics beside the end-to-end
/// metric they should move.
fn print_report(args: &Args, out: &Outcome) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("end-to-end (tracing off):");
    for m in &out.e2e {
        println!(
            "  {:<34} {:>14.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if args.trace {
        println!("per-layer -> end-to-end metric it should move:");
        for m in &out.layers {
            // A metric without `@workload` moves the named workload's.
            let e2e = match m.moves.split_once('@') {
                Some((name, workload)) if workload == args.workload => out.e2e(name),
                None => out.e2e(m.moves),
                _ => None,
            };
            let moved = e2e.map_or_else(
                || m.moves.to_string(),
                |e| format!("{} = {:.6} {}", m.moves, e.value, e.unit),
            );
            println!(
                "  {:<34} {:>14.6} {:<12} n={:<6} -> {moved}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                }
            );
        }
        if let Some(path) = &out.trace_file {
            println!("chrome trace: {}", path.display());
        }
    }
    println!("failed/attempted: {}/{}", out.failed, out.attempted);
}

/// The last stdout line: the machine-readable result. Values print with
/// Rust's shortest round-trip formatting, so every measured digit stays.
fn result_line(metrics: &[Metric], out: &Outcome) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}
