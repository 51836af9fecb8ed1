//! `http_zipf`: `reproduce serve --http` on loopback, driven by two
//! closed-loop keep-alive clients; one request is the workload's
//! operation.
//!
//! Why this workload: it loads the HTTP frontend and the LRU and store
//! tiers while memsim and the kernels do almost no work. Set-up sends
//! every request of the grid corpus once, so the 64-entry LRU and the
//! store start warm. The grid corpus is the warm corpus minus Figure 1
//! and the four `lats` runs, whose seconds of memsim belong to
//! `regen_cold`. Each client works in short seeded sessions of about ten
//! requests and then reconnects; keys follow a seeded Zipf distribution
//! over a seeded permutation of the grid and arrive as catalog `GET`
//! routes and as `POST /query`. About one request in ten is a fresh
//! what-if `run` under a random valid chaos spec: it misses every tier,
//! computes and writes back, so the store sees writes beside reads. Two
//! clients also expose a serial accept loop: a new session waits until
//! the other client's session ends.
//!
//! Every response is compared byte for byte with an in-process
//! `Service<CatalogExecutor>` answer to the same request. Transport
//! errors, timeouts, non-200 statuses and error envelopes all fail.

use crate::program::{RunDir, Server};
use crate::span::{self, Recorder};
use crate::{op_metrics, Args, Metric, Outcome, Rung};
use pvc_arch::chaos::ChaosSpec;
use pvc_arch::System;
use pvc_core::rng::{mix64, SimRng};
use pvc_core::Json;
use pvc_report::serve::CatalogExecutor;
use pvc_serve::{Request, ServeConfig, Service, Telemetry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Server start-ups (fresh store, grid warm-up) behind `setup_s`.
const SETUP_REPS: usize = 5;
/// Closed-loop clients, each holding at most one connection.
const CLIENTS: u64 = 2;
/// Zipf exponent of key popularity over the permuted grid.
const ZIPF_S: f64 = 1.0;
/// Share of requests that are fresh what-if chaos runs.
const WHATIF_SHARE: f64 = 0.1;
/// Session lengths are 9, 10 or 11 requests with odds 1:2:1. A new
/// session waits for the other client's whole session, so the latency
/// tail is a session length times the per-request time; a wider spread
/// of lengths would move p95 by whole requests from seed to seed.
const SESSION_MIN: u64 = 9;
/// Requests per warm-up batch: the server's default admission queue
/// depth, so no warm-up request is shed.
const WARM_BATCH: usize = 32;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// The end-to-end metric the HTTP rung's metrics move.
const MOVES: &str = "op_p50_ms@http_zipf";

/// The grid corpus: every warm-corpus request except Figure 1 and the
/// `lats` runs.
fn grid_corpus() -> Vec<String> {
    pvc_report::warm::warm_corpus()
        .into_iter()
        .filter(|line| {
            let req = Request::parse(line).expect("warm corpus lines parse");
            let figure1 = req.kind() == "figure" && req.get("id") == Some(&Json::Int(1));
            let lats =
                req.kind() == "run" && req.get("workload").and_then(Json::as_str) == Some("lats");
            !figure1 && !lats
        })
        .collect()
}

/// The bytes the HTTP frontend must answer for `line`, from an
/// in-process service (`GET` catalog routes and `POST /query` frame the
/// envelope identically); `None` when the service answers an error.
fn expected(service: &Service<CatalogExecutor>, line: &str) -> Option<Vec<u8>> {
    let envelope = service.handle_lines(&[line]).remove(0);
    envelope.get("result")?;
    Some(format!("{}\n", envelope.compact()).into_bytes())
}

/// One generated request: its JSON document and its HTTP bytes.
struct Planned {
    line: String,
    route: String,
    whatif: bool,
}

impl Planned {
    fn wire(&self, id: u64) -> Vec<u8> {
        if self.route.starts_with('/') {
            format!(
                "GET {} HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Request-Id: {id}\r\n\r\n",
                self.route
            )
            .into_bytes()
        } else {
            format!(
                "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nX-Request-Id: {id}\r\n\r\n{}",
                self.line.len(),
                self.line
            )
            .into_bytes()
        }
    }
}

/// The catalog `GET` route answering `req`, when one exists.
fn get_route(req: &Request) -> Option<String> {
    let s = |f: &str| req.get(f).and_then(Json::as_str);
    match req.kind() {
        "table" | "figure" => match req.get("id") {
            Some(Json::Int(id)) => Some(format!("/{}/{id}", req.kind())),
            _ => None,
        },
        "ablation" => Some(format!("/ablation/{}", s("name")?)),
        "run" if req.get("chaos").is_none() => {
            Some(format!("/run/{}/{}", s("workload")?, s("system")?))
        }
        _ => None,
    }
}

/// Seeded request stream of one client: Zipf keys over a permutation of
/// the grid, a coin for `GET` versus `POST /query` where both exist, and
/// what-if chaos runs.
struct Generator<'a> {
    rng: SimRng,
    grid: &'a [String],
    order: Vec<usize>,
    cdf: Vec<f64>,
    runs: Vec<(String, System)>,
}

impl<'a> Generator<'a> {
    fn new(grid: &'a [String], seed: u64, client: u64) -> Generator<'a> {
        // The permutation is shared by both clients; the draws are not.
        let mut perm_rng = SimRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..grid.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, perm_rng.below(i as u64 + 1) as usize);
        }
        let weights: Vec<f64> = (1..=grid.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights.iter().map(|w| {
            acc += w / total;
            acc
        });
        let runs = grid
            .iter()
            .filter_map(|line| {
                let req = Request::parse(line).ok()?;
                if req.kind() != "run" || req.get("chaos").is_some() {
                    return None;
                }
                let workload = req.get("workload")?.as_str()?.to_string();
                Some((workload, req.get("system")?.as_str()?.parse().ok()?))
            })
            .collect();
        Generator {
            rng: SimRng::seed_from_u64(mix64(seed ^ mix64(client + 1))),
            grid,
            order,
            cdf: cdf.collect(),
            runs,
        }
    }

    fn session_len(&mut self) -> u64 {
        SESSION_MIN + self.rng.below(2) + self.rng.below(2)
    }

    fn next(&mut self) -> Planned {
        if self.rng.random::<f64>() < WHATIF_SHARE {
            return self.whatif();
        }
        let u = self.rng.random::<f64>();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.grid.len() - 1);
        let line = self.grid[self.order[rank]].clone();
        let req = Request::parse(&line).expect("grid lines parse");
        let route = match get_route(&req) {
            Some(route) if self.rng.random::<bool>() => route,
            _ => "POST /query".to_string(),
        };
        Planned {
            line,
            route,
            whatif: false,
        }
    }

    /// A `run` of a random grid cell under a random chaos spec, drawn
    /// until `ChaosSpec::parse` accepts it and it applies to the system;
    /// every accepted spec only degrades the node.
    fn whatif(&mut self) -> Planned {
        loop {
            let (workload, system) =
                self.runs[self.rng.below(self.runs.len() as u64) as usize].clone();
            let spec = match self.rng.below(3) {
                0 => format!("hbm:{:.3}", self.rng.random_range(0.2..0.95)),
                1 => format!("clock:{:.3}", self.rng.random_range(0.6..1.6)),
                _ => format!(
                    "xelink:{}:{:.3}",
                    self.rng.below(2),
                    self.rng.random_range(0.2..0.95)
                ),
            };
            let valid = ChaosSpec::parse(&spec).is_ok_and(|s| s.apply(system.node()).is_ok());
            if valid {
                let line = format!(
                    r#"{{"kind":"run","workload":"{workload}","system":"{}","chaos":"{spec}"}}"#,
                    system.cli_name()
                );
                return Planned {
                    line,
                    route: "POST /query".to_string(),
                    whatif: true,
                };
            }
        }
    }
}

/// One HTTP/1.1 exchange on an open connection: writes the request in
/// one call and reads one response (`Content-Length` or chunked).
/// Returns the status and the body.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    wire: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    use std::io::{Error, ErrorKind};
    let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
    stream.write_all(wire)?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in the response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("bad length"))?,
                )
            }
            "transfer-encoding" => chunked = value.trim().eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        body.resize(length.ok_or_else(|| bad("no content-length"))?, 0);
        reader.read_exact(&mut body)?;
    }
    Ok((status, body))
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// `POST /shutdown` on its own connection.
pub fn post_shutdown(addr: SocketAddr) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let wire = b"POST /shutdown HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    match exchange(&mut stream, &mut reader, wire) {
        Ok((200, _)) => Ok(()),
        Ok((status, _)) => Err(format!("POST /shutdown answered {status}")),
        Err(e) => Err(format!("POST /shutdown: {e}")),
    }
}

/// Sends the grid corpus once, in admission-sized `POST /query` batches
/// on one connection, and checks every envelope against the reference.
fn warm(
    addr: SocketAddr,
    grid: &[String],
    reference: &HashMap<String, Vec<u8>>,
) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for batch in grid.chunks(WARM_BATCH) {
        let body = format!("[{}]", batch.join(","));
        let wire = format!(
            "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (status, reply) = exchange(&mut stream, &mut reader, wire.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        let text = String::from_utf8(reply).map_err(|_| "warm-up reply is not UTF-8")?;
        let envelopes = match pvc_core::json::parse(text.trim_end()) {
            Ok(Json::Arr(items)) if status == 200 && items.len() == batch.len() => items,
            _ => return Err(format!("warm-up batch answered {status}: {text}")),
        };
        for (line, envelope) in batch.iter().zip(envelopes) {
            if format!("{}\n", envelope.compact()).as_bytes() != &reference[line][..] {
                return Err(format!(
                    "warm-up answer for {line} differs from the in-process service"
                ));
            }
        }
    }
    Ok(())
}

/// One timed request as the client saw it. Times are on the recorder's
/// clock.
struct Sample {
    id: u64,
    first_in_session: bool,
    start: f64,
    end: f64,
    ok: bool,
    /// A what-if's request and answer, checked after the timed window.
    whatif: Option<(String, Vec<u8>)>,
}

/// Runs the two closed-loop clients for `seconds` against `addr`. With
/// `traced`, every request also becomes a client span.
fn drive(
    addr: SocketAddr,
    args: &Args,
    grid: &[String],
    reference: &HashMap<String, Vec<u8>>,
    rec: &Recorder,
    traced: bool,
) -> (Vec<Sample>, f64, f64) {
    let next_id = AtomicU64::new(1);
    let t0 = rec.now();
    let deadline = t0 + args.seconds;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next_id = &next_id;
                s.spawn(move || {
                    let mut gen = Generator::new(grid, args.seed, client);
                    let mut samples = Vec::new();
                    while rec.now() < deadline {
                        let len = gen.session_len();
                        let mut conn = None;
                        for k in 0..len {
                            if rec.now() >= deadline {
                                break;
                            }
                            let plan = gen.next();
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            let start = rec.now();
                            let result = match conn.as_mut() {
                                Some(c) => Ok(c),
                                None => connect(addr).map(|c| conn.insert(c)),
                            }
                            .and_then(|(stream, reader)| exchange(stream, reader, &plan.wire(id)));
                            let end = rec.now();
                            if traced {
                                rec.record(
                                    "client.request",
                                    plan.route.clone(),
                                    start,
                                    end,
                                    None,
                                    Some(id),
                                );
                            }
                            let (ok, whatif) = match result {
                                Ok((200, body)) if plan.whatif => (true, Some((plan.line, body))),
                                Ok((200, body)) => (reference.get(&plan.line) == Some(&body), None),
                                Ok(_) | Err(_) => {
                                    conn = None;
                                    (false, None)
                                }
                            };
                            samples.push(Sample {
                                id,
                                first_in_session: k == 0,
                                start,
                                end,
                                ok,
                                whatif,
                            });
                        }
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    let t1 = samples.iter().map(|s| s.end).fold(t0, f64::max);
    (samples, t0, t1)
}

/// Checks the what-if answers against fresh in-process computations and
/// returns (attempted, failed) over all samples.
fn check(samples: &mut [Sample], reference: &Service<CatalogExecutor>) -> (u64, u64) {
    for s in samples.iter_mut() {
        if let Some((line, body)) = &s.whatif {
            s.ok = expected(reference, line).as_ref() == Some(body);
        }
    }
    (
        samples.len() as u64,
        samples.iter().filter(|s| !s.ok).count() as u64,
    )
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.end - s.start) * 1e3)
        .collect()
}

/// The grid corpus, the in-process reference service and its answer to
/// every grid request.
struct Reference {
    grid: Vec<String>,
    service: Service<CatalogExecutor>,
    answers: HashMap<String, Vec<u8>>,
}

impl Reference {
    fn new() -> Result<Reference, String> {
        let grid = grid_corpus();
        let service = Service::new(CatalogExecutor, ServeConfig::default());
        let answers = grid
            .iter()
            .map(|l| Some((l.clone(), expected(&service, l)?)))
            .collect::<Option<HashMap<String, Vec<u8>>>>()
            .ok_or("the in-process service answers a grid request with an error")?;
        Ok(Reference {
            grid,
            service,
            answers,
        })
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = RunDir::new("http_zipf")?;
    let Reference {
        grid,
        service,
        answers: reference,
    } = Reference::new()?;

    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for i in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let t0 = std::time::Instant::now();
        let started = Server::start(
            &args.reproduce,
            &dir.file(&format!("store-{i}.bin")),
            &dir.file(&format!("server-{i}.log")),
        )?;
        warm(started.addr, &grid, &reference)?;
        setup.push(t0.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let clock = Recorder::new();
    let (mut samples, t0, t1) = drive(server.addr, args, &grid, &reference, &clock, false);
    let rss = server.peak_rss_mib();
    server.shutdown()?;
    let (attempted, failed) = check(&mut samples, &service);
    let lat = latencies_ms(&samples);
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.e2e = op_metrics(&setup, &lat, t1 - t0);
    out.layers.push(
        Metric::new("process.peak_rss_mib", "MiB", rss.unwrap_or(f64::NAN), 1)
            .moves(MOVES)
            .note("VmHWM of the server after the timed window"),
    );
    Ok(out)
}

/// The outcome of one served request, from the service's counters.
fn outcome_of(before: &[u64; 3], after: &[u64; 3]) -> &'static str {
    match (
        after[0] > before[0],
        after[1] > before[1],
        after[2] > before[2],
    ) {
        (true, _, _) => "lru_hit",
        (_, true, _) => "store_hit",
        (_, _, true) => "computed",
        _ => "other",
    }
}

/// The HTTP rung of the per-layer ladder: the workload re-run against
/// the same frontend code in process, with a span around every
/// `httpfront::handle` call labelled by serve outcome. Its traced
/// operation is the median client latency.
pub fn rung(args: &Args, rec: &Recorder, dir: &RunDir, out: &mut Outcome) -> Result<Rung, String> {
    let Reference {
        grid,
        service,
        answers,
    } = Reference::new()?;
    let (grid, reference) = (&grid[..], &answers);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let store_path = dir.file("http-traced.bin");
    let fingerprint = pvc_report::warm::build_fingerprint();
    let (driven, served) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_in_process(&listener, &store_path, fingerprint, rec));
        let driven =
            warm(addr, grid, reference).map(|()| drive(addr, args, grid, reference, rec, true).0);
        let stopped = post_shutdown(addr);
        let served = server.join().expect("server thread panicked");
        (driven.and_then(|d| stopped.map(|_| d)), served)
    });
    served?;
    let mut samples = driven?;
    let (attempted, failed) = check(&mut samples, &service);
    out.attempted += attempted;
    out.failed += failed;

    let handled: HashMap<u64, span::Span> = rec
        .spans()
        .into_iter()
        .filter(|s| s.name == "http.handle")
        .filter_map(|s| Some((s.req?, s)))
        .collect();
    let timed: Vec<&span::Span> = samples.iter().filter_map(|s| handled.get(&s.id)).collect();
    let handler_ms: Vec<f64> = timed.iter().map(|s| s.dur() * 1e3).collect();
    let mut wire = Vec::new();
    let mut accept_wait = Vec::new();
    for s in samples.iter().filter(|s| s.ok) {
        let Some(h) = handled.get(&s.id) else {
            continue;
        };
        if s.first_in_session {
            accept_wait.push((h.start - s.start) * 1e3);
        } else {
            wire.push(((s.end - s.start) - h.dur()) * 1e3);
        }
    }
    let by = |label: &str| -> Vec<f64> {
        timed
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.dur())
            .collect()
    };
    let (lru, stored, computed) = (by("lru_hit"), by("store_hit"), by("computed"));
    let n = timed.len();
    let base = format!("base: {n} requests");
    let layers = vec![
        Metric::new("http.handler_ms_p50", "ms", span::median(&handler_ms), n).moves(MOVES),
        Metric::new("http.wire_ms_p50", "ms", span::median(&wire), wire.len())
            .moves(MOVES)
            .note("client latency minus handler time, non-first requests of a session"),
        Metric::new(
            "http.accept_wait_ms_p95",
            "ms",
            span::quantile(&accept_wait, 0.95),
            accept_wait.len(),
        )
        .moves("op_p95_ms@http_zipf")
        .note("first request of a session: handler start minus request write"),
        Metric::new(
            "serve.lru_hit_ratio",
            "ratio",
            lru.len() as f64 / n as f64,
            n,
        )
        .moves(MOVES)
        .note(&base),
        Metric::new(
            "serve.store_hit_ratio",
            "ratio",
            stored.len() as f64 / n as f64,
            n,
        )
        .moves(MOVES)
        .note(&base),
        Metric::new("serve.computed", "count", computed.len() as f64, n)
            .moves(MOVES)
            .note(&base),
        Metric::new(
            "serve.lru_hit_us_p50",
            "us",
            span::median(&lru) * 1e6,
            lru.len(),
        )
        .moves(MOVES),
        Metric::new(
            "serve.store_hit_us_p50",
            "us",
            span::median(&stored) * 1e6,
            stored.len(),
        )
        .moves(MOVES),
        Metric::new(
            "serve.compute_ms_p50",
            "ms",
            span::median(&computed) * 1e3,
            computed.len(),
        )
        .moves("op_p95_ms@http_zipf"),
    ];
    Ok(Rung {
        layers,
        traced_op_ms: span::median(&latencies_ms(&samples)),
    })
}

/// The `reproduce serve --http --store` stack in process: the same
/// service configuration, store attachment and route table, with a span
/// around every `httpfront::handle` call.
fn serve_in_process(
    listener: &TcpListener,
    store: &Path,
    fingerprint: u64,
    rec: &Recorder,
) -> Result<(), String> {
    let mut service = Service::new(CatalogExecutor, ServeConfig::default());
    service.set_telemetry(Telemetry::recording(64));
    let (opened, report) =
        pvc_store::Store::open(store, fingerprint).map_err(|e| format!("open store: {e}"))?;
    service.attach_store(opened, &report);
    let counters = |s: &Service<CatalogExecutor>| {
        let m = s.metrics();
        [
            m.counter("serve.cache.hit"),
            m.counter("serve.store.hit"),
            m.counter("serve.cache.miss"),
        ]
    };
    pvc_serve::http::serve_http(listener, |req| {
        let id = req.header("x-request-id").and_then(|v| v.parse().ok());
        let before = counters(&service);
        let t0 = rec.now();
        let answer = pvc_report::httpfront::handle(&service, req);
        let t1 = rec.now();
        rec.record(
            "http.handle",
            outcome_of(&before, &counters(&service)),
            t0,
            t1,
            None,
            id,
        );
        answer
    })
    .map_err(|e| format!("in-process server: {e}"))
}
