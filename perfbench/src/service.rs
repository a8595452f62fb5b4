//! `service`: an in-process `vrd-exp serve` with two workers on a
//! synthetic fleet, bound to `127.0.0.1:0`, under an open loop.
//!
//! One generator thread POSTs small jobs of all five kinds from three
//! tenants at a fixed offered rate below capacity, each at its due time
//! whatever the service is doing (independent users, so an open loop).
//! A job's latency runs from its due time to its terminal state, so a
//! stall also charges the jobs queued behind it. This covers the
//! scheduler, checkpoint journal writes beside the compute, the
//! JSON/HTTP front end and the event fan-out — the layers ROADMAP items
//! 4 and 5 rewrite.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vrd_core::obs::Event;
use vrd_core::scheduler::{replay, SchedOp};
use vrd_experiments::serve::{http, JobKind, JobSpec, ServeConfig, Service};

use crate::harness::{self, Args, Rep};
use crate::recorder::Recorder;
use crate::stats::{dir_bytes, fnv64, median, quantile};
use crate::Scale;

/// Submitting tenants; job `i` comes from `TENANTS[i % 3]`.
pub const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Offered load in jobs per second: about half of what two workers
/// drain at this job mix.
pub const RATE_PER_S: f64 = 10.0;

/// Latency limit on `job_p90_s`: a run over it is reported as missing
/// the limit.
pub const JOB_P90_LIMIT_S: f64 = 2.0;

/// Job specs repeat with this period (the least common multiple of the
/// 5 kinds and 3 tenants), so every repeat must return the same result.
const PERIOD: usize = 60;

/// Synthetic fleet size.
const FLEET_SIZE: usize = 10_000;

/// How long a session waits for its last jobs after the last is due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The `i`-th job of a session.
pub fn job_spec(seed: u64, i: usize) -> JobSpec {
    let mut spec = JobSpec::new(TENANTS[i % TENANTS.len()], JobKind::ALL[i % JobKind::ALL.len()]);
    spec.seed = seed.wrapping_mul(1_000).wrapping_add((i % PERIOD) as u64);
    spec.sweep_activations = 20_000;
    spec
}

/// A booted service with its HTTP front end and worker pool.
pub struct Live {
    dir: PathBuf,
    service: Arc<Service>,
    addr: SocketAddr,
    events: Receiver<String>,
    workers: Vec<JoinHandle<()>>,
}

/// A terminal-state message: `job <id> <state>[...]`.
fn terminal(event: &Event) -> Option<(String, bool)> {
    let Event::Message { body, .. } = event else { return None };
    let mut words = body.strip_prefix("job ")?.split_whitespace();
    let id = words.next()?.to_owned();
    match words.next()?.trim_end_matches(':') {
        "done" => Some((id, true)),
        "failed" | "cancelled" => Some((id, false)),
        _ => None,
    }
}

fn parse(line: &str) -> Option<Event> {
    serde_json::from_str(line).ok()
}

/// Boots a service in a fresh state dir, runs one job of each kind
/// through it, and opens the HTTP front end.
fn setup(args: &Args, k: usize) -> Result<Live, String> {
    let dir = Path::new(".bench_out").join(format!("service-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        state_dir: dir.to_string_lossy().into_owned(),
        fleet_size: FLEET_SIZE,
        fleet_seed: args.seed,
        service_seed: args.seed,
        workers: crate::threads(),
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::boot(cfg)?);
    let (tx, events) = mpsc::channel();
    service.events().subscribe(tx);
    let mut warmup = Vec::new();
    for (i, &kind) in JobKind::ALL.iter().enumerate() {
        let mut spec = job_spec(args.seed, i);
        spec.kind = kind;
        spec.tenant = "warmup".into();
        warmup.push(service.submit(spec)?);
    }
    let workers = (0..crate::threads())
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.worker_loop())
        })
        .collect();
    let addr = http::serve(Arc::clone(&service), "127.0.0.1:0")?;
    let live = Live { dir, service, addr, events, workers };
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !warmup.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok(line) = live.events.recv_timeout(left) else {
            teardown(live);
            return Err(format!("{} warm-up jobs never finished", warmup.len()));
        };
        if let Some((id, ok)) = parse(&line).as_ref().and_then(terminal) {
            if !ok {
                teardown(live);
                return Err(format!("warm-up job {id} failed"));
            }
            warmup.retain(|w| *w != id);
        }
    }
    while live.events.try_recv().is_ok() {}
    Ok(live)
}

/// Stops the workers and the front end, and deletes the state dir.
fn teardown(live: Live) {
    live.service.request_shutdown();
    for w in live.workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&live.dir);
}

/// POSTs one job; returns its id.
fn post_job(addr: SocketAddr, body: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("receive: {e}"))?;
    let status = response.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("POST /jobs answered {status:?}"));
    }
    let (_, payload) = response.split_once("\r\n\r\n").ok_or("response has no body")?;
    let ids: BTreeMap<String, String> =
        serde_json::from_str(payload).map_err(|e| format!("response body {payload:?}: {e}"))?;
    ids.get("job").cloned().ok_or_else(|| format!("response body {payload:?} names no job"))
}

/// One submission as the generator saw it.
struct Submission {
    i: usize,
    due: Instant,
    sent: Instant,
    acked: Instant,
    id: Result<String, String>,
}

/// Appends the job ids newly written to `dispatch.jsonl` to
/// `dispatched`, stamped now.
fn tail_dispatch(path: &Path, offset: &mut usize, dispatched: &mut BTreeMap<String, Instant>) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let now = Instant::now();
    let Some(fresh) = text.get(*offset..) else { return };
    let complete = fresh.rfind('\n').map_or(0, |n| n + 1);
    for id in fresh[..complete].lines() {
        dispatched.entry(id.trim().to_owned()).or_insert(now);
    }
    *offset += complete;
}

/// One open-loop session sized to fill `budget_s`.
fn session(args: &Args, live: &mut Live, rec: Option<&Recorder>, budget_s: f64) -> Rep {
    // At full scale a session always covers every distinct spec, which
    // the committed output digest is taken over.
    let least = if args.scale == Scale::Full { PERIOD } else { 1 };
    let n = ((budget_s * RATE_PER_S) as usize).max(least);
    let bodies: Vec<String> = (0..n)
        .map(|i| serde_json::to_string(&job_spec(args.seed, i)).expect("job specs serialize"))
        .collect();
    let subs: Mutex<Vec<Submission>> = Mutex::new(Vec::with_capacity(n));
    let generating = AtomicBool::new(true);
    let mut terminals: BTreeMap<String, (Instant, bool)> = BTreeMap::new();
    let mut dispatched: BTreeMap<String, Instant> = BTreeMap::new();
    let dispatch_log = live.dir.join("dispatch.jsonl");
    let mut offset = std::fs::read_to_string(&dispatch_log).map_or(0, |t| t.len());
    let mut events = 0u64;
    let t0 = Instant::now() + Duration::from_millis(10);
    let deadline = t0 + Duration::from_secs_f64(n as f64 / RATE_PER_S) + DRAIN_TIMEOUT;
    let addr = live.addr;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, body) in bodies.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let sent = Instant::now();
                let id = post_job(addr, body);
                let acked = Instant::now();
                subs.lock().expect("generator lock").push(Submission { i, due, sent, acked, id });
            }
            generating.store(false, Ordering::SeqCst);
        });
        let poll = if rec.is_some() { Duration::from_millis(1) } else { Duration::from_millis(50) };
        loop {
            match live.events.recv_timeout(poll) {
                Ok(line) => {
                    events += 1;
                    let now = Instant::now();
                    if let Some(event) = parse(&line) {
                        if let Some(r) = rec {
                            r.scoped_event("", &event);
                        }
                        if let Some((id, ok)) = terminal(&event) {
                            terminals.insert(id, (now, ok));
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if rec.is_some() {
                tail_dispatch(&dispatch_log, &mut offset, &mut dispatched);
            }
            if !generating.load(Ordering::SeqCst) {
                let subs = subs.lock().expect("generator lock");
                let open = subs
                    .iter()
                    .filter_map(|s| s.id.as_ref().ok())
                    .any(|id| !terminals.contains_key(id));
                if !open || Instant::now() > deadline {
                    break;
                }
            }
        }
    });
    let end = Instant::now();
    let subs = subs.into_inner().expect("generator finished");

    let mut rep = Rep { wall_s: (end - t0).as_secs_f64(), ..Rep::default() };
    let mut results: Vec<Option<u64>> = vec![None; PERIOD.min(n)];
    for s in &subs {
        rep.attempted += 1;
        let id = match &s.id {
            Ok(id) => id,
            Err(e) => {
                rep.failed += 1;
                rep.errors.push(format!("job {}: {e}", s.i));
                continue;
            }
        };
        let Some(&(at, ok)) = terminals.get(id) else {
            rep.check(false, || format!("job {id} did not finish"));
            continue;
        };
        rep.check(ok, || format!("job {id} failed or was cancelled"));
        rep.latencies_s.push((at - s.due).as_secs_f64());
        let result =
            std::fs::read(live.dir.join("jobs").join(id).join("artifacts").join("result.json"));
        let digest = result.map_or(0, |bytes| fnv64(&bytes));
        rep.check(digest != 0, || format!("job {id} has no result.json"));
        match results.get_mut(s.i) {
            Some(slot) => *slot = Some(digest),
            None => {
                let first = results[s.i % PERIOD];
                rep.check(first.is_none_or(|f| f == digest), || {
                    format!("job {id} returned other results than its spec's first run")
                });
            }
        }
        if let Some(r) = rec {
            r.record("service.submit", id, s.sent, s.acked);
            r.record("loadgen.late", id, s.due, s.sent);
            if let Some(&d) = dispatched.get(id) {
                r.record("service.queue_wait", id, s.acked, d.max(s.acked));
                r.record("service.run", id, d, at.max(d));
            }
        }
    }
    rep.work = rep.latencies_s.len() as f64;
    rep.digest =
        fnv64(&results.iter().flat_map(|d| d.unwrap_or(0).to_le_bytes()).collect::<Vec<u8>>());
    check_dispatch(args, &live.dir, &mut rep);
    if let Some(r) = rec {
        r.add("service.events", events as f64);
    }
    rep
}

/// The dispatch log must equal the dispatch trace that replaying the
/// submission log reconstructs.
fn check_dispatch(args: &Args, dir: &Path, rep: &mut Rep) {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    let ops: Result<Vec<SchedOp>, String> = read("sched_log.jsonl")
        .lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("sched_log.jsonl: {e}")))
        .collect();
    let dispatch: Vec<String> = read("dispatch.jsonl").lines().map(str::to_owned).collect();
    let replayed = ops.and_then(|ops| replay(args.seed, &ops).map_err(|e| e.to_string()));
    match replayed {
        Ok(sched) => rep.check(sched.dispatch_trace() == dispatch.as_slice(), || {
            format!(
                "dispatch.jsonl ({} jobs) differs from the replayed dispatch trace",
                dispatch.len()
            )
        }),
        Err(e) => rep.check(false, || format!("replay failed: {e}")),
    }
}

/// Runs the workload; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let rec = Recorder::default();
    let mut k = 0;
    let measured = harness::measure(
        args,
        &rec,
        || {
            k += 1;
            setup(args, k)
        },
        teardown,
        |live, r, budget| session(args, live, r, budget),
    );
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: service set-up failed: {e}");
            return 1;
        }
    };
    let jobs: Vec<f64> = m.untraced.iter().flat_map(|r| r.latencies_s.iter().copied()).collect();
    let p90 = quantile(&jobs, 0.9);
    println!(
        "service: {RATE_PER_S} jobs/s offered, job_p90_s {p90:.3} {} the {JOB_P90_LIMIT_S} s limit",
        if p90 <= JOB_P90_LIMIT_S { "meets" } else { "MISSES" }
    );
    let mut layers = BTreeMap::new();
    if args.trace {
        let n = m.traced.len() as f64;
        let ms = |name: &str, q: f64| quantile(&rec.durations_s(name), q) * 1e3;
        layers.insert("service.submit_p50_ms", ms("service.submit", 0.5));
        layers.insert("service.submit_p99_ms", ms("service.submit", 0.99));
        layers.insert("loadgen.late_p90_ms", ms("loadgen.late", 0.9));
        layers.insert("service.queue_wait_p50_s", median(&rec.durations_s("service.queue_wait")));
        layers.insert("service.run_p50_s", median(&rec.durations_s("service.run")));
        layers.insert("service.events", rec.counter("service.events") / n);
        layers.insert("service.state_dir_bytes", dir_bytes(&m.state.dir) as f64);
        let commits = rec.commits_ns();
        layers.insert("checkpoint.commits", commits.len() as f64 / n);
        layers.insert("checkpoint.commit_p50_us", quantile(&commits, 0.5) * 1e-3);
        layers.insert("checkpoint.commit_p99_us", quantile(&commits, 0.99) * 1e-3);
        let journals: u64 = std::fs::read_dir(m.state.dir.join("jobs"))
            .map(|jobs| jobs.flatten().map(|j| dir_bytes(&j.path().join("checkpoint"))).sum())
            .unwrap_or(0);
        layers.insert("checkpoint.journal_bytes", journals as f64);
        // Each job runs its phases on one thread (`JobSpec::threads`).
        rec.exec_layers(n, 1, &mut layers);
    }
    let code = harness::finish(args, &m, &rec, layers, Vec::new());
    teardown(m.state);
    let _ = std::fs::remove_dir(".bench_out");
    code
}
