//! End-to-end test of the fleet campaign service (`vrd-exp serve`):
//! boot against a 1k-module synthetic fleet, submit campaigns from
//! three concurrent tenants over HTTP, cancel one mid-flight, and
//! prove that
//!
//! - completed jobs' `artifacts/result.json` are byte-identical to
//!   standalone in-process runs through the same `run_with` entry
//!   points,
//! - the multiplexed `events.jsonl` stream re-parses line-by-line,
//!   demuxes to the correct job ids, and each job's canonical stream
//!   reconstructed from the multiplexed feed equals the job's own
//!   trace file,
//! - the SSE feed carries the same parseable event lines live.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vrd_core::obs::trace::{demux_jobs, parse_jsonl};
use vrd_core::obs::{canonical_jsonl, Event};
use vrd_core::run::RunOptions;
use vrd_dram::fleet::synthetic_specs;
use vrd_experiments::serve::{FleetMetrics, JobKind, JobRecord, JobSpec, JobState};
use vrd_experiments::{discovery_exp, foundational, indepth, sweep_exp};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vrd-serve-e2e-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One `Connection: close` HTTP exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    http_raw(addr, &request)
}

/// Sends `request` verbatim and reads the response; returns (status, body).
fn http_raw(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to service");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Waits for the service to publish its bound address.
fn wait_endpoint(state: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(state.join("endpoint.txt")) {
            let addr = text.trim().to_owned();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "service never published endpoint.txt");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn submit(addr: &str, spec: &JobSpec) -> String {
    let body = serde_json::to_string(spec).expect("spec serializes");
    let (status, response) = http(addr, "POST", "/jobs", &body);
    assert_eq!(status, 200, "submission refused: {response}");
    let start = response.find("job-").unwrap_or_else(|| panic!("no job id in {response:?}"));
    response[start..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect()
}

const FLEET_SIZE: usize = 1000;
const FLEET_SEED: u64 = 7;

#[test]
fn fleet_service_serves_concurrent_tenants_end_to_end() {
    let state = scratch_dir("e2e");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args([
            "serve",
            "--state-dir",
            state.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--fleet-size",
            &FLEET_SIZE.to_string(),
            "--fleet-seed",
            &FLEET_SEED.to_string(),
            "--workers",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vrd-exp serve");
    let addr = wait_endpoint(&state);

    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, fleet_body) = http(&addr, "GET", "/fleet", "");
    assert_eq!(status, 200);
    assert!(fleet_body.contains("-f0999"), "1k fleet must be rostered: {fleet_body:?}");

    // A live SSE subscriber from before the first submission: collect
    // every data line until the service closes the stream at shutdown.
    let sse = {
        let addr = addr.clone();
        std::thread::spawn(move || -> Vec<String> {
            let mut stream = TcpStream::connect(&addr).expect("connect SSE");
            stream.set_read_timeout(Some(Duration::from_secs(600))).expect("set timeout");
            stream
                .write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
                .expect("send SSE request");
            let mut lines = Vec::new();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if let Some(data) = line.strip_prefix("data: ") {
                    lines.push(data.to_owned());
                }
            }
            lines
        })
    };

    // Three tenants' specs, small enough for a debug-build run.
    let mut alice = JobSpec::new("alice", JobKind::Foundational);
    alice.limit = 1;
    alice.measurements = 40;
    alice.seed = 11;
    let mut bob = JobSpec::new("bob", JobKind::Discovery);
    bob.limit = 1;
    bob.discovery_max_epochs = 60;
    bob.seed = 11;
    let mut carol = JobSpec::new("carol", JobKind::MemsimSweep);
    carol.limit = 1;
    carol.sweep_activations = 30_000;
    carol.seed = 11;

    // Concurrent clients: each tenant submits from its own thread.
    let mut ids: BTreeMap<&str, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = [("alice", &alice), ("bob", &bob), ("carol", &carol)]
            .into_iter()
            .map(|(tag, spec)| {
                let addr = addr.clone();
                scope.spawn(move || (tag, submit(&addr, spec)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submission thread")).collect()
    });

    // A fourth job, cancelled mid-schedule: with one worker busy on a
    // multi-second campaign, it is still queued when the cancel lands.
    let mut doomed = JobSpec::new("alice", JobKind::Foundational);
    doomed.limit = 2;
    let doomed_id = submit(&addr, &doomed);
    let (status, response) = http(&addr, "POST", &format!("/jobs/{doomed_id}/cancel"), "");
    assert_eq!(status, 200, "cancel refused: {response}");
    ids.insert("doomed", doomed_id.clone());

    // Poll status until every job is terminal.
    let deadline = Instant::now() + Duration::from_secs(600);
    let records: Vec<JobRecord> = loop {
        let (status, body) = http(&addr, "GET", "/jobs", "");
        assert_eq!(status, 200);
        let records: Vec<JobRecord> = serde_json::from_str(&body).expect("records parse");
        if records.len() == 4 && records.iter().all(|r| r.state.is_terminal()) {
            break records;
        }
        assert!(Instant::now() < deadline, "jobs never drained: {body}");
        std::thread::sleep(Duration::from_millis(200));
    };
    let state_of = |id: &str| records.iter().find(|r| r.id == id).expect("record exists").state;
    assert_eq!(state_of(&ids["alice"]), JobState::Done);
    assert_eq!(state_of(&ids["bob"]), JobState::Done);
    assert_eq!(state_of(&ids["carol"]), JobState::Done);
    assert_eq!(state_of(&ids["doomed"]), JobState::Cancelled);

    // Single-job status endpoint agrees.
    let (status, body) = http(&addr, "GET", &format!("/jobs/{}", ids["alice"]), "");
    assert_eq!(status, 200);
    let record: JobRecord = serde_json::from_str(&body).expect("record parses");
    assert_eq!(record.state, JobState::Done);
    assert_eq!(record.spec.tenant, "alice");
    let (status, _) = http(&addr, "GET", "/jobs/job-99999", "");
    assert_eq!(status, 404);

    // Dashboard totals line up.
    let (status, body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics: FleetMetrics = serde_json::from_str(&body).expect("metrics parse");
    assert_eq!(metrics.fleet_size, FLEET_SIZE as u64);
    assert_eq!(metrics.totals.submitted, 4);
    assert_eq!(metrics.totals.done, 3);
    assert_eq!(metrics.totals.cancelled, 1);
    assert_eq!(metrics.jobs.len(), 4);

    // Graceful shutdown; the service exits 0 on its own.
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = child.wait().expect("service exits");
    assert!(exit.success(), "service exit status: {exit:?}");

    // --- Byte-identity: each completed job's artifact equals a
    // standalone in-process run over the same fleet slice. ---
    let fleet = synthetic_specs(FLEET_SIZE, FLEET_SEED);
    let artifact = |id: &str| -> String {
        let path = state.join("jobs").join(id).join("artifacts/result.json");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    {
        let opts = alice.to_options();
        let specs = alice.select_specs(&fleet);
        let study = foundational::run_with(&opts, &specs, &RunOptions::new(opts.exec_config()))
            .expect("standalone foundational");
        assert_eq!(
            artifact(&ids["alice"]),
            serde_json::to_string_pretty(&study).unwrap(),
            "service foundational artifact must match the standalone run byte-for-byte"
        );
    }
    {
        let opts = bob.to_options();
        let specs = bob.select_specs(&fleet);
        let study = discovery_exp::run_with(&opts, &specs, &RunOptions::new(opts.exec_config()))
            .expect("standalone discovery");
        assert_eq!(artifact(&ids["bob"]), serde_json::to_string_pretty(&study).unwrap());
    }
    {
        let opts = carol.to_options();
        let specs = carol.select_specs(&fleet);
        let study = indepth::run_with(&opts, &specs, &RunOptions::new(opts.exec_config()))
            .expect("standalone in-depth");
        let sweep = sweep_exp::run_with(&opts, &specs, &study);
        assert_eq!(artifact(&ids["carol"]), serde_json::to_string_pretty(&sweep).unwrap());
    }

    // --- Stream conformance: the multiplexed log re-parses, demuxes
    // to the submitted job ids, and per-job canonical streams equal
    // each job's own trace file. ---
    let multiplexed =
        std::fs::read_to_string(state.join("events.jsonl")).expect("events.jsonl written");
    let events = parse_jsonl(&multiplexed).expect("every multiplexed line parses");
    let per_job = demux_jobs(&events);
    let submitted: Vec<&String> = ids.values().collect();
    for job in per_job.keys() {
        assert!(submitted.contains(&job), "unknown job id {job:?} in the multiplexed stream");
    }
    for tag in ["alice", "bob", "carol"] {
        let id = &ids[tag];
        let own = parse_jsonl(
            &std::fs::read_to_string(state.join("jobs").join(id).join("trace.jsonl"))
                .expect("per-job trace written"),
        )
        .expect("per-job trace parses");
        assert_eq!(
            canonical_jsonl(&per_job[id]),
            canonical_jsonl(&own),
            "job {id}: demuxed stream must reconstruct the job's own trace"
        );
        assert!(
            own.iter().any(|e| matches!(e, Event::CampaignFinished { .. })),
            "job {id}: trace must bracket its campaign"
        );
    }

    // The live SSE feed carried the same parseable lines.
    let sse_lines = sse.join().expect("SSE thread");
    assert!(!sse_lines.is_empty(), "SSE stream must deliver events");
    let sse_events = parse_jsonl(&sse_lines.join("\n")).expect("every SSE data line parses");
    for event in &sse_events {
        if let Event::JobScoped { job, .. } = event {
            assert!(submitted.contains(&job), "SSE carried unknown job id {job:?}");
        }
    }

    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn serve_validates_flags_and_submissions() {
    // Missing --state-dir refuses to boot.
    let out = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args(["serve"])
        .output()
        .expect("spawn vrd-exp serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--state-dir"));

    // Unknown serve flags are rejected, not silently ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args(["serve", "--state-dir", "/tmp/x", "--bogus"])
        .output()
        .expect("spawn vrd-exp serve");
    assert_eq!(out.status.code(), Some(2));

    // A live service rejects malformed submissions with 400.
    let state = scratch_dir("validate");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args([
            "serve",
            "--state-dir",
            state.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--fleet-size",
            "50",
            "--workers",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vrd-exp serve");
    let addr = wait_endpoint(&state);
    let (status, body) = http(&addr, "POST", "/jobs", r#"{"kind": "family"}"#);
    assert_eq!(status, 400, "missing tenant must be a 400: {body}");
    let (status, _) = http(&addr, "POST", "/jobs", r#"{"tenant": "a", "kind": "nope"}"#);
    assert_eq!(status, 400);
    let (status, _) = http(&addr, "POST", "/jobs/job-00000/cancel", "");
    assert_eq!(status, 400, "cancel of an unknown job must fail");
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(child.wait().expect("service exits").success());
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn hostile_request_bodies_are_refused_and_the_service_survives() {
    let state = scratch_dir("hostile");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args([
            "serve",
            "--state-dir",
            state.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--fleet-size",
            "50",
            "--workers",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vrd-exp serve");
    let addr = wait_endpoint(&state);

    // Nesting far past the JSON parser's depth limit: a 400, not a stack
    // overflow that takes the whole service down.
    let (status, body) = http(&addr, "POST", "/jobs", &"[".repeat(200_000));
    assert_eq!(status, 400, "deeply nested body must be a 400: {body}");
    assert!(body.contains("recursion limit"), "{body}");
    assert_eq!(http(&addr, "GET", "/healthz", "").0, 200, "service must keep answering");

    // A declared body over the cap is refused before it is allocated or
    // read; an unparseable length is a plain 400.
    let huge = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 1000000000000\r\n\
         Connection: close\r\n\r\n"
    );
    let (status, body) = http_raw(&addr, &huge);
    assert_eq!(status, 413, "oversized body must be a 413: {body}");
    let bad = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: lots\r\nConnection: close\r\n\r\n"
    );
    assert_eq!(http_raw(&addr, &bad).0, 400);
    assert_eq!(http(&addr, "GET", "/healthz", "").0, 200, "service must keep answering");

    // A job's executor threads are capped: one submission must not make
    // a worker start a thread per module. Refused before it is queued.
    let (status, body) = http(
        &addr,
        "POST",
        "/jobs",
        r#"{"tenant": "mallory", "kind": "foundational", "limit": 50, "threads": 100000}"#,
    );
    assert_eq!(status, 400, "an oversized thread count must be a 400: {body}");
    assert!(body.contains("threads must be at most"), "{body}");
    let (status, body) = http(&addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(!body.contains("mallory"), "the refused job must not be queued: {body}");

    // Request and header lines are capped at 8 KiB: a longer line is a
    // 431 after the cap, including one that never ends, while a header
    // just under the cap is still served.
    let endless = "a".repeat(20_000);
    let (status, body) = http_raw(&addr, &endless);
    assert_eq!(status, 431, "an endless request line must be a 431: {body}");
    let long_target = format!(
        "GET /{} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n",
        "a".repeat(16_000)
    );
    assert_eq!(http_raw(&addr, &long_target).0, 431, "oversized request line");
    let header = |len: usize| {
        format!(
            "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
            "b".repeat(len)
        )
    };
    assert_eq!(http_raw(&addr, &header(16_000)).0, 431, "oversized header line");
    assert_eq!(http_raw(&addr, &header(8_000)).0, 200, "a header under the cap is served");
    assert_eq!(http(&addr, "GET", "/healthz", "").0, 200, "service must keep answering");

    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(child.wait().expect("service exits").success());
    let _ = std::fs::remove_dir_all(&state);
}
