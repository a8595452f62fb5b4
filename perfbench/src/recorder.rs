//! The traced run's recorder: spans and counts at each layer boundary,
//! kept in memory and written out when the run ends.
//!
//! The benchmark opens spans around its own calls into each layer
//! ([`Recorder::span`]); campaign, phase and unit spans come from the
//! `vrd-core::obs` event stream ([`Observer`]). Every span names the
//! span that caused it, so a layer's self time is its duration minus
//! that of its children. Events from one service job share the job id
//! as their scope ([`Recorder::scoped_event`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use vrd_core::obs::{Event, Observer};

/// One timed interval.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name (`exp.in_depth`, `phase.in_depth.select`, ...).
    pub name: String,
    /// Request scope: a service job id, or empty for batch workloads.
    pub scope: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open benchmark spans (the benchmark's own thread only).
    stack: Vec<usize>,
    /// Open campaign span per scope.
    campaigns: BTreeMap<String, usize>,
    /// Open phase span per scope, with its `campaign.phase` label.
    phases: BTreeMap<String, (usize, String)>,
    phase_wall_ns: BTreeMap<String, u64>,
    units: u64,
    unit_busy_ns: u64,
    unit_max_ns: u64,
    unit_sim_ns: f64,
    commit_ns: Vec<u64>,
    counters: BTreeMap<String, f64>,
}

/// In-memory span and counter store; an [`Observer`] for campaign runs.
pub struct Recorder {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), inner: Mutex::new(Inner::default()) }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("recorder lock is never held across a panic")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the
    /// benchmark's currently open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len();
            let parent = inner.stack.last().copied();
            let start_ns = self.ns(Instant::now());
            inner.spans.push(Span {
                id,
                parent,
                name: name.to_owned(),
                scope: String::new(),
                start_ns,
                end_ns: start_ns,
            });
            inner.stack.push(id);
            id
        };
        let out = f();
        let mut inner = self.lock();
        inner.spans[id].end_ns = self.ns(Instant::now());
        inner.stack.pop();
        out
    }

    /// Records a finished span measured elsewhere (client-side timings
    /// of service requests).
    pub fn record(&self, name: &str, scope: &str, start: Instant, end: Instant) {
        let mut inner = self.lock();
        let id = inner.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        inner.spans.push(Span {
            id,
            parent: None,
            name: name.to_owned(),
            scope: scope.to_owned(),
            start_ns,
            end_ns,
        });
    }

    /// Adds `v` to the named counter.
    pub fn add(&self, counter: &str, v: f64) {
        *self.lock().counters.entry(counter.to_owned()).or_default() += v;
    }

    /// The named counter (0 when never added to).
    pub fn counter(&self, counter: &str) -> f64 {
        self.lock().counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        let inner = self.lock();
        inner.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            * 1e-9
    }

    /// Durations in seconds of the spans named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Handles one obs event of the request `scope`.
    pub fn scoped_event(&self, scope: &str, event: &Event) {
        let now = self.ns(Instant::now());
        let mut inner = self.lock();
        match event {
            Event::CampaignStarted { campaign } => {
                let parent = inner.stack.last().copied();
                let id = push(&mut inner, parent, format!("campaign.{campaign}"), scope, now);
                inner.campaigns.insert(scope.to_owned(), id);
            }
            Event::PhaseStarted { campaign, phase, .. } => {
                close_phase(&mut inner, scope, now);
                let parent = inner.campaigns.get(scope).copied();
                let label = format!("{campaign}.{phase}");
                let id = push(&mut inner, parent, format!("phase.{label}"), scope, now);
                inner.phases.insert(scope.to_owned(), (id, label));
            }
            Event::UnitFinished { wall_ns, sim_time_ns, .. } => {
                let parent = inner.phases.get(scope).map(|(id, _)| *id);
                let id =
                    push(&mut inner, parent, "unit".to_owned(), scope, now - (*wall_ns).min(now));
                inner.spans[id].end_ns = now;
                inner.units += 1;
                inner.unit_busy_ns += wall_ns;
                inner.unit_max_ns = inner.unit_max_ns.max(*wall_ns);
                inner.unit_sim_ns += sim_time_ns;
            }
            Event::CheckpointCommitted { latency_ns, .. } => inner.commit_ns.push(*latency_ns),
            Event::CampaignFinished { .. } => {
                close_phase(&mut inner, scope, now);
                if let Some(id) = inner.campaigns.remove(scope) {
                    inner.spans[id].end_ns = now;
                }
            }
            Event::JobScoped { job, event } => {
                drop(inner);
                self.scoped_event(job, event);
            }
            _ => {}
        }
    }

    /// The executor ledger of `reps` traced repetitions, per
    /// repetition; each phase ran on `threads` workers.
    pub fn exec_layers(&self, reps: f64, threads: usize, layers: &mut BTreeMap<&'static str, f64>) {
        let inner = self.lock();
        let busy = inner.unit_busy_ns as f64 * 1e-9;
        let phases = inner.phase_wall_ns.values().sum::<u64>() as f64 * 1e-9;
        layers.insert("exec.units", inner.units as f64 / reps);
        layers.insert("exec.unit_busy_s", busy / reps);
        layers.insert(
            "exec.utilization",
            if phases > 0.0 { busy / (phases * threads as f64) } else { 0.0 },
        );
        layers.insert("exec.critical_unit_s", inner.unit_max_ns as f64 * 1e-9);
        layers.insert("device.sim_test_s", inner.unit_sim_ns * 1e-9 / reps);
        for (label, name) in [
            ("foundational.measure", "exec.phase.foundational.measure.wall_s"),
            ("in_depth.select", "exec.phase.in_depth.select.wall_s"),
            ("in_depth.measure", "exec.phase.in_depth.measure.wall_s"),
            ("discovery.select", "exec.phase.discovery.select.wall_s"),
            ("discovery.discover", "exec.phase.discovery.discover.wall_s"),
        ] {
            let ns = inner.phase_wall_ns.get(label).copied().unwrap_or(0);
            layers.insert(name, ns as f64 * 1e-9 / reps);
        }
    }

    /// Checkpoint commit latencies in ns.
    pub fn commits_ns(&self) -> Vec<f64> {
        self.lock().commit_ns.iter().map(|&n| n as f64).collect()
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.lock().spans {
            writeln!(out, "{}", serde_json::to_string(span).expect("spans serialize"))?;
        }
        out.flush()
    }
}

fn push(
    inner: &mut Inner,
    parent: Option<usize>,
    name: String,
    scope: &str,
    start_ns: u64,
) -> usize {
    let id = inner.spans.len();
    inner.spans.push(Span {
        id,
        parent,
        name,
        scope: scope.to_owned(),
        start_ns,
        end_ns: start_ns,
    });
    id
}

/// Ends the open phase of `scope`: the obs stream marks a phase's end
/// only by the next phase's start or the campaign's end.
fn close_phase(inner: &mut Inner, scope: &str, now: u64) {
    if let Some((id, label)) = inner.phases.remove(scope) {
        inner.spans[id].end_ns = now;
        *inner.phase_wall_ns.entry(label).or_default() += now - inner.spans[id].start_ns;
    }
}

impl Observer for Recorder {
    fn on_event(&self, event: &Event) {
        self.scoped_event("", event);
    }
}
