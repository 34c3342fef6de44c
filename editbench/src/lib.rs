//! Closed-loop edit-session benchmark.
//!
//! One user applies one edit at a time and waits for the updated
//! posterior. Each edit is timed, on the process CPU-time clock (see
//! [`session`]), from the new program's source text to the reweighted
//! (and, when triggered, resampled) collection: `ppl::parse`, `depgraph::IncrementalTranslator::from_shared` (diff,
//! impact, plan, compile), then one SMC step on graph-native particles.
//! A run repeats whole sessions of a fixed number of edits, each from a
//! fresh collection, until its time is up; per-edit cost and memory grow
//! with a collection's edit history, so fixing the session length is what
//! makes a run's figures independent of how long it ran.

pub mod affinity;
pub mod procfs;
pub mod session;
pub mod stream;

use std::fmt::Write as _;
use std::time::Instant;

use session::median;
pub use session::{run_session, Layers, Metric, Session};
pub use stream::{EditStream, Spec, Workload};

/// Untraced sessions a run makes at least; the set-up time is their
/// median.
const MIN_SESSIONS: usize = 5;

/// Timed edits a run makes at least, so that at least ten lie beyond
/// the 90th percentile.
const MIN_EDITS: usize = 100;

/// Traced sessions a traced run makes at least.
const MIN_TRACED_SESSIONS: usize = 2;

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// The configuration measured.
    pub spec: Spec,
    /// The untimed warm-up session; only its correctness counts.
    pub warmup: Session,
    /// Sessions timed without tracing.
    pub untraced: Vec<Session>,
    /// Sessions with tracing on (traced runs only).
    pub traced: Vec<Session>,
    /// Per-layer totals of the traced sessions (traced runs only).
    pub layers: Option<Layers>,
    /// Resident-set high-water mark of the process, in MiB.
    pub peak_rss_mb: f64,
}

/// The seed of session `index` of a run seeded with `seed`.
fn session_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
}

/// Runs sessions of `spec` until `seconds` have passed and the minimum
/// session and edit counts are met. A traced run alternates untraced and
/// traced sessions, so both see the same process state. Untraced
/// sessions are pinned to each allowed CPU in turn (see [`affinity`]);
/// traced ones are not, as their pooled replay needs every CPU.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Run {
    let started = Instant::now();
    let cpus = affinity::Cpus::current();
    // An untimed warm-up session first: the process's cold start
    // (interned addresses, compiled programs, fresh heap pages) is paid once
    // per process, not once per session.
    let mut run = Run {
        spec: spec.clone(),
        warmup: run_session(spec, session_seed(seed, 0), None),
        untraced: Vec::new(),
        traced: Vec::new(),
        layers: trace.then(Layers::default),
        peak_rss_mb: 0.0,
    };
    for index in 1.. {
        let session_seed = session_seed(seed, index);
        if trace && index % 2 == 0 {
            let session = run_session(spec, session_seed, run.layers.as_mut());
            run.traced.push(session);
        } else {
            let _pinned = cpus.as_ref().map(|c| c.pin(run.untraced.len()));
            run.untraced.push(run_session(spec, session_seed, None));
        }
        let enough = if trace {
            run.traced.len() >= MIN_TRACED_SESSIONS && run.untraced.len() >= MIN_TRACED_SESSIONS
        } else {
            run.untraced.len() >= MIN_SESSIONS && run.edits() >= MIN_EDITS
        };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.peak_rss_mb = procfs::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    run
}

/// Particle-edits per CPU second over `sessions`' timed edits.
fn particle_edits_per_s(spec: &Spec, sessions: &[Session]) -> f64 {
    let edits: usize = sessions.iter().map(|s| s.edit_ms.len()).sum();
    let ms: f64 = sessions.iter().flat_map(|s| &s.edit_ms).sum();
    (spec.particles * edits) as f64 / (ms / 1e3)
}

impl Run {
    fn sessions(&self) -> impl Iterator<Item = &Session> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    /// Particle-edits attempted.
    pub fn attempted(&self) -> u64 {
        self.sessions().map(|s| s.attempted).sum()
    }

    /// Particle-edits failed, counting every edit of a session that
    /// errored or failed its correctness check.
    pub fn failed(&self) -> u64 {
        self.sessions().map(|s| s.failed).sum()
    }

    /// Failed particle-edits as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Why sessions failed.
    pub fn errors(&self) -> impl Iterator<Item = &str> {
        self.sessions().filter_map(|s| s.error.as_deref())
    }

    /// Timed edits of the untraced sessions.
    pub fn edits(&self) -> usize {
        self.untraced.iter().map(|s| s.edit_ms.len()).sum()
    }

    /// The 90th percentile of the untraced edit times by nearest rank,
    /// with the number of samples above it; `NaN` without edits.
    pub fn p90(&self) -> (f64, usize) {
        let mut sorted: Vec<f64> = self
            .untraced
            .iter()
            .flat_map(|s| s.edit_ms.clone())
            .collect();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return (f64::NAN, 0);
        }
        let rank = (0.9 * sorted.len() as f64).ceil() as usize;
        (sorted[rank - 1], sorted.len() - rank)
    }

    /// The end-to-end metrics, from the untraced sessions.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let edit_ms: Vec<f64> = self
            .untraced
            .iter()
            .flat_map(|s| s.edit_ms.clone())
            .collect();
        let setups: Vec<f64> = self.untraced.iter().map(|s| s.setup_s).collect();
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("edit_ms_p50", median(&edit_ms), "ms"),
            m("edit_ms_p90", self.p90().0, "ms"),
            m(
                "particle_edits_per_s",
                particle_edits_per_s(&self.spec, &self.untraced),
                "1/s",
            ),
            m("setup_s", median(&setups), "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// The per-layer metrics of a traced run, including the tracing
    /// overhead; empty for an untraced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        self.layers.as_ref().map_or_else(Vec::new, |layers| {
            let cpu_ms: f64 = self.untraced.iter().flat_map(|s| &s.edit_ms).sum();
            let wall_ms: f64 = self.untraced.iter().map(|s| s.edit_wall_ms).sum();
            layers.metrics(
                particle_edits_per_s(&self.spec, &self.traced),
                particle_edits_per_s(&self.spec, &self.untraced),
                cpu_ms / wall_ms,
            )
        })
    }

    /// The result line: correctness, particle-edit counts and the
    /// metrics of this run (per-layer when traced, end-to-end otherwise).
    pub fn to_json(&self) -> String {
        let metrics = if self.layers.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed() == 0,
            self.attempted(),
            self.failed()
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable summary: configuration, sample counts, failures
    /// and every metric by name and unit.
    pub fn render(&self) -> String {
        let s = &self.spec;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}: {} sites, {} particles, {} edits/session, resample {:?}, {} hardware threads",
            s.workload.name(),
            s.sites,
            s.particles,
            s.edits,
            s.resample,
            session::pool_threads()
        );
        let _ = writeln!(
            out,
            "  sessions 1 warm-up + {} untraced + {} traced; timed edits {} ({} beyond p90)",
            self.untraced.len(),
            self.traced.len(),
            self.edits(),
            self.p90().1
        );
        let _ = writeln!(
            out,
            "  failed_share {} share ({} of {} particle-edits)",
            self.failed_share(),
            self.failed(),
            self.attempted()
        );
        for error in self.errors() {
            let _ = writeln!(out, "  failure: {error}");
        }
        for m in self.end_to_end().iter().chain(&self.per_layer()) {
            let _ = writeln!(out, "  {:<46} {:>14.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) as `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
