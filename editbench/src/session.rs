//! One closed-loop edit session: set up a fresh collection, then apply
//! the stream's edits one at a time, each timed from the new program's
//! source text to the reweighted (and, when triggered, resampled)
//! collection.
//!
//! Sessions run the SMC step inline: on a 2-CPU host shared with other
//! work, a step on the worker pool waits for both CPUs, and its wall
//! time moved by a quarter between identical runs.
//!
//! Edits and set-up are timed on the process CPU-time clock. The step is
//! inline and blocks on nothing, so on an idle machine the CPU time of an
//! edit is its latency; on a 2-vCPU virtual machine shared with other
//! guests, wall time also counts the time the host runs them, which
//! moved whole runs by a fifth. CPU time counts every thread, so work moved off the calling
//! thread still shows. `process.cpu_per_wall` in the traced run gives
//! the ratio of the two clocks.
//!
//! A traced session runs the same calls with spans around each public
//! call, the `incremental::metrics` recorder installed for the splits
//! inside one call, and extra untimed calls for the layers that have no
//! call of their own on the edit path: diff and impact, a replay of the
//! edits on the worker pool, and the re-execution baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use depgraph::{diff_programs, impact_of_edit, lift_collection, ExecGraph, IncrementalTranslator};
use incremental::metrics;
use incremental::{
    infer_states_parallel_with_policy, infer_states_with_policy, infer_with_policy, stage_seed,
    Correspondence, CorrespondenceTranslator, FailurePolicy, MetricsRecorder, ParticleCollection,
    SmcConfig, StateTranslator, TranslateCtx, WorkerPool,
};
use ppl::handlers::simulate;
use ppl::{parse, LogWeight, PplError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::procfs::{cpu_time_s, ProcStat};
use crate::stream::{EditStream, Spec};

type Graphs = ParticleCollection<Arc<ExecGraph>>;

const FAIL_FAST: FailurePolicy = FailurePolicy::FailFast;

/// Worker threads of the pooled replay: one per hardware thread, as the
/// global worker pool has.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// CPU seconds from generating the inputs to the first edit.
    pub setup_s: f64,
    /// CPU time of each completed edit, in milliseconds.
    pub edit_ms: Vec<f64>,
    /// Wall time of the completed edits together, in milliseconds.
    pub edit_wall_ms: f64,
    /// Particle-edits attempted (particles × edits).
    pub attempted: u64,
    /// Particle-edits failed: all of the session's when it errored or
    /// failed its correctness check.
    pub failed: u64,
    /// Why the session failed.
    pub error: Option<String>,
}

/// Runs one session of `spec` on the inputs generated from `seed`,
/// adding per-layer figures to `trace` when given.
pub fn run_session(spec: &Spec, seed: u64, trace: Option<&mut Layers>) -> Session {
    let mut session = Session {
        attempted: (spec.particles * spec.edits) as u64,
        ..Session::default()
    };
    if let Err(e) = drive(spec, seed, trace, &mut session) {
        session.failed = session.attempted;
        session.error = Some(e);
    }
    session
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn drive(
    spec: &Spec,
    seed: u64,
    mut trace: Option<&mut Layers>,
    out: &mut Session,
) -> Result<(), String> {
    let recorder = Arc::new(MetricsRecorder::new());
    let guard = trace
        .is_some()
        .then(|| metrics::install(Arc::clone(&recorder) as _));

    // Set-up: everything before the first timed edit.
    let started = cpu_time_s();
    let stream = EditStream::generate(spec, seed);
    let mut program = Arc::new(parse(&stream.sources[0]).map_err(err)?);
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let traces = (0..spec.particles)
        .map(|_| simulate(&*program, &mut rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let initial = ParticleCollection::from_traces(traces);
    let simulate_ms = ms_since(t);
    let t = Instant::now();
    let mut current = lift_collection(&program, &initial).map_err(err)?;
    let lift_ms = ms_since(t);
    out.setup_s = cpu_time_s() - started;

    let expected_sum = stream.expected_weight_sum(&initial)?;
    // Only the replays of a traced session need the flat traces after
    // set-up.
    let initial = trace.is_some().then_some(initial);

    let smc = SmcConfig {
        resample: spec.resample,
        ..SmcConfig::default()
    };
    let proc_before = ProcStat::read();
    let misses_before = metrics::eval_telemetry().compile_cache_misses;
    let mut last_ess = f64::INFINITY;
    for (step, source) in stream.sources[1..].iter().enumerate() {
        let start = Instant::now();
        let start_cpu = cpu_time_s();
        let (translator, report) = match trace.as_deref_mut() {
            None => {
                let q = Arc::new(parse(source).map_err(err)?);
                let translator = IncrementalTranslator::from_shared(Arc::clone(&program), q);
                let (next, report) = infer_states_with_policy(
                    &translator,
                    &current,
                    &smc,
                    &FAIL_FAST,
                    step,
                    &mut rng,
                )
                .map_err(err)?;
                current = next;
                (translator, report)
            }
            Some(layers) => {
                let t = Instant::now();
                let q = Arc::new(parse(source).map_err(err)?);
                layers.parse_ms += ms_since(t);
                let t = Instant::now();
                let translator = IncrementalTranslator::from_shared(Arc::clone(&program), q);
                layers.plan_ms += ms_since(t);
                let spanned = Spanned {
                    inner: &translator,
                    spans: &layers.propagate,
                };
                let t = Instant::now();
                let (next, report) =
                    infer_states_with_policy(&spanned, &current, &smc, &FAIL_FAST, step, &mut rng)
                        .map_err(err)?;
                layers.step_ms += ms_since(t);
                current = next;
                (translator, report)
            }
        };
        out.edit_ms.push((cpu_time_s() - start_cpu) * 1e3);
        out.edit_wall_ms += ms_since(start);
        last_ess = report.ess;
        if let Some(layers) = trace.as_deref_mut() {
            metrics::stage_complete(&report);
            layers.diff_and_impact(&translator);
        }
        program = Arc::clone(translator.target_program_shared());
    }

    if let Some(layers) = trace.as_deref_mut() {
        layers.end_session(
            &recorder,
            &current,
            ProcStat::read().since(&proc_before),
            metrics::eval_telemetry()
                .compile_cache_misses
                .saturating_sub(misses_before),
            lift_ms,
            simulate_ms,
        );
    }
    let checked = stream.check(&current, expected_sum, last_ess.min(current.ess()));
    drop(current);
    if let (Some(layers), Some(initial)) = (trace, initial) {
        pooled_replay(spec, &stream, &initial, seed, layers)?;
        drop(guard);
        reexec(spec, &stream, initial, seed, layers)?;
    }
    checked
}

/// Replays the stream's edits with the SMC step on the global worker
/// pool, after [`Layers::end_session`] has read the recorder: the pool's
/// dispatch, utilisation and speed-up over the inline step.
fn pooled_replay(
    spec: &Spec,
    stream: &EditStream,
    initial: &ParticleCollection,
    seed: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let smc = SmcConfig {
        resample: spec.resample,
        ..SmcConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Arc::new(parse(&stream.sources[0]).map_err(err)?);
    let mut current = lift_collection(&program, initial).map_err(err)?;
    WorkerPool::global();
    for (step, source) in stream.sources[1..].iter().enumerate() {
        let q = Arc::new(parse(source).map_err(err)?);
        let translator = IncrementalTranslator::from_shared(program, Arc::clone(&q));
        let cpu = ProcStat::read();
        let t = Instant::now();
        let (next, _) = infer_states_parallel_with_policy(
            &translator,
            &current,
            &smc,
            &FAIL_FAST,
            step,
            stage_seed(seed, step),
            pool_threads(),
            &mut rng,
        )
        .map_err(err)?;
        layers.pool_ms += ms_since(t);
        layers.pool_cpu_s += ProcStat::read().since(&cpu).cpu_s();
        layers.pool_edits += 1;
        current = next;
        program = q;
    }
    let pool = metrics::pool_telemetry();
    layers.pool_tasks += pool.tasks;
    layers.queue_hwm = layers.queue_hwm.max(pool.queue_depth_hwm);
    Ok(())
}

/// Replays the leading edits of the stream through the Section 5
/// correspondence translator, which re-executes the whole program per
/// particle: the baseline incremental translation has to beat.
fn reexec(
    spec: &Spec,
    stream: &EditStream,
    initial: ParticleCollection,
    seed: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let smc = SmcConfig {
        resample: spec.resample,
        ..SmcConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = parse(&stream.sources[0]).map_err(err)?;
    let mut flat = initial;
    for (step, source) in stream.sources[1..]
        .iter()
        .take(spec.reexec_edits)
        .enumerate()
    {
        let q = parse(source).map_err(err)?;
        let labels = stream.latent_labels(step + 1);
        let correspondence = Correspondence::identity_on(labels.iter().map(String::as_str));
        let translator = CorrespondenceTranslator::new(p, q.clone(), correspondence);
        let t = Instant::now();
        let (next, _) =
            infer_with_policy(&translator, None, &flat, &smc, &FAIL_FAST, step, &mut rng)
                .map_err(err)?;
        layers.reexec_ms += ms_since(t);
        layers.reexec_edits += 1;
        flat = next;
        p = q;
    }
    Ok(())
}

/// Span and `VisitStats` totals of every per-particle `translate_graph`
/// call; atomics because `StateTranslator` methods take `&self`.
#[derive(Debug, Default)]
struct PropagateSpans {
    ns: AtomicU64,
    calls: AtomicU64,
    visited: AtomicU64,
    skipped: AtomicU64,
    static_skips: AtomicU64,
    reused: AtomicU64,
    fresh: AtomicU64,
}

/// The incremental translator with a span around each per-particle
/// `translate_graph` call; its results are those of
/// [`IncrementalTranslator`]'s own graph-native implementation.
struct Spanned<'a> {
    inner: &'a IncrementalTranslator,
    spans: &'a PropagateSpans,
}

impl StateTranslator<Arc<ExecGraph>> for Spanned<'_> {
    fn translate_state(
        &self,
        state: &Arc<ExecGraph>,
        _ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Arc<ExecGraph>, LogWeight), PplError> {
        let t = Instant::now();
        let result = self.inner.translate_graph(state, rng)?;
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let s = &self.spans;
        let add = |c: &AtomicU64, n: usize| c.fetch_add(n as u64, Ordering::Relaxed);
        s.ns.fetch_add(ns, Ordering::Relaxed);
        add(&s.calls, 1);
        add(&s.visited, result.stats.visited);
        add(&s.skipped, result.stats.skipped);
        add(&s.static_skips, result.stats.static_skips);
        add(&s.reused, result.stats.choices_reused);
        add(&s.fresh, result.stats.choices_fresh);
        Ok((Arc::new(result.graph), result.log_weight))
    }
}

/// One per-layer figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Per-layer totals accumulated over the traced sessions of a run. Spans
/// are wall time, as the pool's utilisation and speed-up need; only the
/// sessions' edits and set-up are timed on the CPU-time clock.
#[derive(Debug, Default)]
pub struct Layers {
    edits: u64,
    parse_ms: f64,
    diff_ms: f64,
    impact_ms: f64,
    slice_stmts: u64,
    plan_ms: f64,
    compile_misses: u64,
    propagate: PropagateSpans,
    segments: u64,
    records: u64,
    graphs: u64,
    arena_live: Vec<f64>,
    lift_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    translate_ms: f64,
    resample_ms: f64,
    resampled: u64,
    ess: Vec<f64>,
    step_ms: f64,
    pool_ms: f64,
    pool_cpu_s: f64,
    pool_edits: u64,
    pool_tasks: u64,
    queue_hwm: u64,
    reexec_ms: f64,
    reexec_edits: u64,
    sys_ticks: u64,
    cpu_ticks: u64,
    minflt: u64,
}

impl Layers {
    /// Times the diff and impact analysis of an edit, which
    /// `IncrementalTranslator::from_shared` runs inside one call.
    fn diff_and_impact(&mut self, translator: &IncrementalTranslator) {
        let (p, q) = (translator.source_program(), translator.target_program());
        let t = Instant::now();
        let edit = diff_programs(p, q);
        self.diff_ms += ms_since(t);
        let t = Instant::now();
        let (_, impact) = impact_of_edit(q, p, &edit);
        self.impact_ms += ms_since(t);
        self.slice_stmts += impact.impacted.len() as u64;
        self.edits += 1;
    }

    fn end_session(
        &mut self,
        recorder: &MetricsRecorder,
        last: &Graphs,
        proc: ProcStat,
        compile_misses: u64,
        lift_ms: f64,
        simulate_ms: f64,
    ) {
        self.lift_ms.push(lift_ms);
        self.simulate_ms.push(simulate_ms);
        self.compile_misses += compile_misses;
        self.sys_ticks += proc.stime;
        self.cpu_ticks += proc.utime + proc.stime;
        self.minflt += proc.minflt;
        for particle in last.iter() {
            self.segments += particle.trace.store().segments() as u64;
            self.records += particle.trace.store().len() as u64;
            self.graphs += 1;
        }
        self.arena_live
            .push(metrics::arena_telemetry().occupancy as f64);
        let report = recorder.report("editbench");
        for stage in &report.stages {
            self.translate_ms += stage.translate_ms;
            self.resample_ms += stage.resample_ms;
            self.resampled += u64::from(stage.resampled);
            self.ess.push(stage.ess);
        }
    }

    /// Every per-layer metric. `traced_pes` and `untraced_pes` are the
    /// particle-edit throughputs of the run's traced and untraced
    /// sessions; their ratio is the tracing overhead. `cpu_per_wall` is
    /// the CPU time of the untraced edits over their wall time.
    pub fn metrics(&self, traced_pes: f64, untraced_pes: f64, cpu_per_wall: f64) -> Vec<Metric> {
        let per = |x: f64, n: u64| x / n.max(1) as f64;
        let edit = |x: f64| per(x, self.edits);
        let pool = |x: f64| per(x, self.pool_edits);
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let spans = &self.propagate;
        let particle = |c: &AtomicU64| per(load(c) as f64, load(&spans.calls));
        let graph = |x: u64| per(x as f64, self.graphs);
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("ppl.parse.ms_per_edit", edit(self.parse_ms), "ms"),
            m("depgraph.diff.ms_per_edit", edit(self.diff_ms), "ms"),
            m("depgraph.impact.ms_per_edit", edit(self.impact_ms), "ms"),
            m(
                "depgraph.impact.slice_stmts",
                edit(self.slice_stmts as f64),
                "stmts",
            ),
            m("depgraph.plan.ms_per_edit", edit(self.plan_ms), "ms"),
            m(
                "ppl.compile.cache_misses",
                edit(self.compile_misses as f64),
                "1/edit",
            ),
            m(
                "depgraph.propagate.us_per_particle",
                particle(&spans.ns) / 1e3,
                "us",
            ),
            m(
                "depgraph.propagate.visited_per_particle",
                particle(&spans.visited),
                "count",
            ),
            m(
                "depgraph.propagate.skipped_per_particle",
                particle(&spans.skipped),
                "count",
            ),
            m(
                "depgraph.propagate.static_skips_per_particle",
                particle(&spans.static_skips),
                "count",
            ),
            m(
                "depgraph.propagate.reused_per_particle",
                particle(&spans.reused),
                "count",
            ),
            m(
                "depgraph.propagate.fresh_per_particle",
                particle(&spans.fresh),
                "count",
            ),
            m(
                "depgraph.record.segments_per_graph",
                graph(self.segments),
                "count",
            ),
            m(
                "depgraph.record.records_per_graph",
                graph(self.records),
                "count",
            ),
            m(
                "depgraph.record.arena_live",
                median(&self.arena_live),
                "nodes",
            ),
            m("depgraph.lift.ms", median(&self.lift_ms), "ms"),
            m("ppl.interp.simulate_ms", median(&self.simulate_ms), "ms"),
            m(
                "incremental.smc.translate_ms_per_edit",
                edit(self.translate_ms),
                "ms",
            ),
            m(
                "incremental.resample.ms_per_edit",
                edit(self.resample_ms),
                "ms",
            ),
            m(
                "incremental.resample.rate",
                edit(self.resampled as f64),
                "share",
            ),
            m("incremental.smc.ess_median", median(&self.ess), "particles"),
            m(
                "incremental.pool.cpu_util",
                self.pool_cpu_s * 1e3 / (self.pool_ms * pool_threads() as f64),
                "share",
            ),
            m(
                "incremental.pool.tasks_per_edit",
                pool(self.pool_tasks as f64),
                "count",
            ),
            m("incremental.pool.queue_hwm", self.queue_hwm as f64, "count"),
            m(
                "incremental.pool.speedup",
                edit(self.step_ms) / pool(self.pool_ms),
                "x",
            ),
            m(
                "incremental.forward.reexec_ms_per_edit",
                per(self.reexec_ms, self.reexec_edits),
                "ms",
            ),
            m(
                "process.sys_cpu_share",
                per(self.sys_ticks as f64, self.cpu_ticks),
                "share",
            ),
            m(
                "process.minor_faults_per_edit",
                edit(self.minflt as f64),
                "count",
            ),
            m("process.cpu_per_wall", cpu_per_wall, "share"),
            m("trace.particle_edits_per_s", traced_pes, "1/s"),
            m(
                "trace.overhead_share",
                1.0 - traced_pes / untraced_pes,
                "share",
            ),
        ]
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count); 0 for none.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}
