//! Iterated SMC across a sequence of programs (Section 4.2, "Multiple
//! Steps and resample").
//!
//! "Often, programs are modified in an iterative process … we can run
//! Algorithm 2 repeatedly, once for each new program in the sequence, to
//! iteratively transform the weighted collection of traces from one
//! program to the next."
//!
//! Two runners:
//!
//! - [`run_sequence`] / [`run_sequence_with_policy`] — trace-level
//!   Algorithm 2 as the paper's figures use it: one caller RNG threaded
//!   through every stage, and optional MCMC rejuvenation per stage.
//! - [`run_state_sequence`] — any particle state (flat traces through
//!   [`crate::TraceStateAdapter`], or execution graphs), parameterized by
//!   a [`RunSpec`]: per-stage seeds, inline or pooled translation, an
//!   optional deadline watchdog, resume from a checkpoint, and a
//!   checkpoint observer.

use std::sync::Arc;

use rand::RngCore;

use ppl::{PplError, Trace};

use crate::health::{FailurePolicy, SmcError, StagePolicy, StepReport};
use crate::mcmc::McmcKernel;
use crate::metrics;
use crate::particles::{ParticleCollection, ParticleState};
use crate::smc::{infer_stage, infer_with_policy, SmcConfig};
use crate::translator::{StateTranslator, TraceTranslator};

/// One stage of a program sequence: a translator into the stage's program
/// plus an optional rejuvenation kernel for it.
pub struct Stage<'a> {
    /// Translator from the previous stage's program.
    pub translator: &'a dyn TraceTranslator,
    /// Optional MCMC kernel with the stage posterior invariant.
    pub mcmc: Option<&'a dyn McmcKernel>,
}

impl std::fmt::Debug for Stage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("has_mcmc", &self.mcmc.is_some())
            .finish_non_exhaustive()
    }
}

/// The trajectory of a program-sequence run: the particle collection after
/// every stage, plus per-stage health for degeneracy monitoring.
///
/// Generic over the particle state `S` (default [`Trace`]); graph-native
/// runs carry execution graphs end to end and [`SequenceRun::flatten`]
/// lazily at the API boundary.
#[derive(Debug, Clone)]
pub struct SequenceRun<S = Trace> {
    /// Particle collections after each stage (the input collection is not
    /// included).
    pub collections: Vec<ParticleCollection<S>>,
    /// ESS of the collection produced by each stage (after any resampling
    /// and rejuvenation).
    pub ess_history: Vec<f64>,
    /// Per-stage health reports: post-reweight ESS, dropped/retried
    /// particle counts, and collapse events. On a clean run every report
    /// [`StepReport::is_clean`]s.
    pub reports: Vec<StepReport>,
}

impl<S> SequenceRun<S> {
    /// The final collection.
    ///
    /// # Panics
    ///
    /// Panics if the sequence was empty.
    pub fn last(&self) -> &ParticleCollection<S> {
        self.collections.last().expect("empty sequence run")
    }

    /// Whether every stage completed without drops, retries, or collapse
    /// events.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(StepReport::is_clean)
    }
}

impl<S: ParticleState> SequenceRun<S> {
    /// Flattens every stage's collection to plain traces, preserving
    /// weights, ESS history, and reports.
    ///
    /// # Errors
    ///
    /// Propagates [`ParticleState::to_trace`] failures.
    pub fn flatten(&self) -> Result<SequenceRun, PplError> {
        let collections = self
            .collections
            .iter()
            .map(ParticleCollection::flatten)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SequenceRun {
            collections,
            ess_history: self.ess_history.clone(),
            reports: self.reports.clone(),
        })
    }
}

/// Runs Algorithm 2 once per stage under a [`FailurePolicy`], threading
/// the collection through the sequence. Stage `s` runs as SMC step `s`,
/// so fault plans and retry seeds address stages directly.
///
/// Weight collapse at any stage is handled by
/// [`infer_with_policy`]'s recovery contract: tolerant policies keep the
/// pre-stage collection (flagged in that stage's report) so later stages
/// still have particles to work with.
///
/// # Errors
///
/// Propagates typed errors from [`infer_with_policy`].
pub fn run_sequence_with_policy(
    stages: &[Stage<'_>],
    initial: &ParticleCollection,
    config: &SmcConfig,
    policy: &FailurePolicy,
    rng: &mut dyn RngCore,
) -> Result<SequenceRun, SmcError> {
    let mut collections = Vec::with_capacity(stages.len());
    let mut ess_history = Vec::with_capacity(stages.len());
    let mut reports = Vec::with_capacity(stages.len());
    let mut current = initial.clone();
    for (step, stage) in stages.iter().enumerate() {
        let (next, report) = infer_with_policy(
            stage.translator,
            stage.mcmc,
            &current,
            config,
            policy,
            step,
            rng,
        )?;
        metrics::stage_complete(&report);
        ess_history.push(next.ess());
        reports.push(report);
        collections.push(next.clone());
        current = next;
    }
    Ok(SequenceRun {
        collections,
        ess_history,
        reports,
    })
}

/// Runs Algorithm 2 once per stage, threading the collection through the
/// sequence. This is [`run_sequence_with_policy`] under
/// [`FailurePolicy::FailFast`], with errors flattened to [`PplError`].
///
/// # Errors
///
/// Propagates errors from [`crate::infer`].
pub fn run_sequence(
    stages: &[Stage<'_>],
    initial: &ParticleCollection,
    config: &SmcConfig,
    rng: &mut dyn RngCore,
) -> Result<SequenceRun, PplError> {
    run_sequence_with_policy(stages, initial, config, &FailurePolicy::FailFast, rng)
        .map_err(PplError::from)
}

/// The deterministic translation seed of stage `step` in a
/// [`run_state_sequence`] run (a golden-ratio stride over `base_seed`).
///
/// Public because checkpoint/resume must re-derive the exact same seed
/// for stage `step` of a resumed run as the uninterrupted run used.
pub fn stage_seed(base_seed: u64, step: usize) -> u64 {
    base_seed.wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Salt separating the resampling seed stream from the translation seed
/// stream ([`stage_seed`]); an arbitrary odd constant.
const RESAMPLE_SALT: u64 = 0x5EED_5A17_C0FF_EE00;

/// The deterministic *resampling* seed of stage `step` in a
/// [`run_state_sequence`] run.
///
/// The trace-level [`run_sequence`] threads one caller RNG through every
/// stage's resampling step, which makes a stage's randomness depend on
/// how many draws earlier stages consumed — impossible to reproduce when
/// resuming from a checkpoint without replaying the whole prefix.
/// [`run_state_sequence`] instead seeds each stage's resampler from
/// `base_seed` and the absolute stage index alone, so stage `s` of a
/// resumed run is bit-identical to stage `s` of an uninterrupted one.
pub fn resample_seed(base_seed: u64, step: usize) -> u64 {
    stage_seed(base_seed ^ RESAMPLE_SALT, step)
}

/// The state of a [`run_state_sequence`] run at a stage boundary, handed to
/// the [`StageObserver`] for checkpointing.
///
/// `step` counts *completed* stages — equivalently, the index of the
/// program the particles currently target — so a snapshot with
/// `step == n` resumes by running stages `n..` of the same sequence.
#[derive(Debug)]
pub struct StageSnapshot<'a, S> {
    /// Number of completed stages (absolute, counting pre-resume ones).
    pub step: usize,
    /// The collection after stage `step - 1`.
    pub collection: &'a ParticleCollection<S>,
    /// ESS after every completed stage, from stage 0.
    pub ess_history: &'a [f64],
    /// Health reports of every completed stage, from stage 0.
    pub reports: &'a [StepReport],
}

/// Callback fired at checkpoint boundaries of a [`run_state_sequence`] run.
/// Returning an error aborts the run with [`SmcError::Internal`]-style
/// propagation (the error is returned as-is).
pub type StageObserver<'a, S> = dyn FnMut(&StageSnapshot<'_, S>) -> Result<(), SmcError> + 'a;

/// Everything a [`run_state_sequence`] run is parameterized by besides
/// its stages, initial collection, and observer.
///
/// The defaults are a fresh, fail-fast, translate-only run from step 0
/// with base seed 0, inline on the calling thread, without watchdog or
/// checkpoints.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// Resampling policy and scheme, and the dispatch chunk size.
    pub config: SmcConfig,
    /// Per-particle failure policy.
    pub policy: FailurePolicy,
    /// Checkpoint cadence, watchdog deadline, and retry backoff.
    pub stage_policy: StagePolicy,
    /// The seed all per-stage randomness derives from ([`stage_seed`],
    /// [`resample_seed`]).
    pub base_seed: u64,
    /// Worker-pool width for translation; `0` or `1` runs inline.
    pub threads: usize,
    /// Absolute SMC step of `stages[0]` (non-zero when resuming).
    pub start_step: usize,
    /// ESS history of the stages completed before `start_step`.
    pub prior_ess: Vec<f64>,
    /// Health reports of the stages completed before `start_step`.
    pub prior_reports: Vec<StepReport>,
}

/// The state-sequence runner: Algorithm 2 once per stage, threading the
/// collection through [`StateTranslator`] stages, with per-stage
/// deterministic seeds, optional deadline supervision, and an observer
/// fired at checkpoint boundaries.
///
/// - **Seeds.** `stages[i]` runs as absolute SMC step
///   `step = spec.start_step + i`, with translation seeded by
///   [`stage_seed`]`(base_seed, step)` and resampling by
///   [`resample_seed`]`(base_seed, step)`. Because all per-stage
///   randomness derives from `base_seed` and the absolute index (there is
///   no threaded RNG), results are bit-identical for any `threads` and
///   chunk size, and running stages `k..n` on a checkpointed collection
///   reproduces the uninterrupted run's stages `k..n` bit for bit.
/// - **Dispatch.** `threads <= 1` translates inline; wider runs dispatch
///   chunks on the persistent [`crate::WorkerPool`]. When
///   [`StagePolicy::deadline`] is set, translation is deadline-supervised
///   instead: hung particles become [`crate::FailureKind::Timeout`]
///   failures under `spec.policy`, and a wedged worker pool is replaced
///   instead of blocking the run forever.
/// - **History splicing.** `prior_ess` / `prior_reports` (from the
///   checkpoint) are prepended to the returned run's histories, so
///   observers always see the full sequence history. `collections` only
///   contains post-resume collections.
/// - **Observer.** After stage `i` completes, if its absolute completed
///   count hits a [`StagePolicy::checkpoint_every`] boundary (or it is
///   the final stage), `observer` is called with a [`StageSnapshot`].
///
/// Flat-trace runs adapt each [`TraceTranslator`] stage with
/// [`crate::TraceStateAdapter`].
///
/// # Errors
///
/// Propagates typed errors from each stage's SMC step and any error the
/// observer returns.
pub fn run_state_sequence<S>(
    stages: &[Arc<dyn StateTranslator<S> + Send + Sync>],
    initial: &ParticleCollection<S>,
    spec: &RunSpec,
    mut observer: Option<&mut StageObserver<'_, S>>,
) -> Result<SequenceRun<S>, SmcError>
where
    S: Clone + Send + Sync + 'static,
{
    let mut collections = Vec::with_capacity(stages.len());
    let mut ess_history: Vec<f64> = spec.prior_ess.clone();
    let mut reports: Vec<StepReport> = spec.prior_reports.clone();
    let mut current = initial.clone();
    for (i, translator) in stages.iter().enumerate() {
        let step = spec.start_step + i;
        let (next, report) = infer_stage(translator, &current, spec, step)?;
        ess_history.push(next.ess());
        reports.push(report);
        collections.push(next.clone());
        current = next;
        if let Some(observer) = observer.as_deref_mut() {
            let completed = step + 1;
            let is_last = i + 1 == stages.len();
            let every = spec.stage_policy.checkpoint_every;
            if every > 0 && (completed.is_multiple_of(every) || is_last) {
                let ck_start = metrics::clock();
                observer(&StageSnapshot {
                    step: completed,
                    collection: &current,
                    ess_history: &ess_history,
                    reports: &reports,
                })?;
                metrics::note_checkpoint(ck_start);
            }
        }
        // After the observer, so checkpoint time lands in this stage.
        metrics::stage_complete(reports.last().expect("stage just pushed"));
    }
    Ok(SequenceRun {
        collections,
        ess_history,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::Correspondence;
    use crate::forward::CorrespondenceTranslator;
    use crate::translator::TraceStateAdapter;
    use ppl::dist::Dist;
    use ppl::handlers::simulate;
    use ppl::{addr, Enumeration, Handler, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_with_obs(
        p_obs_true: f64,
    ) -> impl Fn(&mut dyn Handler) -> Result<Value, ppl::PplError> {
        move |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let po = if x.truthy()? {
                p_obs_true
            } else {
                1.0 - p_obs_true
            };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        }
    }

    #[test]
    fn three_stage_sequence_tracks_final_posterior() {
        // P0 (prior-ish) → P1 → P2 with increasingly strong evidence.
        let m0 = model_with_obs(0.5);
        let m1 = model_with_obs(0.7);
        let m2 = model_with_obs(0.9);
        let t01 = CorrespondenceTranslator::new(m0, m1, Correspondence::identity_on(["x"]));
        let m1b = model_with_obs(0.7);
        let t12 = CorrespondenceTranslator::new(m1b, m2, Correspondence::identity_on(["x"]));
        let stages = [
            Stage {
                translator: &t01,
                mcmc: None,
            },
            Stage {
                translator: &t12,
                mcmc: None,
            },
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let m0_again = model_with_obs(0.5);
        let traces: Vec<_> = (0..20_000)
            .map(|_| simulate(&m0_again, &mut rng).unwrap())
            .collect();
        // m0's observation is uninformative, so prior samples ARE
        // posterior samples of m0.
        let initial = ParticleCollection::from_traces(traces);
        let run = run_sequence(&stages, &initial, &SmcConfig::translate_only(), &mut rng).unwrap();
        assert_eq!(run.collections.len(), 2);
        assert_eq!(run.ess_history.len(), 2);
        assert_eq!(run.reports.len(), 2);
        assert!(run.is_clean());
        assert_eq!(run.reports[0].step, 0);
        assert_eq!(run.reports[1].step, 1);
        let estimate = run
            .last()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        let exact = Enumeration::run(&model_with_obs(0.9))
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate} vs exact {exact}"
        );
        // Weights concentrate, so ESS decreases along the sequence.
        assert!(run.ess_history[1] <= run.ess_history[0] * 1.05);
    }

    #[test]
    fn state_sequence_is_thread_count_invariant_and_correct() {
        let t01 = CorrespondenceTranslator::new(
            model_with_obs(0.5),
            model_with_obs(0.7),
            Correspondence::identity_on(["x"]),
        );
        let t12 = CorrespondenceTranslator::new(
            model_with_obs(0.7),
            model_with_obs(0.9),
            Correspondence::identity_on(["x"]),
        );
        let stages: [Arc<dyn StateTranslator<Trace> + Send + Sync>; 2] = [
            Arc::new(TraceStateAdapter(t01)),
            Arc::new(TraceStateAdapter(t12)),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        let m0 = model_with_obs(0.5);
        let traces: Vec<_> = (0..8000)
            .map(|_| simulate(&m0, &mut rng).unwrap())
            .collect();
        let initial = ParticleCollection::from_traces(traces);
        let run_with = |threads: usize| {
            let spec = RunSpec {
                base_seed: 777,
                threads,
                ..RunSpec::default()
            };
            run_state_sequence(&stages, &initial, &spec, None).unwrap()
        };
        let one = run_with(1);
        assert!(one.is_clean());
        assert_eq!(one.reports[1].step, 1);
        let estimate = one
            .last()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        let exact = Enumeration::run(&model_with_obs(0.9))
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!(
            (estimate - exact).abs() < 0.03,
            "estimate {estimate} vs exact {exact}"
        );
        // Bit-identical trajectories for any thread count.
        for threads in [3, 8] {
            let other = run_with(threads);
            for (a, b) in one.collections.iter().zip(other.collections.iter()) {
                assert_eq!(a.len(), b.len());
                for (pa, pb) in a.iter().zip(b.iter()) {
                    assert_eq!(
                        pa.log_weight.log().to_bits(),
                        pb.log_weight.log().to_bits(),
                        "threads={threads}"
                    );
                    assert_eq!(pa.trace, pb.trace);
                }
            }
        }
    }

    #[test]
    fn empty_sequence_is_empty_run() {
        let mut rng = StdRng::seed_from_u64(8);
        let initial = ParticleCollection::new();
        let run = run_sequence(&[], &initial, &SmcConfig::default(), &mut rng).unwrap();
        assert!(run.collections.is_empty());
    }
}
