//! Policy-aware iterated SMC over a sequence of program edits.
//!
//! The "Multiple Steps" regime of Section 4.2 driven by the Section 6
//! runtime: consecutive programs are diffed into
//! [`IncrementalTranslator`]s automatically, and [`run_edit_sequence`]
//! threads graph-native particles through them on `incremental`'s one
//! state-sequence runner — so callers get per-stage
//! [`incremental::StepReport`]s (ESS, quarantined particles, retries,
//! collapse recoveries) for the whole edit history, plus checkpoints,
//! resume, and the deadline watchdog.
//!
//! Flat-trace interop needs no runner of its own: adapt each
//! [`edit_chain`] link with [`incremental::TraceStateAdapter`] and pass
//! the stages to [`incremental::run_state_sequence`].

use std::sync::Arc;

use incremental::{
    run_state_sequence, Checkpoint, CheckpointError, ParticleCollection, RunSpec, SequenceRun,
    SmcError, StageObserver, StateTranslator,
};
use ppl::ast::Program;
use ppl::{LogWeight, PplError};

use crate::record::{program_fingerprint, ExecGraph};
use crate::translator::IncrementalTranslator;

/// Builds the translator chain for an edit history: one
/// [`IncrementalTranslator`] per consecutive program pair. Each program
/// is wrapped in an `Arc` once and shared by both translators that
/// reference it (no per-window deep clones), so consecutive links
/// validate chained graphs by pointer identity.
///
/// Returns an empty chain for fewer than two programs.
pub fn edit_chain(programs: &[Program]) -> Vec<IncrementalTranslator> {
    let shared: Vec<Arc<Program>> = programs.iter().cloned().map(Arc::new).collect();
    edit_chain_shared(&shared)
}

/// [`edit_chain`] over pre-shared program handles.
pub fn edit_chain_shared(programs: &[Arc<Program>]) -> Vec<IncrementalTranslator> {
    programs
        .windows(2)
        .map(|pair| IncrementalTranslator::from_shared(Arc::clone(&pair[0]), Arc::clone(&pair[1])))
        .collect()
}

/// Lifts a flat collection of `program` traces into graph-native
/// particles: each trace is replayed once into an [`ExecGraph`] sharing
/// the given program handle (so the first edit-chain translator validates
/// it by pointer identity), preserving weights.
///
/// This is the one O(M·|t|) conversion a graph-native run pays — at the
/// entry boundary, not once per particle per stage.
///
/// # Errors
///
/// Propagates replay failures (a trace inconsistent with `program`).
pub fn lift_collection(
    program: &Arc<Program>,
    initial: &ParticleCollection,
) -> Result<ParticleCollection<Arc<ExecGraph>>, PplError> {
    let mut lifted = ParticleCollection::new();
    for particle in initial.iter() {
        let graph = ExecGraph::from_trace_shared(program, &particle.trace)?;
        lifted.push(Arc::new(graph), particle.log_weight);
    }
    Ok(lifted)
}

/// Rebuilds the particle collection of a checkpoint against the program
/// sequence it will resume into: validates the checkpoint's step index
/// and program fingerprint, then re-scores every checkpointed choice map
/// under `programs[ck.step]` (the program the particles target).
///
/// Scoring recomputes each trace's densities from the exactly
/// round-tripped choice values with the same pure evaluator the original
/// run used, so the rebuilt collection is bit-identical to the one that
/// was checkpointed — the foundation of the kill-and-resume determinism
/// contract.
///
/// # Errors
///
/// [`CheckpointError::StepOutOfRange`] when the checkpoint indexes past
/// the sequence, [`CheckpointError::FingerprintMismatch`] when the
/// target program was edited since the checkpoint was written, and
/// [`CheckpointError::Corrupt`] when a choice map does not score under
/// the target program.
pub fn resume_collection(
    programs: &[Program],
    ck: &Checkpoint,
) -> Result<ParticleCollection, CheckpointError> {
    if ck.step >= programs.len() {
        return Err(CheckpointError::StepOutOfRange {
            step: ck.step,
            programs: programs.len(),
        });
    }
    let target = &programs[ck.step];
    ck.validate_fingerprint(program_fingerprint(target))?;
    let mut collection = ParticleCollection::new();
    for (j, (choices, log_weight)) in ck.particles.iter().enumerate() {
        let trace =
            ppl::handlers::score(target, choices).map_err(|e| CheckpointError::Corrupt {
                reason: format!("particle {j} does not score under the checkpointed program: {e}"),
            })?;
        collection.push(trace, LogWeight::from_log(*log_weight));
    }
    Ok(collection)
}

/// Runs Algorithm 2 across the edit history `programs[0] → ... →
/// programs[n]` graph-native: consecutive programs are diffed into
/// [`IncrementalTranslator`]s ([`edit_chain_shared`]), `initial` is
/// lifted into execution graphs once ([`lift_collection`]), and the
/// *graphs* are threaded through every stage by
/// [`incremental::run_state_sequence`] — each stage propagates its edit
/// directly on the previous stage's graph, never flattening to a trace
/// in between. Flatten the returned run lazily with
/// [`SequenceRun::flatten`](incremental::SequenceRun::flatten) at the
/// API boundary.
///
/// `initial` must hold posterior traces of `programs[spec.start_step]`
/// (for a fresh run `start_step == 0`; for a resume, the collection
/// rebuilt by [`resume_collection`]). Stage `i` of the remaining chain
/// runs as absolute SMC step `start_step + i`, with all per-stage
/// randomness derived from `spec.base_seed` and the absolute index
/// ([`incremental::stage_seed`] / [`incremental::resample_seed`]) — so
/// results are bit-identical for any thread count and chunk size, and a
/// resumed run continues bit-identically to an uninterrupted one.
///
/// `observer` fires at [`incremental::StagePolicy::checkpoint_every`]
/// boundaries with the graph-native collection; checkpoint writers
/// flatten it via [`Checkpoint::from_snapshot`].
///
/// # Errors
///
/// Lift failures surface as [`SmcError::Eval`]; stage errors as in
/// [`incremental::run_state_sequence`], plus any error the observer
/// returns.
pub fn run_edit_sequence(
    programs: &[Program],
    initial: &ParticleCollection,
    spec: &RunSpec,
    observer: Option<&mut StageObserver<'_, Arc<ExecGraph>>>,
) -> Result<SequenceRun<Arc<ExecGraph>>, SmcError> {
    let remaining: Vec<Arc<Program>> = programs
        .iter()
        .skip(spec.start_step)
        .cloned()
        .map(Arc::new)
        .collect();
    let stages: Vec<Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>> =
        edit_chain_shared(&remaining)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>)
            .collect();
    let lifted = match remaining.first() {
        Some(target) => lift_collection(target, initial).map_err(SmcError::Eval)?,
        None => ParticleCollection::new(),
    };
    run_state_sequence(&stages, &lifted, spec, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{
        FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator, SmcConfig, Stage,
    };
    use ppl::handlers::simulate;
    use ppl::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn programs() -> Vec<Program> {
        // An evidence-strengthening edit history over one latent.
        [("0.5", "0.5"), ("0.7", "0.3"), ("0.9", "0.1")]
            .iter()
            .map(|(hi, lo)| {
                parse(&format!(
                    "x = flip(0.5) @ x; observe(flip(x ? {hi} : {lo}) @ o == 1); return x;"
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn edit_chain_links_consecutive_programs() {
        let ps = programs();
        let chain = edit_chain(&ps);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].source_program(), &ps[0]);
        assert_eq!(chain[0].target_program(), &ps[1]);
        assert_eq!(chain[1].source_program(), &ps[1]);
        assert_eq!(chain[1].target_program(), &ps[2]);
        assert!(edit_chain(&ps[..1]).is_empty());
        assert!(edit_chain(&[]).is_empty());
    }

    fn initial(ps: &[Program], particles: usize, seed: u64) -> ParticleCollection {
        // The first program's observation is uninformative (flip(0.5)),
        // so prior simulations are posterior samples of it.
        let mut rng = StdRng::seed_from_u64(seed);
        let traces: Vec<_> = (0..particles)
            .map(|_| simulate(&ps[0], &mut rng).unwrap())
            .collect();
        ParticleCollection::from_traces(traces)
    }

    #[test]
    fn clean_edit_sequence_reports_are_clean() {
        let ps = programs();
        let initial = initial(&ps, 4_000, 21);
        let spec = RunSpec {
            base_seed: 21,
            ..RunSpec::default()
        };
        let run = run_edit_sequence(&ps, &initial, &spec, None)
            .unwrap()
            .flatten()
            .unwrap();
        assert_eq!(run.reports.len(), 2);
        assert!(run.is_clean());
        let estimate = run
            .last()
            .probability(|t| t.value(&ppl::addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        // Exact posterior of the final program: 0.9 / (0.9 + 0.1) = 0.9.
        assert!((estimate - 0.9).abs() < 0.03, "estimate {estimate}");
    }

    #[test]
    fn faults_in_one_stage_are_quarantined_and_reported() {
        let ps = programs();
        let chain = edit_chain(&ps);
        // Inject failures into stage 1 only, through the same
        // TranslateCtx plumbing the runtime uses.
        let plan = FaultPlan::new()
            .with(FaultSpec::always(1, 5, FaultKind::Error))
            .with(FaultSpec::always(1, 9, FaultKind::NanWeight));
        let faulty: Vec<_> = chain
            .into_iter()
            .map(|t| FaultyTranslator::new(t, plan.clone()))
            .collect();
        let stages: Vec<Stage<'_>> = faulty
            .iter()
            .map(|translator| Stage {
                translator,
                mcmc: None,
            })
            .collect();
        let initial = initial(&ps, 200, 22);
        let mut rng = StdRng::seed_from_u64(22);
        let run = incremental::run_sequence_with_policy(
            &stages,
            &initial,
            &SmcConfig::translate_only(),
            &FailurePolicy::DropAndRenormalize { max_loss: 0.1 },
            &mut rng,
        )
        .unwrap();
        assert!(run.reports[0].is_clean());
        assert_eq!(run.reports[1].dropped, 2);
        assert_eq!(run.collections[0].len(), 200);
        assert_eq!(run.collections[1].len(), 198);
        let failed: Vec<_> = run.reports[1].failures.iter().map(|f| f.particle).collect();
        assert_eq!(failed, vec![5, 9]);
    }
}
