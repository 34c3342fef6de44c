//! The runner-collapse differential test: every way of running an edit
//! history through [`run_state_sequence`] — inline, pooled at any thread
//! count and chunk size, under the deadline watchdog, and with flat-trace
//! stages instead of graph-native ones — must produce bitwise-identical
//! weights, traces, ESS histories and reports.
//!
//! The edit histories are random programs whose every edit draws a fresh
//! choice per particle (so the per-stage translation seeds matter), runs
//! resample when the ESS falls below half the collection (so the
//! per-stage resampling seeds matter), and a fault plan injects errors,
//! panics and NaN weights that are quarantined or retried.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    assert_bit_identical, flat_stages_with, graph_stages_with, grown_program, program_strategy,
};
use depgraph::lift_collection;
use incremental::{
    run_state_sequence, FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator,
    ParticleCollection, ResamplePolicy, RunSpec, SequenceRun, SmcConfig, StagePolicy,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 24;
const STAGES: usize = 3;

/// The failure policies under test, each with a fault plan it can
/// absorb: none under fail-fast, permanent faults quarantined, transient
/// ones retried.
fn policies() -> [(FailurePolicy, FaultPlan); 3] {
    [
        (FailurePolicy::FailFast, FaultPlan::new()),
        (
            FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
            FaultPlan::new()
                .with(FaultSpec::always(0, 3, FaultKind::Error))
                .with(FaultSpec::always(1, 11, FaultKind::Panic))
                .with(FaultSpec::always(2, 5, FaultKind::NanWeight)),
        ),
        (
            FailurePolicy::Retry {
                max_attempts: 3,
                seed: 31,
            },
            FaultPlan::new()
                .with(FaultSpec::once(0, 7, FaultKind::Panic))
                .with(FaultSpec::once(2, 0, FaultKind::Error)),
        ),
    ]
}

/// Runs the edit history graph-native under `spec`, flattened.
fn graph_run(
    shared: &[Arc<Program>],
    initial: &ParticleCollection,
    plan: &FaultPlan,
    spec: &RunSpec,
) -> SequenceRun {
    let stages = graph_stages_with(shared, |t| FaultyTranslator::new(t, plan.clone()));
    let lifted = lift_collection(&shared[0], initial).unwrap();
    run_state_sequence(&stages, &lifted, spec, None)
        .unwrap()
        .flatten()
        .unwrap()
}

/// Runs the edit history on flat traces under `spec`.
fn flat_run(
    programs: &[Program],
    initial: &ParticleCollection,
    plan: &FaultPlan,
    spec: &RunSpec,
) -> SequenceRun {
    let stages = flat_stages_with(programs, |t| FaultyTranslator::new(t, plan.clone()));
    run_state_sequence(&stages, initial, spec, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_dispatch_and_representation_agrees_bitwise(
        src in program_strategy(),
        delta in 1u32..23,
        seed in 0u64..1_000,
    ) {
        let programs: Vec<Program> = (0..=STAGES)
            .map(|k| parse(&grown_program(&src, k, delta)).unwrap())
            .collect();
        let shared: Vec<Arc<Program>> = programs.iter().cloned().map(Arc::new).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let traces: Vec<_> = (0..PARTICLES)
            .map(|_| simulate(&programs[0], &mut rng).unwrap())
            .collect();
        let initial = ParticleCollection::from_traces(traces);

        let mut resampled = false;
        for (policy, plan) in policies() {
            let spec = |threads: usize, chunk: Option<usize>| RunSpec {
                config: SmcConfig {
                    resample: ResamplePolicy::EssBelow(0.5),
                    ..SmcConfig::translate_only()
                }
                .with_chunk_size(chunk),
                policy,
                base_seed: seed,
                threads,
                ..RunSpec::default()
            };
            let reference = graph_run(&shared, &initial, &plan, &spec(1, None));
            let faulted = reference.reports.iter().any(|r| r.dropped + r.recovered > 0);
            prop_assert!(
                faulted == (policy != FailurePolicy::FailFast),
                "{policy:?}: the fault plan must fire exactly when one is set"
            );
            resampled |= reference.reports.iter().any(|r| r.resampled);
            for threads in [2, 3, 8] {
                for chunk in [None, Some(1), Some(7)] {
                    let pooled = graph_run(&shared, &initial, &plan, &spec(threads, chunk));
                    assert_bit_identical(
                        &reference,
                        &pooled,
                        &format!("{policy:?} threads={threads} chunk={chunk:?}"),
                    );
                }
            }
            for chunk in [None, Some(7)] {
                let watched = RunSpec {
                    stage_policy: StagePolicy::default().with_deadline(Duration::from_secs(60)),
                    ..spec(3, chunk)
                };
                let run = graph_run(&shared, &initial, &plan, &watched);
                assert_bit_identical(&reference, &run, &format!("{policy:?} watchdog chunk={chunk:?}"));
            }
            for threads in [1, 3] {
                let flat = flat_run(&programs, &initial, &plan, &spec(threads, None));
                assert_bit_identical(&reference, &flat, &format!("{policy:?} flat threads={threads}"));
            }
        }
        prop_assert!(resampled, "the fresh-choice history must trigger resampling");
    }
}
