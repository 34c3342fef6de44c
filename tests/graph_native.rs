//! Differential tests for graph-native particle SMC.
//!
//! The graph-native edit-sequence runner ([`run_edit_sequence`]) must be
//! *bit-identical* to flat-trace interop (the same edit chain adapted to
//! plain traces and driven by [`run_state_sequence`]) whenever the edits
//! reuse every random choice: the representation (traces vs. persistent
//! execution graphs) and the threading (inline vs. worker pool) are
//! implementation details that may never change the weights. These tests
//! pin that contract down across failure policies, resampling schemes,
//! thread counts, and fault injection with quarantine and retry.

mod common;

use std::sync::Arc;

use common::{assert_bit_identical, flat_stages, flat_stages_with, graph_stages_with};
use depgraph::{lift_collection, run_edit_sequence};
use incremental::{
    run_state_sequence, FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator,
    ParticleCollection, ResamplePolicy, ResampleScheme, RunSpec, SequenceRun, SmcConfig,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 300;

/// A loop-structured edit history: whole-chain observation-strength
/// edits over a small latent chain, so translation exercises indexed
/// (per-iteration) addresses. Stage 0 is uninformative, so prior
/// simulations are posterior samples of it.
fn programs() -> Vec<Program> {
    [0.5_f64, 0.6, 0.8, 0.9]
        .iter()
        .map(|hi| {
            let lo = 1.0 - hi;
            parse(&format!(
                "n = 4; prev = 1;\n\
                 for i in [0..n) {{\n\
                   x = flip(prev ? 0.7 : 0.3) @ x;\n\
                   observe(flip(x ? {hi} : {lo}) @ o == 1);\n\
                   prev = x;\n\
                 }}\n\
                 return prev;"
            ))
            .expect("chain program parses")
        })
        .collect()
}

fn initial(ps: &[Program]) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(11);
    let traces: Vec<_> = (0..PARTICLES)
        .map(|_| simulate(&ps[0], &mut rng).expect("prior simulation"))
        .collect();
    ParticleCollection::from_traces(traces)
}

/// Runs the edit history both ways under `spec`: flat-trace interop
/// and graph-native (flattened at the end).
fn flat_and_graph(ps: &[Program], init: &ParticleCollection, spec: &RunSpec) -> [SequenceRun; 2] {
    let flat = run_state_sequence(&flat_stages(ps), init, spec, None).unwrap();
    let graph = run_edit_sequence(ps, init, spec, None)
        .unwrap()
        .flatten()
        .unwrap();
    [flat, graph]
}

/// Runs `plan`-injected faults through both representations under
/// `policy`.
fn faulty_flat_and_graph(
    ps: &[Program],
    init: &ParticleCollection,
    plan: &FaultPlan,
    spec: &RunSpec,
) -> [SequenceRun; 2] {
    let flat_stages = flat_stages_with(ps, |t| FaultyTranslator::new(t, plan.clone()));
    let flat = run_state_sequence(&flat_stages, init, spec, None).unwrap();
    let shared: Vec<Arc<Program>> = ps.iter().cloned().map(Arc::new).collect();
    let graph_stages = graph_stages_with(&shared, |t| FaultyTranslator::new(t, plan.clone()));
    let lifted = lift_collection(&shared[0], init).unwrap();
    let graph = run_state_sequence(&graph_stages, &lifted, spec, None)
        .unwrap()
        .flatten()
        .unwrap();
    [flat, graph]
}

#[test]
fn graph_native_matches_flat_across_failure_policies() {
    let ps = programs();
    let init = initial(&ps);
    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::DropAndRenormalize { max_loss: 1.0 },
        FailurePolicy::Retry {
            max_attempts: 3,
            seed: 5,
        },
    ] {
        let spec = RunSpec {
            policy,
            base_seed: 41,
            ..RunSpec::default()
        };
        let [flat, graph] = flat_and_graph(&ps, &init, &spec);
        assert_bit_identical(&flat, &graph, &format!("{policy:?}"));
    }
}

#[test]
fn graph_native_matches_flat_across_resampling_schemes() {
    let ps = programs();
    let init = initial(&ps);
    for scheme in [
        ResampleScheme::Multinomial,
        ResampleScheme::Systematic,
        ResampleScheme::Stratified,
        ResampleScheme::Residual,
    ] {
        let spec = RunSpec {
            config: SmcConfig {
                resample: ResamplePolicy::Always,
                scheme,
                ..SmcConfig::translate_only()
            },
            base_seed: 43,
            ..RunSpec::default()
        };
        let [flat, graph] = flat_and_graph(&ps, &init, &spec);
        assert!(flat.reports.iter().all(|r| r.resampled));
        assert_bit_identical(&flat, &graph, &format!("{scheme:?}"));
    }
}

#[test]
fn pooled_runs_are_thread_count_invariant() {
    let ps = programs();
    let init = initial(&ps);
    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::Retry {
            max_attempts: 2,
            seed: 7,
        },
    ] {
        let run_with = |threads: usize| {
            let spec = RunSpec {
                policy,
                base_seed: 909,
                threads,
                ..RunSpec::default()
            };
            run_edit_sequence(&ps, &init, &spec, None)
                .unwrap()
                .flatten()
                .unwrap()
        };
        let reference = run_with(1);
        for threads in [3, 8] {
            let candidate = run_with(threads);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("{policy:?} threads={threads}"),
            );
        }
    }
}

/// Injects the same fault plan into the flat reference and the
/// graph-native runner; both must quarantine the same particles and
/// produce bit-identical survivors.
#[test]
fn fault_quarantine_is_identical_in_flat_and_graph_runs() {
    let ps = programs();
    let init = initial(&ps);
    let plan = FaultPlan::new()
        .with(FaultSpec::always(1, 3, FaultKind::Error))
        .with(FaultSpec::always(2, 7, FaultKind::NanWeight));
    let spec = RunSpec {
        policy: FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
        base_seed: 53,
        ..RunSpec::default()
    };
    let [flat, graph] = faulty_flat_and_graph(&ps, &init, &plan, &spec);

    assert_eq!(flat.reports[1].dropped, 1);
    assert_eq!(flat.reports[2].dropped, 1);
    let flat_failed: Vec<_> = flat.reports[1]
        .failures
        .iter()
        .map(|f| f.particle)
        .collect();
    assert_eq!(flat_failed, vec![3]);
    assert_bit_identical(&flat, &graph, "quarantine");
}

/// A transient panic cleared by one retry: both runners must recover the
/// same particle deterministically and agree bit-for-bit.
#[test]
fn fault_retry_recovers_identically_in_flat_and_graph_runs() {
    let ps = programs();
    let init = initial(&ps);
    let plan = FaultPlan::new().with(FaultSpec::once(1, 4, FaultKind::Panic));
    let spec = RunSpec {
        policy: FailurePolicy::Retry {
            max_attempts: 2,
            seed: 9,
        },
        base_seed: 59,
        ..RunSpec::default()
    };
    let [flat, graph] = faulty_flat_and_graph(&ps, &init, &plan, &spec);

    assert_eq!(flat.reports[1].recovered, 1);
    assert_eq!(flat.reports[1].retries, 1);
    assert_eq!(flat.reports[1].dropped, 0);
    assert_bit_identical(&flat, &graph, "retry");
}
