//! Differential tests for chunked particle scheduling and arena-backed
//! execution-graph storage.
//!
//! Chunk size is pure dispatch granularity: every particle keeps its own
//! seed derivation, output slot, and failure isolation, so the pooled
//! translate paths must be *bit-identical* for any chunk size and any
//! thread count — including under fault injection (retry, quarantine)
//! and on the watchdog deadline path. The property test at the bottom
//! pins the arena representation down: carrying a particle as a
//! persistent execution graph (whose arena extends across translations,
//! sharing unchanged subtrees by node id) must flatten to exactly the
//! trace the flat round-trip path produces.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{assert_bit_identical, graph_stages_with};
use depgraph::{edit_chain_shared, lift_collection, run_edit_sequence, ExecGraph};
use incremental::{
    run_state_sequence, Backoff, FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator,
    ParticleCollection, RunSpec, SmcConfig, StagePolicy, TraceTranslator,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 120;

/// Loop-structured whole-chain edit history (observation strengths), so
/// translation exercises indexed addresses and iteration reuse.
fn chain_source(n: usize, hi: f64) -> String {
    let lo = 1.0 - hi;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{\n\
           x = flip(prev ? 0.7 : 0.3) @ x;\n\
           observe(flip(x ? {hi} : {lo}) @ o == 1);\n\
           prev = x;\n\
         }}\n\
         return prev;"
    )
}

fn programs() -> Vec<Program> {
    [0.5_f64, 0.6, 0.8, 0.9]
        .iter()
        .map(|hi| parse(&chain_source(4, *hi)).expect("chain program parses"))
        .collect()
}

fn initial(ps: &[Program]) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(13);
    let traces: Vec<_> = (0..PARTICLES)
        .map(|_| simulate(&ps[0], &mut rng).expect("prior simulation"))
        .collect();
    ParticleCollection::from_traces(traces)
}

/// The chunk sizes the suite sweeps: single-particle tasks, an uneven
/// divisor, a chunk larger than `particles / threads`, and one chunk for
/// the whole stage.
fn chunk_sizes() -> [Option<usize>; 4] {
    [Some(1), Some(7), Some(64), Some(PARTICLES)]
}

/// A run spec with the given chunk size and thread count.
fn spec(chunk: Option<usize>, threads: usize, base_seed: u64) -> RunSpec {
    RunSpec {
        config: SmcConfig::translate_only().with_chunk_size(chunk),
        base_seed,
        threads,
        ..RunSpec::default()
    }
}

#[test]
fn chunk_size_and_thread_count_do_not_change_results() {
    let ps = programs();
    let init = initial(&ps);
    let run_with = |chunk: Option<usize>, threads: usize| {
        run_edit_sequence(&ps, &init, &spec(chunk, threads, 707), None)
            .unwrap()
            .flatten()
            .unwrap()
    };
    let reference = run_with(None, 1);
    for chunk in chunk_sizes() {
        for threads in [1, 3, 8] {
            let candidate = run_with(chunk, threads);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("chunk={chunk:?} threads={threads}"),
            );
        }
    }
}

/// Fault injection must hit the same particles and produce the same
/// retries/quarantines regardless of how particles are grouped into
/// dispatch chunks.
#[test]
fn chunking_is_invariant_under_fault_retry_and_drop() {
    let ps = programs();
    let init = initial(&ps);
    let shared: Vec<Arc<Program>> = ps.iter().cloned().map(Arc::new).collect();
    let lifted = lift_collection(&shared[0], &init).unwrap();
    // Retry can only recover transient faults; the permanent error is
    // reserved for the quarantine (drop) policy.
    let retry_plan = FaultPlan::new().with(FaultSpec::once(1, 4, FaultKind::Panic));
    let drop_plan = FaultPlan::new()
        .with(FaultSpec::once(1, 4, FaultKind::Panic))
        .with(FaultSpec::always(2, 9, FaultKind::Error));
    for (policy, plan) in [
        (
            FailurePolicy::Retry {
                max_attempts: 3,
                seed: 17,
            },
            retry_plan,
        ),
        (
            FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
            drop_plan,
        ),
    ] {
        let run_with = |chunk: Option<usize>, threads: usize| {
            let stages = graph_stages_with(&shared, |t| FaultyTranslator::new(t, plan.clone()));
            let spec = RunSpec {
                policy,
                ..spec(chunk, threads, 808)
            };
            run_state_sequence(&stages, &lifted, &spec, None)
                .unwrap()
                .flatten()
                .unwrap()
        };
        let reference = run_with(None, 1);
        for chunk in chunk_sizes() {
            for threads in [3, 8] {
                let candidate = run_with(chunk, threads);
                assert_bit_identical(
                    &reference,
                    &candidate,
                    &format!("{policy:?} chunk={chunk:?} threads={threads}"),
                );
            }
        }
    }
}

/// The watchdog (deadline-supervised) translate path chunks its rounds
/// too; with a deadline generous enough that nothing times out, every
/// chunk size must reproduce the unsupervised result bit-for-bit.
#[test]
fn deadline_supervised_path_is_chunk_invariant() {
    let ps = programs();
    let init = initial(&ps);
    let stage_policy = StagePolicy::default()
        .with_deadline(Duration::from_secs(20))
        .with_backoff(Backoff::new(
            Duration::from_millis(5),
            2.0,
            Duration::from_millis(50),
        ));
    let run_with = |chunk: Option<usize>, threads: usize, stage_policy: StagePolicy| {
        let spec = RunSpec {
            stage_policy,
            ..spec(chunk, threads, 909)
        };
        run_edit_sequence(&ps, &init, &spec, None)
            .unwrap()
            .flatten()
            .unwrap()
    };
    let reference = run_with(None, 1, StagePolicy::default());
    for chunk in chunk_sizes() {
        for threads in [1, 3] {
            let candidate = run_with(chunk, threads, stage_policy);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("deadline chunk={chunk:?} threads={threads}"),
            );
        }
    }
}

proptest! {
    /// Arena representation property: carrying a particle graph-natively
    /// across a chain of edits (each translation *extends* the previous
    /// graph's arena and shares unchanged subtrees by node id) flattens
    /// to exactly the trace — and weight — that the flat round-trip path
    /// (flatten → rebuild graph → translate) produces at every stage.
    #[test]
    fn graph_native_chain_flattens_like_flat_roundtrip(
        n in 1usize..5,
        strengths in proptest::collection::vec(5u32..95, 3..4),
        seed in 0u64..256,
    ) {
        let shared: Vec<Arc<Program>> = strengths
            .iter()
            .map(|s| {
                Arc::new(
                    parse(&chain_source(n, f64::from(*s) / 100.0)).expect("chain parses"),
                )
            })
            .collect();
        let chain = edit_chain_shared(&shared);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace0 = simulate(&*shared[0], &mut rng).expect("prior simulation");
        let mut graph = ExecGraph::from_trace_shared(&shared[0], &trace0).expect("lift");
        let mut flat = trace0;
        for (step, translator) in chain.iter().enumerate() {
            let mut rng_graph = StdRng::seed_from_u64(seed ^ 0xfeed ^ step as u64);
            let result = translator.translate_graph(&graph, &mut rng_graph).expect("graph step");
            let mut rng_flat = StdRng::seed_from_u64(seed ^ 0xfeed ^ step as u64);
            let reference = translator.translate(&flat, &mut rng_flat).expect("flat step");
            let flattened = result.graph.to_trace().expect("flatten");
            prop_assert_eq!(
                flattened.to_choice_map(),
                reference.trace.to_choice_map(),
                "stage {} choices", step
            );
            prop_assert_eq!(
                result.log_weight.log().to_bits(),
                reference.log_weight.log().to_bits(),
                "stage {} weight", step
            );
            graph = result.graph;
            flat = reference.trace;
        }
    }
}
