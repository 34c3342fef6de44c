//! Shared helpers for the differential suites: random surface programs
//! and the "hyperparameter edit" constant perturbation (property tests),
//! the flat-trace and graph-native stage lists of an edit history, and a
//! bitwise comparison of sequence runs.

#![allow(dead_code)]

use std::sync::Arc;

use depgraph::{edit_chain, edit_chain_shared, ExecGraph, IncrementalTranslator};
use incremental::{SequenceRun, StateTranslator, TraceStateAdapter};
use ppl::ast::Program;
use ppl::Trace;
use proptest::prelude::*;

/// Program `k` of a growing edit history over `src` (a
/// [`program_strategy`] program): constants perturbed by `k · delta`, and
/// `k` fresh latent choices appended before the `return`, each with an
/// observation that depends on it. Every edit `k → k + 1` both rescales
/// the existing sites and inserts a new one, so translation draws a
/// fresh choice per particle per stage.
pub fn grown_program(src: &str, k: usize, delta: u32) -> String {
    let base = perturb_constants(src, k as u32 * delta);
    let body = base
        .strip_suffix("return va0;")
        .expect("program_strategy programs end in `return va0;`");
    let mut out = body.to_string();
    for i in 0..k {
        let p = 20 + (7 * i) % 60;
        out.push_str(&format!(
            "f{i} = flip(0.{p:02}) @ fresh{i};\nobserve(flip(f{i} ? 0.95 : 0.05) @ fobs{i} == 1);\n"
        ));
    }
    out.push_str("return va0;");
    out
}

/// A shareable stage of `incremental::run_state_sequence`.
pub type Shared<S> = Arc<dyn StateTranslator<S> + Send + Sync>;

/// Flat-trace interop stages for an edit history: each link of the
/// edit chain adapted to plain traces, so every stage rebuilds each
/// particle's execution graph from its trace and flattens it back.
pub fn flat_stages(programs: &[Program]) -> Vec<Shared<Trace>> {
    flat_stages_with(programs, |t| t)
}

/// [`flat_stages`] with every link wrapped by `wrap` first (e.g. in a
/// `FaultyTranslator`).
pub fn flat_stages_with<T, F>(programs: &[Program], wrap: F) -> Vec<Shared<Trace>>
where
    T: incremental::TraceTranslator + Send + Sync + 'static,
    F: Fn(IncrementalTranslator) -> T,
{
    edit_chain(programs)
        .into_iter()
        .map(|t| Arc::new(TraceStateAdapter(wrap(t))) as Shared<Trace>)
        .collect()
}

/// Graph-native stages for an edit history over shared program handles,
/// each link wrapped by `wrap`.
pub fn graph_stages_with<T, F>(programs: &[Arc<Program>], wrap: F) -> Vec<Shared<Arc<ExecGraph>>>
where
    T: StateTranslator<Arc<ExecGraph>> + Send + Sync + 'static,
    F: Fn(IncrementalTranslator) -> T,
{
    edit_chain_shared(programs)
        .into_iter()
        .map(|t| Arc::new(wrap(t)) as Shared<Arc<ExecGraph>>)
        .collect()
}

/// Asserts two flat sequence runs are bit-identical: same per-stage log
/// weights (to the bit), same choice maps, same health reports.
pub fn assert_bit_identical(reference: &SequenceRun, candidate: &SequenceRun, context: &str) {
    assert_eq!(
        reference.collections.len(),
        candidate.collections.len(),
        "{context}: stage count"
    );
    for (stage, (a, b)) in reference
        .collections
        .iter()
        .zip(&candidate.collections)
        .enumerate()
    {
        assert_eq!(a.len(), b.len(), "{context}: stage {stage} size");
        for (j, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                pa.log_weight.log().to_bits(),
                pb.log_weight.log().to_bits(),
                "{context}: stage {stage} particle {j} weight"
            );
            assert_eq!(
                pa.trace.to_choice_map(),
                pb.trace.to_choice_map(),
                "{context}: stage {stage} particle {j} choices"
            );
        }
    }
    assert_eq!(
        reference.ess_history.len(),
        candidate.ess_history.len(),
        "{context}: ess history length"
    );
    for (a, b) in reference.ess_history.iter().zip(&candidate.ess_history) {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: ess history");
    }
    assert_eq!(
        reference.reports.len(),
        candidate.reports.len(),
        "{context}: report count"
    );
    for (a, b) in reference.reports.iter().zip(&candidate.reports) {
        assert_eq!(a.step, b.step, "{context}: report step");
        assert_eq!(a.ess.to_bits(), b.ess.to_bits(), "{context}: report ess");
        assert_eq!(a.dropped, b.dropped, "{context}: report dropped");
        assert_eq!(a.retries, b.retries, "{context}: report retries");
        assert_eq!(a.recovered, b.recovered, "{context}: report recovered");
        assert_eq!(a.resampled, b.resampled, "{context}: report resampled");
        assert_eq!(
            a.collapse_recovered, b.collapse_recovered,
            "{context}: report collapse"
        );
        let failures = |r: &incremental::StepReport| {
            r.failures
                .iter()
                .map(|f| (f.particle, f.attempts, std::mem::discriminant(&f.kind)))
                .collect::<Vec<_>>()
        };
        assert_eq!(failures(a), failures(b), "{context}: report failures");
    }
}

/// A generator of small, runtime-safe surface programs: all variables are
/// pre-initialized, flip probabilities stay in (0, 1), no division.
pub fn program_strategy() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0usize..3, 1u32..99).prop_map(|(v, p)| format!("v{v} = flip(0.{p:02});")),
        (0usize..3, 0i64..4, 1i64..5)
            .prop_map(|(v, lo, k)| format!("v{v} = uniform({lo}, {});", lo + k)),
        (0usize..3, 0usize..3, 0usize..3)
            .prop_map(|(v, a, b)| { format!("v{v} = va{a} + va{b};") }),
        (0usize..3, 1u32..99, 0usize..3, 0usize..3).prop_map(|(c, p, a, b)| {
            format!("if va{c} > 0 {{ va{a} = flip(0.{p:02}); }} else {{ va{b} = 1; }}")
        }),
        (1u32..99, 0usize..3)
            .prop_map(|(p, v)| { format!("observe(flip(0.{p:02}) == (va{v} > 0));") }),
        (0usize..3, 1i64..4, 1u32..99).prop_map(|(v, n, p)| {
            format!("for i{v} in [0..{n}) {{ va{v} = flip(0.{p:02}); }}")
        }),
    ];
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        let mut src = String::from("va0 = 1; va1 = 0; va2 = 1; v0 = 0; v1 = 0; v2 = 0;\n");
        for s in stmts {
            src.push_str(&s);
            src.push('\n');
        }
        src.push_str("return va0;");
        src
    })
}

/// Perturbs every `0.XX` constant by a deterministic amount, producing a
/// semantically different but structurally identical program — the
/// "hyperparameter edit" shape.
pub fn perturb_constants(src: &str, delta: u32) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '0' && chars.peek() == Some(&'.') {
            chars.next(); // '.'
            let mut digits = String::new();
            while chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                digits.push(chars.next().unwrap());
            }
            if digits.is_empty() {
                // Not a real literal — e.g. the `0..` of a range.
                out.push_str("0.");
                continue;
            }
            let value: u32 = digits.parse().unwrap_or(50);
            let scale = 10u32.pow(digits.len() as u32);
            // Stay strictly inside (0, scale).
            let perturbed = (value + delta) % (scale - 1) + 1;
            out.push_str(&format!("0.{perturbed:0width$}", width = digits.len()));
        } else {
            out.push(c);
        }
    }
    out
}
