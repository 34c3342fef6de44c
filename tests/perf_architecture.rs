//! Properties of the performance architecture introduced with address
//! interning and the persistent SMC worker pool:
//!
//! 1. the small-vector-backed, internable [`Address`] must be
//!    observationally identical (Display, Eq, Ord, Hash) to the legacy
//!    `Vec<Component>` representation it replaced;
//! 2. interning must round-trip: `a.id().resolve() == a`, and ids are
//!    equal exactly when addresses are;
//! 3. pooled parallel translation must be bit-identical across thread
//!    counts and to an independent scoped-thread reference written
//!    against the public [`StateTranslator`] API.

use std::hash::{DefaultHasher, Hash, Hasher};

use incremental::{
    infer_states_parallel_with_policy, Correspondence, CorrespondenceTranslator, FailurePolicy,
    ParticleCollection, SmcConfig, StateTranslator, TraceStateAdapter, TranslateCtx,
};
use ppl::address::Component;
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, Address, Handler, LogWeight, PplError, Trace, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-interning address representation: a component vector with
/// *derived* Eq/Ord/Hash — the exact semantics `Address` must preserve
/// across its inline/heap/interned representations.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LegacyComponent {
    Sym(String),
    Idx(i64),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LegacyAddress(Vec<LegacyComponent>);

impl LegacyAddress {
    fn to_modern(&self) -> Address {
        Address::new(
            self.0
                .iter()
                .map(|c| match c {
                    LegacyComponent::Sym(s) => Component::from(s.as_str()),
                    LegacyComponent::Idx(i) => Component::Idx(*i),
                })
                .collect(),
        )
    }

    /// The legacy Display rendering (slash-joined components).
    fn render(&self) -> String {
        if self.0.is_empty() {
            return "<root>".to_string();
        }
        self.0
            .iter()
            .map(|c| match c {
                LegacyComponent::Sym(s) => s.clone(),
                LegacyComponent::Idx(i) => i.to_string(),
            })
            .collect::<Vec<_>>()
            .join("/")
    }
}

fn legacy_component() -> impl Strategy<Value = LegacyComponent> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(LegacyComponent::Sym),
        (-40i64..40).prop_map(LegacyComponent::Idx),
    ]
}

fn legacy_address() -> impl Strategy<Value = LegacyAddress> {
    // Lengths 0..=5 cross the inline (≤2) / heap (>2) representation
    // boundary in both directions.
    proptest::collection::vec(legacy_component(), 0..6).prop_map(LegacyAddress)
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Display matches the legacy slash-joined rendering for every
    /// representation (inline, heap, and interned resolution).
    #[test]
    fn display_round_trips_against_legacy(legacy in legacy_address()) {
        let modern = legacy.to_modern();
        prop_assert_eq!(modern.to_string(), legacy.render());
        prop_assert_eq!(modern.id().to_string(), legacy.render());
    }

    /// Eq and Ord agree with the derived legacy semantics on arbitrary
    /// address pairs.
    #[test]
    fn eq_and_ord_agree_with_legacy(a in legacy_address(), b in legacy_address()) {
        let (ma, mb) = (a.to_modern(), b.to_modern());
        prop_assert_eq!(ma == mb, a == b);
        prop_assert_eq!(ma.cmp(&mb), a.cmp(&b));
    }

    /// Equal addresses hash identically regardless of how they were
    /// built (bulk construction vs incremental child extension), and the
    /// hash stream matches the legacy derive bit-for-bit.
    #[test]
    fn hash_equality_across_representations(legacy in legacy_address()) {
        let modern = legacy.to_modern();
        // Rebuild incrementally: root → child → child …, which exercises
        // the inline-to-heap spill path.
        let mut grown = Address::root();
        for c in modern.components() {
            grown = grown.child(c.clone());
        }
        prop_assert_eq!(&grown, &modern);
        prop_assert_eq!(hash_of(&grown), hash_of(&modern));
        prop_assert_eq!(hash_of(&modern), hash_of(&legacy));
    }

    /// Interning round-trips: resolving the id yields an equal address,
    /// and two addresses share an id exactly when they are equal.
    #[test]
    fn interning_round_trips(a in legacy_address(), b in legacy_address()) {
        let (ma, mb) = (a.to_modern(), b.to_modern());
        prop_assert_eq!(ma.id().resolve(), &ma);
        prop_assert_eq!(ma.id() == mb.id(), ma == mb);
        // Ids are stable: re-interning returns the same id.
        prop_assert_eq!(ma.id(), ma.id());
    }
}

/// P: a three-site chain with an observation.
fn p_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let mut prev = Value::Bool(true);
    for i in 0..3 {
        let p = if prev.truthy()? { 0.7 } else { 0.3 };
        prev = h.sample(addr!["state", i], Dist::flip(p))?;
        let po = if prev.truthy()? { 0.8 } else { 0.2 };
        h.observe(addr!["obs", i], Dist::flip(po), Value::Bool(true))?;
    }
    h.sample(addr!["noise"], Dist::flip(0.5))?;
    Ok(prev)
}

/// Q: same sites, shifted parameters (every translation reuses all
/// states and reweights). `noise` has no correspondence, so every
/// translation draws it fresh from the particle's seeded RNG.
fn q_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let mut prev = Value::Bool(true);
    for i in 0..3 {
        let p = if prev.truthy()? { 0.6 } else { 0.4 };
        prev = h.sample(addr!["state", i], Dist::flip(p))?;
        let po = if prev.truthy()? { 0.9 } else { 0.1 };
        h.observe(addr!["obs", i], Dist::flip(po), Value::Bool(true))?;
    }
    h.sample(addr!["noise"], Dist::flip(0.5))?;
    Ok(prev)
}

type ModelFn = fn(&mut dyn Handler) -> Result<Value, PplError>;

fn fixture() -> (
    CorrespondenceTranslator<ModelFn, ModelFn>,
    ParticleCollection,
) {
    let translator = CorrespondenceTranslator::new(
        p_model as ModelFn,
        q_model as ModelFn,
        Correspondence::identity_on(["state"]),
    );
    let mut rng = StdRng::seed_from_u64(97);
    let traces: Vec<_> = (0..61)
        .map(|_| simulate(&p_model, &mut rng).unwrap())
        .collect();
    (translator, ParticleCollection::from_traces(traces))
}

/// Exact (bit-level) equality of two collections: same traces in the
/// same order with identical weight bits.
fn assert_bit_identical(a: &ParticleCollection, b: &ParticleCollection, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: particle counts differ");
    for (i, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            pa.log_weight.log().to_bits(),
            pb.log_weight.log().to_bits(),
            "{label}: weight bits differ at particle {i}"
        );
        assert_eq!(pa.trace, pb.trace, "{label}: trace differs at particle {i}");
    }
}

/// One translate-only seeded SMC step on the worker pool.
fn pooled(
    translator: &CorrespondenceTranslator<ModelFn, ModelFn>,
    particles: &ParticleCollection,
    base_seed: u64,
    threads: usize,
    step: usize,
) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(0);
    infer_states_parallel_with_policy(
        &TraceStateAdapter(translator),
        particles,
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        step,
        base_seed,
        threads,
        &mut rng,
    )
    .unwrap()
    .0
}

/// The reference the pooled path is differentially tested against:
/// `std::thread::scope` with one thread per contiguous chunk, particle
/// `j` translated from its own RNG seeded `base_seed + j · 0x9E37_79B9`
/// (the documented per-particle seed) and reweighted by the translation
/// increment. Fail-fast only, for translators that never fail.
fn scoped_reference(
    translator: &(dyn StateTranslator<Trace> + Sync),
    particles: &ParticleCollection,
    base_seed: u64,
    threads: usize,
    step: usize,
) -> ParticleCollection {
    let items: Vec<_> = particles.iter().enumerate().collect();
    let chunk = items.len().div_ceil(threads).max(1);
    let chunks: Vec<Vec<(Trace, LogWeight)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(j, particle)| {
                            let seed =
                                base_seed.wrapping_add((*j as u64).wrapping_mul(0x9E37_79B9));
                            let mut rng = StdRng::seed_from_u64(seed);
                            let ctx = TranslateCtx::new(step, *j);
                            let (trace, delta) = translator
                                .translate_state(&particle.trace, ctx, &mut rng)
                                .unwrap();
                            (trace, particle.log_weight + delta)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = ParticleCollection::new();
    for (trace, weight) in chunks.into_iter().flatten() {
        out.push(trace, weight);
    }
    out
}

#[test]
fn pooled_translation_is_bit_identical_across_thread_counts() {
    let (translator, particles) = fixture();
    let baseline = pooled(&translator, &particles, 4242, 1, 0);
    for threads in [3, 8] {
        let out = pooled(&translator, &particles, 4242, threads, 0);
        assert_bit_identical(&baseline, &out, &format!("threads={threads}"));
    }
}

#[test]
fn pooled_translation_matches_scoped_reference() {
    let (translator, particles) = fixture();
    let adapted = TraceStateAdapter(&translator);
    for threads in [1, 3, 8] {
        let pooled = pooled(&translator, &particles, 9000, threads, 2);
        let scoped = scoped_reference(&adapted, &particles, 9000, threads, 2);
        assert_bit_identical(
            &pooled,
            &scoped,
            &format!("pooled vs scoped, threads={threads}"),
        );
    }
}

#[test]
fn pool_reuse_across_steps_is_deterministic() {
    // Two passes over the same multi-step edit sequence, interleaved with
    // other pool work by prior tests, must agree bit-for-bit: pool state
    // carries no randomness between steps.
    let (translator, particles) = fixture();
    let run = || {
        let mut current = particles.clone();
        let mut weights = Vec::new();
        for step in 0..5 {
            current = pooled(&translator, &current, 1000 + step as u64, 4, step);
            weights.extend(current.iter().map(|p| p.log_weight.log().to_bits()));
        }
        weights
    };
    assert_eq!(run(), run());
}
