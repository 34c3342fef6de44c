//! Abstract trace translators (Section 4.1, Algorithm 1).
//!
//! A trace translator is a tuple `R = (P, Q, k_{P→Q}, ℓ_{Q→P})`. Its
//! `translate` operation (Algorithm 1) samples `u ∼ k_{P→Q}(·; t)` and
//! evaluates the weight estimate
//!
//! ```text
//!             P̃r[u ∼ Q] · ℓ_{Q→P}(t; u)
//! ŵ(u; t) =  ---------------------------          (Eq. 2)
//!             P̃r[t ∼ P] · k_{P→Q}(u; t)
//! ```
//!
//! which is an unbiased estimate of `(Z_Q / Z_P) · w_{P→Q}(u)` (Lemma 4 of
//! the supplement).

use rand::RngCore;

use ppl::{LogWeight, PplError, Trace, Value};

/// The position of one `translate` call inside a larger SMC run: which
/// sequence step, which particle, and which attempt (0 for the first try,
/// ≥ 1 for retries under [`crate::FailurePolicy::Retry`]).
///
/// The runtime threads this through [`TraceTranslator::translate_at`] so
/// that wrappers such as [`crate::FaultyTranslator`] can behave
/// deterministically regardless of thread count or retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TranslateCtx {
    /// Index of the SMC step (stage in a program sequence).
    pub step: usize,
    /// Index of the particle being translated.
    pub particle: usize,
    /// Attempt number: 0 for the initial translation, `k` for the `k`-th
    /// retry.
    pub attempt: usize,
}

impl TranslateCtx {
    /// A context for `particle` at `step`, attempt 0.
    pub fn new(step: usize, particle: usize) -> TranslateCtx {
        TranslateCtx {
            step,
            particle,
            attempt: 0,
        }
    }

    /// The same position with the attempt counter set to `attempt`.
    pub fn with_attempt(self, attempt: usize) -> TranslateCtx {
        TranslateCtx { attempt, ..self }
    }
}

/// The result of translating one trace.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The translated trace `u` of program `Q`.
    pub trace: Trace,
    /// The log weight estimate `log ŵ_{P→Q}(u; t)`.
    pub log_weight: LogWeight,
    /// The return value of `Q` under `u`.
    pub output: Value,
}

/// A trace translator: anything that can adapt a trace of one program into
/// a weighted trace of another (Algorithm 1's `translate`).
///
/// Implementations in this workspace:
/// - [`crate::CorrespondenceTranslator`] — the Section 5 translator driven
///   by a semantic correspondence of random choices;
/// - `depgraph::IncrementalTranslator` — the Section 6 optimized
///   translator that re-executes only the program slice affected by an
///   edit.
pub trait TraceTranslator {
    /// Translates trace `t` of `P` into a weighted trace of `Q`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from running `Q` (or replaying `P`).
    fn translate(&self, t: &Trace, rng: &mut dyn RngCore) -> Result<Translated, PplError>;

    /// Translates trace `t` at a known position `ctx` within an SMC run.
    ///
    /// The default implementation ignores the context and calls
    /// [`TraceTranslator::translate`] — translators are position-independent
    /// unless they opt in (fault injectors, per-particle instrumentation).
    /// Wrapper impls (`&T`, `Box<T>`) forward the context so injection
    /// works through trait objects.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from running `Q` (or replaying `P`).
    fn translate_at(
        &self,
        t: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<Translated, PplError> {
        let _ = ctx;
        self.translate(t, rng)
    }
}

impl<T: TraceTranslator + ?Sized> TraceTranslator for &T {
    fn translate(&self, t: &Trace, rng: &mut dyn RngCore) -> Result<Translated, PplError> {
        (**self).translate(t, rng)
    }

    fn translate_at(
        &self,
        t: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<Translated, PplError> {
        (**self).translate_at(t, ctx, rng)
    }
}

impl<T: TraceTranslator + ?Sized> TraceTranslator for Box<T> {
    fn translate(&self, t: &Trace, rng: &mut dyn RngCore) -> Result<Translated, PplError> {
        (**self).translate(t, rng)
    }

    fn translate_at(
        &self,
        t: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<Translated, PplError> {
        (**self).translate_at(t, ctx, rng)
    }
}

/// A translator over an arbitrary particle state `S`.
///
/// [`TraceTranslator`] is Algorithm 1's interface over flat traces;
/// `StateTranslator` generalizes the *runtime* contract so SMC can thread
/// richer particle states (the Section 6 execution graphs) through a
/// whole program sequence without flattening between stages. The returned
/// [`LogWeight`] is the weight increment `log ŵ`, exactly as
/// [`Translated::log_weight`].
pub trait StateTranslator<S> {
    /// Translates `state` at a known position `ctx` within an SMC run,
    /// returning the successor state and the log weight increment.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from running the target program.
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError>;
}

impl<S, T: StateTranslator<S> + ?Sized> StateTranslator<S> for &T {
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError> {
        (**self).translate_state(state, ctx, rng)
    }
}

impl<S, T: StateTranslator<S> + ?Sized> StateTranslator<S> for Box<T> {
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError> {
        (**self).translate_state(state, ctx, rng)
    }
}

/// Adapts an owned [`TraceTranslator`] to the
/// [`StateTranslator`]`<Trace>` runtime interface (forwarding the call
/// context), so flat-trace stages can be driven by the state-generic
/// machinery — in particular the `Arc<dyn StateTranslator<_>>` stages of
/// [`crate::run_state_sequence`].
///
/// (A blanket `impl StateTranslator<Trace> for T: TraceTranslator` would
/// conflict with wrapper impls such as [`crate::FaultyTranslator`]'s
/// generic one, hence the explicit newtype.)
#[derive(Debug, Clone)]
pub struct TraceStateAdapter<T>(pub T);

impl<T: TraceTranslator> StateTranslator<Trace> for TraceStateAdapter<T> {
    fn translate_state(
        &self,
        state: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Trace, LogWeight), PplError> {
        let out = self.0.translate_at(state, ctx, rng)?;
        Ok((out.trace, out.log_weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A translator usable through references and boxes.
    struct Null;

    impl TraceTranslator for Null {
        fn translate(&self, t: &Trace, _rng: &mut dyn RngCore) -> Result<Translated, PplError> {
            Ok(Translated {
                trace: t.clone(),
                log_weight: LogWeight::ONE,
                output: Value::Int(0),
            })
        }
    }

    #[test]
    fn trait_objects_compose() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Trace::new();
        let boxed: Box<dyn TraceTranslator> = Box::new(Null);
        let out = boxed.translate(&t, &mut rng).unwrap();
        assert_eq!(out.log_weight, LogWeight::ONE);
        let by_ref: &dyn TraceTranslator = &Null;
        by_ref.translate(&t, &mut rng).unwrap();
    }

    /// A translator whose output encodes the context it was handed, to
    /// check that wrappers forward `translate_at` rather than falling back
    /// to the context-blind default.
    struct CtxEcho;

    impl TraceTranslator for CtxEcho {
        fn translate(&self, t: &Trace, rng: &mut dyn RngCore) -> Result<Translated, PplError> {
            self.translate_at(t, TranslateCtx::default(), rng)
        }

        fn translate_at(
            &self,
            t: &Trace,
            ctx: TranslateCtx,
            _rng: &mut dyn RngCore,
        ) -> Result<Translated, PplError> {
            Ok(Translated {
                trace: t.clone(),
                log_weight: LogWeight::ONE,
                output: Value::Int((ctx.step * 100 + ctx.particle * 10 + ctx.attempt) as i64),
            })
        }
    }

    #[test]
    fn wrappers_forward_translate_at() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Trace::new();
        let ctx = TranslateCtx::new(1, 2).with_attempt(3);
        let boxed: Box<dyn TraceTranslator> = Box::new(CtxEcho);
        assert_eq!(
            boxed.translate_at(&t, ctx, &mut rng).unwrap().output,
            Value::Int(123)
        );
        let by_ref: &dyn TraceTranslator = &CtxEcho;
        assert_eq!(
            by_ref.translate_at(&t, ctx, &mut rng).unwrap().output,
            Value::Int(123)
        );
        // The default impl ignores the context.
        assert_eq!(
            Null.translate_at(&t, ctx, &mut rng).unwrap().log_weight,
            LogWeight::ONE
        );
    }
}
