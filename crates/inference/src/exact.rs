//! Exact posterior sampling for finite discrete models via enumeration.
//!
//! The incremental inference experiments take "exact posterior samples
//! for P as input" — for small discrete programs we obtain them by
//! enumerating all traces and drawing from the normalized table.

use rand::RngCore;

use ppl::dist::util::uniform_unit;
use ppl::{Enumeration, Model, PplError, Trace};

/// A sampler over the exact posterior of a finite discrete model.
#[derive(Debug, Clone)]
pub struct ExactPosterior {
    traces: Vec<Trace>,
    cumulative: Vec<f64>,
}

impl ExactPosterior {
    /// Enumerates `model` and builds the posterior table.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors, and errors if the posterior has no
    /// mass (all observations impossible).
    pub fn new(model: &dyn Model) -> Result<ExactPosterior, PplError> {
        Self::from_enumeration(&Enumeration::run(model)?)
    }

    /// [`ExactPosterior::new`] giving up beyond `limit` traces — a cheap
    /// probe for callers that fall back to approximate inference when the
    /// support is large or unbounded.
    ///
    /// # Errors
    ///
    /// As [`ExactPosterior::new`], with [`PplError::FuelExhausted`] past
    /// `limit` traces.
    pub fn with_limit(model: &dyn Model, limit: usize) -> Result<ExactPosterior, PplError> {
        Self::from_enumeration(&Enumeration::run_with_limit(model, limit)?)
    }

    fn from_enumeration(enumeration: &Enumeration) -> Result<ExactPosterior, PplError> {
        let mut traces = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for (t, p) in enumeration.posterior() {
            acc += p;
            traces.push(t.clone());
            cumulative.push(acc);
        }
        if traces.is_empty() {
            return Err(PplError::Other(
                "posterior has zero mass; nothing to sample".to_string(),
            ));
        }
        Ok(ExactPosterior { traces, cumulative })
    }

    /// Draws one exact posterior trace.
    pub fn sample(&self, rng: &mut dyn RngCore) -> Trace {
        let u = uniform_unit(rng) * self.cumulative.last().copied().unwrap_or(1.0);
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap())
        {
            Ok(i) => (i + 1).min(self.traces.len() - 1),
            Err(i) => i.min(self.traces.len() - 1),
        };
        self.traces[idx].clone()
    }

    /// Draws `m` exact posterior traces.
    pub fn samples(&self, m: usize, rng: &mut dyn RngCore) -> Vec<Trace> {
        (0..m).map(|_| self.sample(rng)).collect()
    }

    /// Number of distinct support traces.
    pub fn support_size(&self) -> usize {
        self.traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::dist::Dist;
    use ppl::{addr, Handler, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(h: &mut dyn Handler) -> Result<Value, PplError> {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { 0.8 } else { 0.2 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(x)
    }

    #[test]
    fn samples_follow_exact_posterior() {
        let sampler = ExactPosterior::new(&model).unwrap();
        assert_eq!(sampler.support_size(), 2);
        let mut rng = StdRng::seed_from_u64(51);
        let n = 100_000;
        let hits = sampler
            .samples(n, &mut rng)
            .iter()
            .filter(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.8).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn impossible_posterior_is_an_error() {
        let hopeless = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            h.observe(addr!["o"], Dist::flip(0.0), Value::Bool(true))?;
            Ok(x)
        };
        assert!(ExactPosterior::new(&hopeless).is_err());
    }
}
