//! The three workloads, their seeded edit streams, and the independent
//! references that check a session's final collection.
//!
//! Every stream starts from a stage-0 program whose observations carry
//! no information, so prior simulations of it are exact posterior
//! samples. The system under test only ever sees the generated source
//! texts; the references are computed here from the stream's own knobs
//! (observation strengths or observed bits), never from the system's
//! intermediate results.

use std::sync::Arc;

use depgraph::ExecGraph;
use incremental::{ParticleCollection, ResamplePolicy};
use inference::hmm::Hmm;
use ppl::dist::util::uniform_unit;
use ppl::{Address, Trace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Transition probabilities of the chain family: `Pr[x_i = 1]` given the
/// previous latent (the first latent follows `prev = 1`).
const STAY_ON: f64 = 0.7;
const TURN_ON: f64 = 0.3;

/// Strength of the observations appended by `chain_grow`.
const GROW_STRENGTH: f64 = 0.8;

/// Relative tolerance of the closed-form weight check. The system sums
/// one rounded weight increment per edit, so the error grows with the
/// edit count but stays many orders of magnitude below this.
pub const WEIGHT_REL_TOL: f64 = 1e-9;

/// Standard errors allowed between the estimated marginal of the newest
/// latent and the exact filter, taking the worst-case standard error
/// `sqrt(1/4 / ESS)`. Correct runs stay below two of them.
pub const MARGINAL_Z: f64 = 5.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every edit rewrites the strength of every observation of a chain.
    ChainRescore,
    /// Every edit rewrites only the trailing observation of a long chain.
    ChainLocal,
    /// Every edit appends one latent and one observed bit.
    ChainGrow,
}

/// Configuration of one workload's sessions.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Latent sites of the stage-0 program.
    pub sites: usize,
    /// Particles in the collection.
    pub particles: usize,
    /// Edits per session; each session starts from a fresh collection.
    pub edits: usize,
    /// Resampling trigger of the SMC step.
    pub resample: ResamplePolicy,
    /// Leading edits of each traced session replayed through the
    /// re-execution baseline (it costs the whole trace per particle).
    pub reexec_edits: usize,
    /// Added to every reference value; non-zero only to prove that a
    /// wrong reference is caught.
    pub reference_skew: f64,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ChainRescore,
        Workload::ChainLocal,
        Workload::ChainGrow,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainRescore => "chain_rescore",
            Workload::ChainLocal => "chain_local",
            Workload::ChainGrow => "chain_grow",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured configuration. Session lengths are short because
    /// per-edit cost and memory grow with a collection's edit history;
    /// a run repeats whole sessions, so its figures do not depend on how
    /// long it ran.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ChainRescore => Spec {
                workload: self,
                sites: 64,
                particles: 200,
                edits: 24,
                resample: ResamplePolicy::Never,
                reexec_edits: 24,
                reference_skew: 0.0,
            },
            Workload::ChainLocal => Spec {
                workload: self,
                sites: 1024,
                particles: 200,
                edits: 60,
                resample: ResamplePolicy::Never,
                reexec_edits: 1,
                reference_skew: 0.0,
            },
            Workload::ChainGrow => Spec {
                workload: self,
                sites: 32,
                particles: 500,
                edits: 20,
                resample: ResamplePolicy::EssBelow(0.5),
                reexec_edits: 20,
                reference_skew: 0.0,
            },
        }
    }

    /// A tiny configuration of the same shape, for tests.
    pub fn tiny(self) -> Spec {
        Spec {
            sites: 8,
            particles: 40,
            edits: 4,
            reexec_edits: 2,
            ..self.spec()
        }
    }
}

/// The knob each edit turns.
#[derive(Debug, Clone)]
enum Knob {
    /// Observation strength of each stage (`chain_rescore`, `chain_local`).
    Strengths(Vec<f64>),
    /// Observed bit appended by each edit (`chain_grow`).
    Bits(Vec<bool>),
}

/// A session's inputs: stage-0 source, one source per edit, and the
/// knobs that generated them.
#[derive(Debug, Clone)]
pub struct EditStream {
    /// `sources[0]` is the stage-0 program; `sources[e]` is the program
    /// after edit `e`.
    pub sources: Vec<String>,
    workload: Workload,
    sites: usize,
    skew: f64,
    knob: Knob,
}

/// The chain family with one observation per site; editing `strength`
/// rewrites every observation.
fn chain_source(n: usize, strength: f64) -> String {
    let lo = 1.0 - strength;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{\n\
           x = flip(prev ? {STAY_ON} : {TURN_ON}) @ x;\n\
           observe(flip(x ? {strength} : {lo}) @ o == 1);\n\
           prev = x;\n\
         }}\n\
         return prev;"
    )
}

/// The chain family with a single trailing observation; editing
/// `strength` touches one statement whatever the chain length.
fn chain_source_fixed_edit(n: usize, strength: f64) -> String {
    let lo = 1.0 - strength;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{ x = flip(prev ? {STAY_ON} : {TURN_ON}) @ x; prev = x; }}\n\
         observe(flip(prev ? {strength} : {lo}) @ o == 1);\n\
         return prev;"
    )
}

/// An uninformative `n`-site chain followed by one appended site per
/// observed bit, each with its own labels `g<k>` (latent) and `h<k>`
/// (observation), so appending a site inserts statements and draws a
/// fresh choice.
fn grow_source(n: usize, bits: &[bool]) -> String {
    let mut src = chain_source(n, 0.5);
    src.truncate(src.len() - "return prev;".len());
    let lo = 1.0 - GROW_STRENGTH;
    for (k, &bit) in bits.iter().enumerate() {
        let y = u8::from(bit);
        src.push_str(&format!(
            "x = flip(prev ? {STAY_ON} : {TURN_ON}) @ g{k};\n\
             observe(flip(x ? {GROW_STRENGTH} : {lo}) @ h{k} == {y});\n\
             prev = x;\n"
        ));
    }
    src.push_str("return prev;");
    src
}

/// A strength in `[0.55, 0.95]` on a 0.001 grid, different from `prev`.
fn draw_strength(rng: &mut StdRng, prev: f64) -> f64 {
    loop {
        let s = 0.55 + (rng.next_u64() % 401) as f64 / 1000.0;
        if s != prev {
            return s;
        }
    }
}

fn bernoulli(rng: &mut StdRng, p: f64) -> bool {
    uniform_unit(rng) < p
}

impl EditStream {
    /// Generates the inputs of one session of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> EditStream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xED17_57EA);
        let n = spec.sites;
        let (sources, knob) = match spec.workload {
            Workload::ChainRescore | Workload::ChainLocal => {
                let mut strengths = vec![0.5];
                for _ in 0..spec.edits {
                    let prev = *strengths.last().expect("stage 0 exists");
                    strengths.push(draw_strength(&mut rng, prev));
                }
                let source = if spec.workload == Workload::ChainRescore {
                    chain_source
                } else {
                    chain_source_fixed_edit
                };
                let sources = strengths.iter().map(|&s| source(n, s)).collect();
                (sources, Knob::Strengths(strengths))
            }
            Workload::ChainGrow => {
                // Bits come from the model itself: a hidden chain that
                // continues the stage-0 chain, observed at GROW_STRENGTH.
                let mut x = true;
                for _ in 0..n {
                    x = bernoulli(&mut rng, if x { STAY_ON } else { TURN_ON });
                }
                let bits: Vec<bool> = (0..spec.edits)
                    .map(|_| {
                        x = bernoulli(&mut rng, if x { STAY_ON } else { TURN_ON });
                        bernoulli(&mut rng, GROW_STRENGTH) == x
                    })
                    .collect();
                let sources = (0..=spec.edits)
                    .map(|k| grow_source(n, &bits[..k]))
                    .collect();
                (sources, Knob::Bits(bits))
            }
        };
        EditStream {
            sources,
            workload: spec.workload,
            sites: n,
            skew: spec.reference_skew,
            knob,
        }
    }

    /// Number of edits in the stream.
    pub fn edits(&self) -> usize {
        self.sources.len() - 1
    }

    /// Latent site labels of the program after `edits` edits: the
    /// identity correspondence of the re-execution baseline.
    pub fn latent_labels(&self, edits: usize) -> Vec<String> {
        let mut labels = vec!["x".to_string()];
        if let Knob::Bits(_) = self.knob {
            labels.extend((0..edits).map(|k| format!("g{k}")));
        }
        labels
    }

    /// The expected sum of final log weights for the reuse-only streams,
    /// from the stage-0 traces. Every edit reuses every choice and keeps
    /// the latents' distributions, so each particle's weight telescopes
    /// to `log Pr_final[obs | x] - log Pr_0[obs | x]`. `None` for
    /// `chain_grow`, which draws fresh choices.
    ///
    /// # Errors
    ///
    /// A trace that lacks a latent of the stage-0 program.
    pub fn expected_weight_sum(
        &self,
        initial: &ParticleCollection<Trace>,
    ) -> Result<Option<f64>, String> {
        let Knob::Strengths(strengths) = &self.knob else {
            return Ok(None);
        };
        let s = *strengths.last().expect("stage 0 exists");
        let lo = 1.0 - s;
        let rescored = |x: bool| (if x { s } else { lo }).ln() - 0.5f64.ln();
        let n = self.sites;
        let observed: Vec<usize> = if self.workload == Workload::ChainRescore {
            (0..n).collect()
        } else {
            vec![n - 1]
        };
        let mut sum = 0.0;
        for particle in initial.iter() {
            sum += particle.log_weight.log();
            for &i in &observed {
                sum += rescored(latent(&particle.trace, i)?);
            }
        }
        Ok(Some(sum + self.skew))
    }

    /// The exact posterior `Pr[newest latent = 1 | observations]` of the
    /// final `chain_grow` program, from the HMM forward filter. `None`
    /// for the other streams.
    pub fn exact_newest_marginal(&self) -> Option<f64> {
        let Knob::Bits(bits) = &self.knob else {
            return None;
        };
        // States: 0 = false, 1 = true. Symbols: 0/1 = observed bit at
        // GROW_STRENGTH, 2 = an uninformative stage-0 observation. Each
        // row halves the informative likelihoods so it stays normalized;
        // the constant factor cancels in the filter.
        let lik = |x: bool, y: bool| {
            if x == y {
                GROW_STRENGTH
            } else {
                1.0 - GROW_STRENGTH
            }
        };
        let row = |x: bool| {
            vec![
                (0.5 * lik(x, false)).ln(),
                (0.5 * lik(x, true)).ln(),
                0.5f64.ln(),
            ]
        };
        let hmm = Hmm {
            log_initial: vec![(1.0 - STAY_ON).ln(), STAY_ON.ln()],
            log_transition: vec![
                vec![(1.0 - TURN_ON).ln(), TURN_ON.ln()],
                vec![(1.0 - STAY_ON).ln(), STAY_ON.ln()],
            ],
            log_observation: vec![row(false), row(true)],
        };
        let symbols: Vec<usize> = std::iter::repeat_n(2, self.sites)
            .chain(bits.iter().map(|&b| usize::from(b)))
            .collect();
        let (alpha, evidence) = hmm.forward(&symbols);
        let last = alpha.last().expect("at least one site");
        Some((last[1] - evidence).exp() + self.skew)
    }

    /// Checks a session's final collection against the reference.
    /// `expected_sum` is [`EditStream::expected_weight_sum`]; `ess` is
    /// the effective sample size the marginal check sizes its tolerance
    /// from.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(
        &self,
        last: &ParticleCollection<Arc<ExecGraph>>,
        expected_sum: Option<f64>,
        ess: f64,
    ) -> Result<(), String> {
        if let Some(expected) = expected_sum {
            let actual: f64 = last.iter().map(|p| p.log_weight.log()).sum();
            let tol = WEIGHT_REL_TOL * expected.abs().max(1.0);
            let within = (actual - expected).abs() <= tol;
            if !within {
                return Err(format!(
                    "final log-weight sum {actual} differs from the closed form {expected} \
                     by more than {tol}"
                ));
            }
        }
        if let Some(exact) = self.exact_newest_marginal() {
            let newest = Address::from(format!("g{}", self.edits() - 1).as_str());
            let weights = last.normalized_weights().map_err(|e| e.to_string())?;
            let mut estimate = 0.0;
            for (w, p) in weights.iter().zip(last.iter()) {
                let choice = p
                    .trace
                    .choice(&newest)
                    .ok_or_else(|| format!("a final graph lacks the newest latent {newest}"))?;
                if choice.value.truthy().map_err(|e| e.to_string())? {
                    estimate += w;
                }
            }
            let tol = MARGINAL_Z * (0.25 / ess.max(1.0)).sqrt();
            let within = (estimate - exact).abs() <= tol;
            if !within {
                return Err(format!(
                    "estimated Pr[{newest} = 1] = {estimate} differs from the exact filter \
                     {exact} by more than {tol} (ESS {ess})"
                ));
            }
        }
        Ok(())
    }
}

/// The value of latent `x/i` in a stage-0 trace.
fn latent(trace: &Trace, i: usize) -> Result<bool, String> {
    let mut address = Address::from("x");
    address.push(i);
    trace
        .value(&address)
        .ok_or_else(|| format!("a stage-0 trace lacks latent {address}"))?
        .truthy()
        .map_err(|e| e.to_string())
}
