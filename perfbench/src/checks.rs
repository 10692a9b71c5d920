//! Output checks run on every op.
//!
//! An op fails when it returns an error, panics, or breaks any of:
//! * everything it returns is bitwise identical to the run's first op
//!   (in a traced run the first ops are façade ops, so this is also the
//!   replay ≡ façade check);
//! * its scores match the pinned hash, for the seeds that have one;
//! * Σ scores ≤ test accuracy (the group-rationality bound of Eq. 5);
//! * `private_1k`: the audit flags exactly the planted gamers, flagged
//!   clients score exactly 0, and the hardened scores equal
//!   `score_excluding(flagged)` bit for bit.

use crate::workload::{OpOutput, State, Workload};

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for checking speed claims.
pub const HOLDOUT_SEED: u64 = 7_919;

/// Pinned score hash ([`OpOutput::score_hash`]) per workload and seed.
pub fn pinned_hash(w: Workload, seed: u64) -> Option<u64> {
    match (w, seed) {
        (Workload::TttPipeline, DEFAULT_SEED) => Some(0x710e_9701_9198_c797),
        (Workload::TttPipeline, HOLDOUT_SEED) => Some(0x6fd9_c5ca_f4e1_ec43),
        (Workload::AdultScore, DEFAULT_SEED) => Some(0x0a69_18d9_b081_ebf7),
        (Workload::AdultScore, HOLDOUT_SEED) => Some(0x119e_a118_9328_7b7b),
        (Workload::Private1k, DEFAULT_SEED) => Some(0xf5ba_2d8c_1961_5e31),
        (Workload::Private1k, HOLDOUT_SEED) => Some(0x431a_861a_207d_3bb7),
        _ => None,
    }
}

/// Checks ops of one run against each other and against the pins.
pub struct Checker<'a> {
    workload: Workload,
    seed: u64,
    state: &'a State,
    first: Option<OpOutput>,
    excluding_bits: Option<Vec<u64>>,
    /// Ops checked.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
}

impl<'a> Checker<'a> {
    /// A checker for a run of `workload` with `seed` over `state`.
    pub fn new(workload: Workload, seed: u64, state: &'a State) -> Self {
        Checker { workload, seed, state, first: None, excluding_bits: None, attempted: 0, failed: 0 }
    }

    /// The first successful op's output, once there is one.
    pub fn first(&self) -> Option<&OpOutput> {
        self.first.as_ref()
    }

    /// Checks one op's result; returns the failures found (empty when the
    /// op passed) and counts it.
    pub fn check(&mut self, result: Result<OpOutput, String>) -> Vec<String> {
        self.attempted += 1;
        let problems = match result {
            Err(e) => vec![format!("op failed: {e}")],
            Ok(out) => self.check_output(out),
        };
        if !problems.is_empty() {
            self.failed += 1;
        }
        problems
    }

    fn check_output(&mut self, out: OpOutput) -> Vec<String> {
        let mut problems = Vec::new();
        let total: f64 = out.scores().iter().sum();
        if !out.scores().iter().all(|s| s.is_finite() && *s >= 0.0) {
            problems.push("a score is negative or not finite".to_string());
        }
        if total > out.test_accuracy() + 1e-9 {
            problems.push(format!("sum of scores {total} exceeds test accuracy {}", out.test_accuracy()));
        }
        let hash = out.score_hash();
        if let Some(pin) = pinned_hash(self.workload, self.seed) {
            if hash != pin {
                problems.push(format!("score hash {hash:#018x} differs from the pinned {pin:#018x}"));
            }
        }
        if let State::Private(s) = self.state {
            if out.flagged() != s.gamers {
                problems.push(format!(
                    "audit flagged {} clients, planted {} gamers, sets differ",
                    out.flagged().len(),
                    s.gamers.len()
                ));
            }
            if out.flagged().iter().any(|&c| out.scores()[c] != 0.0) {
                problems.push("a flagged client scores above 0".to_string());
            }
            if self.excluding_bits.is_none() {
                match s.scoring().score_excluding(&s.uploads, out.flagged()) {
                    Ok(v) => self.excluding_bits = Some(v.iter().map(|x| x.to_bits()).collect()),
                    Err(e) => problems.push(format!("score_excluding failed: {e}")),
                }
            }
            let bits: Vec<u64> = out.scores().iter().map(|x| x.to_bits()).collect();
            if self.excluding_bits.as_ref().is_some_and(|e| *e != bits) {
                problems.push("hardened scores differ from score_excluding(flagged)".to_string());
            }
        }
        match &self.first {
            None => self.first = Some(out),
            Some(first) => {
                if !first.same_bits(&out) {
                    problems.push("output differs bitwise from the run's first op".to_string());
                }
            }
        }
        problems
    }
}
