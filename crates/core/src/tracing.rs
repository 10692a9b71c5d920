//! Rule-based contribution tracing (paper Section III-C, Eq. 4).
//!
//! For every test instance, CTFL identifies the *related* training data —
//! instances that taught the model the rules it used on that test instance.
//! The four tracing cases of the paper reduce to a single traced class per
//! test instance:
//!
//! * **TP / TN** (correct prediction): trace class `y_te`; related training
//!   data are *beneficial*.
//! * **FP / FN** (wrong prediction): trace the *predicted* (wrong) class;
//!   related training data are *responsible for the loss*.
//!
//! A training instance `(x_tr, y_tr)` is related to `(x_te, y_te)` under
//! threshold `τ_w` iff `y_tr` equals the traced class `c*` and
//!
//! ```text
//!   w* ⊙ r*(x_tr) · r*(x_te)
//!   ------------------------  >= τ_w          (Eq. 4)
//!       w* · r*(x_te)
//! ```
//!
//! where `r*`/`w*` are the activation vector and weights restricted to the
//! rules supporting `c*`.
//!
//! The tracer never touches raw feature values: it consumes only activation
//! matrices, labels and the client assignment — exactly the artifacts the
//! paper's privacy pipeline lets participants upload (Section V).

// Index-based loops below mirror the textbook formulations; iterator
// rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
use crate::activation::{triple_weight_sum_words, ActivationMatrix};
use crate::error::{CoreError, Result};
use crate::model::RuleModel;
use crate::parallel::plan_threads;
use crate::shard::ShardedActivations;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// How the kernel organises the `|D_te| × |D_N|` comparison. There is one
/// way: test rows with the same traced class and activation row are traced
/// once (DESIGN.md §2 records why this replaces the paper's Max-Miner
/// grouping).
///
/// The kernel never reads this value. The type and the `grouping` fields
/// of [`TraceConfig`] and `CtflConfig` remain only because the `perfbench`
/// workload builds `TraceConfig` as a full struct literal; they go away
/// together with that literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// Deduplicate test instances with identical activation rows and traced
    /// class; each unique row is traced once.
    SignatureDedup,
}

/// Tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Activation-overlap threshold `τ_w ∈ (0, 1]` of Eq. 4. The paper uses
    /// values in `[0.8, 1.0]`; lower values recognise more contributing
    /// records (useful under data poisoning), higher values are stricter.
    pub tau_w: f64,
    /// Parallelize over test instances with scoped threads (the paper's GPU
    /// map, realised on CPU).
    pub parallel: bool,
    /// Worker-thread count when `parallel` is set. `0` plans automatically
    /// from the workload (`crate::parallel::plan_threads` over the
    /// `|D_te| × |D_N|` pair volume); a positive value pins the count, which
    /// property tests use to force multi-threaded merges on tiny inputs.
    pub threads: usize,
    /// Comparison organisation; has a single value (see [`GroupingStrategy`]).
    pub grouping: GroupingStrategy,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            tau_w: 0.9,
            parallel: true,
            threads: 0,
            grouping: GroupingStrategy::SignatureDedup,
        }
    }
}

impl TraceConfig {
    fn validate(&self) -> Result<()> {
        if !(self.tau_w > 0.0 && self.tau_w <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "tau_w",
                message: format!("must be in (0, 1], got {}", self.tau_w),
            });
        }
        Ok(())
    }
}

/// Everything the tracer needs, decoupled from raw features.
///
/// `train_acts` / `test_acts` must have one bit per model rule; rule weights
/// and per-class masks come from the same [`RuleModel`] (or are reproduced
/// by the federation in the privacy-preserving deployment).
pub struct TraceInputs<'a> {
    /// Training activation matrix (`|D_N| × m` bits).
    pub train_acts: &'a ActivationMatrix,
    /// Training labels.
    pub train_labels: &'a [u32],
    /// Owning client of each training row.
    pub client_of: &'a [u32],
    /// Number of clients `n`.
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
    /// Rule weights (`m` entries).
    pub weights: &'a [f64],
    /// Per-class rule masks.
    pub class_masks: &'a [Vec<u64>],
}

impl<'a> TraceInputs<'a> {
    fn validate(&self) -> Result<()> {
        let m = self.train_acts.n_bits();
        if self.test_acts.n_bits() != m {
            return Err(CoreError::LengthMismatch {
                what: "test activation width",
                expected: m,
                actual: self.test_acts.n_bits(),
            });
        }
        if self.train_labels.len() != self.train_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "train labels",
                expected: self.train_acts.n_rows(),
                actual: self.train_labels.len(),
            });
        }
        if self.client_of.len() != self.train_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "client assignment",
                expected: self.train_acts.n_rows(),
                actual: self.client_of.len(),
            });
        }
        if self.test_labels.len() != self.test_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "test labels",
                expected: self.test_acts.n_rows(),
                actual: self.test_labels.len(),
            });
        }
        if self.predictions.len() != self.test_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "predictions",
                expected: self.test_acts.n_rows(),
                actual: self.predictions.len(),
            });
        }
        if self.weights.len() != m {
            return Err(CoreError::LengthMismatch {
                what: "rule weights",
                expected: m,
                actual: self.weights.len(),
            });
        }
        validate_weights(self.weights)?;
        for &c in self.client_of {
            if c as usize >= self.n_clients {
                return Err(CoreError::InvalidParameter {
                    name: "client_of",
                    message: format!("client {c} >= n_clients {}", self.n_clients),
                });
            }
        }
        let n_classes = self.class_masks.len();
        for (&l, what) in self
            .train_labels
            .iter()
            .map(|l| (l, "train label"))
            .chain(self.test_labels.iter().map(|l| (l, "test label")))
        {
            if l as usize >= n_classes {
                return Err(CoreError::InvalidParameter {
                    name: "labels",
                    message: format!("{what} {l} >= n_classes {n_classes}"),
                });
            }
        }
        for &p in self.predictions {
            if p >= n_classes {
                return Err(CoreError::ClassOutOfRange { class: p, n_classes });
            }
        }
        Ok(())
    }
}

/// The model-independent half of [`TraceInputs`]: activation matrices,
/// labels, ownership and predictions. Everything except the rule weights
/// and class masks, which [`inputs_from_model`] borrows from the model.
///
/// Borrowed (not owned) so the same parts can be re-traced against several
/// models — e.g. the privacy pipeline re-scoring with quarantined uploads —
/// and `Copy` so call sites can reuse one value freely.
#[derive(Debug, Clone, Copy)]
pub struct TraceParts<'a> {
    /// Training activation matrix (`|D_N| × m` bits).
    pub train_acts: &'a ActivationMatrix,
    /// Training labels.
    pub train_labels: &'a [u32],
    /// Owning client of each training row.
    pub client_of: &'a [u32],
    /// Number of clients `n`.
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
}

/// Builds [`TraceInputs`] from a model and pre-assembled [`TraceParts`]
/// (the non-private convenience path used by the estimator).
pub fn inputs_from_model<'a>(model: &'a RuleModel, parts: TraceParts<'a>) -> TraceInputs<'a> {
    TraceInputs {
        train_acts: parts.train_acts,
        train_labels: parts.train_labels,
        client_of: parts.client_of,
        n_clients: parts.n_clients,
        test_acts: parts.test_acts,
        test_labels: parts.test_labels,
        predictions: parts.predictions,
        weights: model.weights(),
        class_masks: model.class_masks_all(),
    }
}

/// The trace of a single test instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TestTrace {
    /// Model prediction.
    pub predicted: usize,
    /// Ground-truth label.
    pub actual: usize,
    /// The traced class `c*` (= `actual` when correct, `predicted` when not).
    pub traced_class: usize,
    /// `w* · r*(x_te)` — the weighted activated rules supporting `c*`.
    pub denom: f64,
    /// `|D_i ∩ ct(x_te, y_te, τ_w)|` per client `i`.
    pub related_per_client: Vec<u32>,
}

impl TestTrace {
    /// Whether the model classified this instance correctly.
    pub fn correct(&self) -> bool {
        self.predicted == self.actual
    }

    /// Total related training instances across clients.
    pub fn total_related(&self) -> u64 {
        self.related_per_client.iter().map(|&c| c as u64).sum()
    }
}

/// Full output of the tracing pass: per-test relations plus the aggregate
/// statistics that robustness and interpretation build on.
///
/// `PartialEq` compares every field bit-for-bit (f64 equality), which is
/// exactly what the parallel-vs-serial and sharded-vs-monolithic
/// equivalence tests need.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// One entry per test instance.
    pub per_test: Vec<TestTrace>,
    /// Number of clients.
    pub n_clients: usize,
    /// Number of rules.
    pub n_rules: usize,
    /// Per training row: how many *correctly classified* test instances it
    /// was related to (its beneficial match count).
    pub train_benefit_counts: Vec<u32>,
    /// Per training row: how many *misclassified* test instances it was
    /// related to (its harmful match count, used for label-flip detection).
    pub train_harm_counts: Vec<u32>,
    /// `n_clients × n_rules` weighted rule-activation frequencies from
    /// beneficial matches (paper Section IV-B: regularised by rule weights).
    pub(crate) client_rule_benefit: Vec<f64>,
    /// Same, from harmful matches.
    pub(crate) client_rule_harm: Vec<f64>,
}

impl TraceOutcome {
    /// Builds an outcome from per-test traces alone, with zeroed aggregate
    /// statistics. Useful for testing allocation schemes and for consumers
    /// that construct traces externally (e.g. the privacy pipeline).
    pub fn from_per_test(per_test: Vec<TestTrace>, n_clients: usize, n_rules: usize) -> Self {
        TraceOutcome {
            per_test,
            n_clients,
            n_rules,
            train_benefit_counts: Vec::new(),
            train_harm_counts: Vec::new(),
            client_rule_benefit: vec![0.0; n_clients * n_rules],
            client_rule_harm: vec![0.0; n_clients * n_rules],
        }
    }

    /// Weighted beneficial activation frequency of `rule` for `client`.
    pub fn benefit_freq(&self, client: usize, rule: usize) -> f64 {
        self.client_rule_benefit[client * self.n_rules + rule]
    }

    /// Weighted harmful activation frequency of `rule` for `client`.
    pub fn harm_freq(&self, client: usize, rule: usize) -> f64 {
        self.client_rule_harm[client * self.n_rules + rule]
    }

    /// Test accuracy implied by the traced predictions.
    pub fn test_accuracy(&self) -> f64 {
        if self.per_test.is_empty() {
            return 0.0;
        }
        self.per_test.iter().filter(|t| t.correct()).count() as f64 / self.per_test.len() as f64
    }
}

/// Borrowed row-level access to the training side of a trace.
///
/// Implemented by the monolithic [`TraceInputs`] triple and by
/// [`ShardedActivations`]: the kernel is generic over this trait, so both
/// stores run the *same* code and therefore produce identical output
/// bytes (pinned by property tests).
pub trait TrainAccess: Sync {
    /// Number of training rows.
    fn n_rows(&self) -> usize;
    /// Packed activation words of a global row.
    fn row_words(&self, row: usize) -> &[u64];
    /// Label of a global row.
    fn label(&self, row: usize) -> u32;
    /// Owning client of a global row.
    fn client(&self, row: usize) -> u32;
}

/// The monolithic training store: one matrix plus parallel label/client
/// vectors.
struct MonoTrain<'a> {
    acts: &'a ActivationMatrix,
    labels: &'a [u32],
    client_of: &'a [u32],
}

impl TrainAccess for MonoTrain<'_> {
    fn n_rows(&self) -> usize {
        self.acts.n_rows()
    }
    #[inline]
    fn row_words(&self, row: usize) -> &[u64] {
        self.acts.row_words(row)
    }
    #[inline]
    fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }
    #[inline]
    fn client(&self, row: usize) -> u32 {
        self.client_of[row]
    }
}

impl TrainAccess for ShardedActivations {
    fn n_rows(&self) -> usize {
        ShardedActivations::n_rows(self)
    }
    #[inline]
    fn row_words(&self, row: usize) -> &[u64] {
        ShardedActivations::row_words(self, row)
    }
    #[inline]
    fn label(&self, row: usize) -> u32 {
        ShardedActivations::label(self, row)
    }
    #[inline]
    fn client(&self, row: usize) -> u32 {
        ShardedActivations::client(self, row)
    }
}

/// The test side of a trace, bundled for the generic kernel.
struct TestSide<'a> {
    acts: &'a ActivationMatrix,
    labels: &'a [u32],
    predictions: &'a [usize],
    weights: &'a [f64],
    class_masks: &'a [Vec<u64>],
}

/// Minimum `|D_te| × |D_N|` pair volume before the kernel spawns worker
/// threads in auto mode (below this, spawn overhead dominates).
const PAIR_FLOOR: usize = 65_536;

/// Runs the tracing pass over monolithic inputs.
///
/// Complexity: `O(|D_te| · |D_N|)` pairwise worst case, reduced by tracing
/// each distinct `(traced class, test row)` once and chunked over scoped
/// worker threads when `config.parallel` is set. Output is identical for
/// every thread count, and for [`trace_sharded`] over the same rows — the
/// aggregate tables are defined as `weight × exact integer match-count`,
/// so merges are integer sums that no thread interleaving can perturb.
pub fn trace(inputs: &TraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    config.validate()?;
    inputs.validate()?;
    let train = MonoTrain {
        acts: inputs.train_acts,
        labels: inputs.train_labels,
        client_of: inputs.client_of,
    };
    let test = TestSide {
        acts: inputs.test_acts,
        labels: inputs.test_labels,
        predictions: inputs.predictions,
        weights: inputs.weights,
        class_masks: inputs.class_masks,
    };
    Ok(trace_kernel::<_, RandomState>(&train, inputs.n_clients, &test, config))
}

/// Inputs for tracing directly over a sharded per-client store: the
/// training side lives in [`ShardedActivations`] (labels and ownership
/// included), only the test side is monolithic.
pub struct ShardedTraceInputs<'a> {
    /// Sharded training activations (labels and client ownership included).
    pub train: &'a ShardedActivations,
    /// Number of clients `n` (may exceed the shard count if some clients
    /// uploaded nothing).
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
    /// Rule weights (`m` entries).
    pub weights: &'a [f64],
    /// Per-class rule masks.
    pub class_masks: &'a [Vec<u64>],
}

impl ShardedTraceInputs<'_> {
    fn validate(&self) -> Result<()> {
        let m = self.train.n_bits();
        if self.test_acts.n_bits() != m {
            return Err(CoreError::LengthMismatch {
                what: "test activation width",
                expected: m,
                actual: self.test_acts.n_bits(),
            });
        }
        if self.test_labels.len() != self.test_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "test labels",
                expected: self.test_acts.n_rows(),
                actual: self.test_labels.len(),
            });
        }
        if self.predictions.len() != self.test_acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "predictions",
                expected: self.test_acts.n_rows(),
                actual: self.predictions.len(),
            });
        }
        if self.weights.len() != m {
            return Err(CoreError::LengthMismatch {
                what: "rule weights",
                expected: m,
                actual: self.weights.len(),
            });
        }
        validate_weights(self.weights)?;
        let n_classes = self.class_masks.len();
        for shard in self.train.shards() {
            if shard.client as usize >= self.n_clients {
                return Err(CoreError::InvalidParameter {
                    name: "client_of",
                    message: format!("client {} >= n_clients {}", shard.client, self.n_clients),
                });
            }
            for &l in &shard.labels {
                if l as usize >= n_classes {
                    return Err(CoreError::InvalidParameter {
                        name: "labels",
                        message: format!("train label {l} >= n_classes {n_classes}"),
                    });
                }
            }
        }
        for &l in self.test_labels {
            if l as usize >= n_classes {
                return Err(CoreError::InvalidParameter {
                    name: "labels",
                    message: format!("test label {l} >= n_classes {n_classes}"),
                });
            }
        }
        for &p in self.predictions {
            if p >= n_classes {
                return Err(CoreError::ClassOutOfRange { class: p, n_classes });
            }
        }
        Ok(())
    }
}

/// Rule weights must be finite and non-negative — the same rule
/// [`RuleModel`] enforces, and the premise of the kernel's popcount screen.
pub(crate) fn validate_weights(weights: &[f64]) -> Result<()> {
    match weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
        Some(w) => Err(CoreError::InvalidParameter {
            name: "weights",
            message: format!("weights must be finite and >= 0, got {w}"),
        }),
        None => Ok(()),
    }
}

/// Runs the tracing pass zero-copy over a sharded per-client store.
///
/// Bit-identical to flattening the store with
/// [`ShardedActivations::to_matrix`] and calling [`trace`] — both paths
/// run the same generic kernel and global row order is preserved by
/// construction.
pub fn trace_sharded(inputs: &ShardedTraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    config.validate()?;
    inputs.validate()?;
    let test = TestSide {
        acts: inputs.test_acts,
        labels: inputs.test_labels,
        predictions: inputs.predictions,
        weights: inputs.weights,
        class_masks: inputs.class_masks,
    };
    Ok(trace_kernel::<_, RandomState>(inputs.train, inputs.n_clients, &test, config))
}

/// Pinned naive oracle for [`trace`]: pair-by-pair, per-bit matrix reads,
/// no grouping, no parallelism, no word tricks.
///
/// Sums `weights[bit]` in globally ascending bit order — the same f64
/// addition sequence the word-parallel kernels use — so numerators,
/// denominators and therefore related sets match the fast path *bitwise*,
/// not just approximately. Property tests and the `scale_sweep` speedup
/// gate both compare against this function.
pub fn trace_reference(inputs: &TraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    config.validate()?;
    inputs.validate()?;

    let n_test = inputs.test_acts.n_rows();
    let n_train = inputs.train_acts.n_rows();
    let n_rules = inputs.train_acts.n_bits();
    let mask_bit = |mask: &[u64], bit: usize| mask[bit / 64] >> (bit % 64) & 1 == 1;

    let mut per_test = Vec::with_capacity(n_test);
    let mut train_benefit_counts = vec![0u32; n_train];
    let mut train_harm_counts = vec![0u32; n_train];
    let mut benefit_cells = vec![0u64; inputs.n_clients * n_rules];
    let mut harm_cells = vec![0u64; inputs.n_clients * n_rules];

    for t in 0..n_test {
        let actual = inputs.test_labels[t] as usize;
        let predicted = inputs.predictions[t];
        let correct = predicted == actual;
        let c = if correct { actual } else { predicted };
        let mask = &inputs.class_masks[c];
        let mut denom = 0.0;
        for bit in 0..n_rules {
            if mask_bit(mask, bit) && inputs.test_acts.get(t, bit) {
                denom += inputs.weights[bit];
            }
        }
        let mut related_per_client = vec![0u32; inputs.n_clients];
        if denom > 0.0 {
            let threshold = config.tau_w * denom - 1e-12;
            for tr in 0..n_train {
                if inputs.train_labels[tr] as usize != c {
                    continue;
                }
                let mut num = 0.0;
                for bit in 0..n_rules {
                    if mask_bit(mask, bit)
                        && inputs.test_acts.get(t, bit)
                        && inputs.train_acts.get(tr, bit)
                    {
                        num += inputs.weights[bit];
                    }
                }
                if num < threshold {
                    continue;
                }
                related_per_client[inputs.client_of[tr] as usize] += 1;
                let base = inputs.client_of[tr] as usize * n_rules;
                let (row_counts, cells) = if correct {
                    (&mut train_benefit_counts, &mut benefit_cells)
                } else {
                    (&mut train_harm_counts, &mut harm_cells)
                };
                row_counts[tr] += 1;
                for bit in 0..n_rules {
                    if mask_bit(mask, bit)
                        && inputs.test_acts.get(t, bit)
                        && inputs.train_acts.get(tr, bit)
                    {
                        cells[base + bit] += 1;
                    }
                }
            }
        }
        per_test.push(TestTrace {
            predicted,
            actual,
            traced_class: c,
            denom,
            related_per_client,
        });
    }

    Ok(TraceOutcome {
        per_test,
        n_clients: inputs.n_clients,
        n_rules,
        train_benefit_counts,
        train_harm_counts,
        client_rule_benefit: cells_to_table(&benefit_cells, inputs.weights, n_rules),
        client_rule_harm: cells_to_table(&harm_cells, inputs.weights, n_rules),
    })
}

/// Materialises a weighted frequency table from exact integer match
/// counts: `table[client, rule] = weights[rule] × count`.
fn cells_to_table(cells: &[u64], weights: &[f64], n_rules: usize) -> Vec<f64> {
    cells.iter().enumerate().map(|(i, &k)| weights[i % n_rules] * k as f64).collect()
}

/// Per-worker accumulator. Everything in here is an exact integer (or an
/// index-addressed trace), so merging accumulators is order-independent
/// and the parallel kernel's output cannot depend on thread timing.
struct TraceAcc {
    benefit_counts: Vec<u32>,
    harm_counts: Vec<u32>,
    benefit_cells: Vec<u64>,
    harm_cells: Vec<u64>,
    traces: Vec<(u32, TestTrace)>,
}

impl TraceAcc {
    fn new(n_train: usize, n_clients: usize, n_rules: usize) -> Self {
        TraceAcc {
            benefit_counts: vec![0; n_train],
            harm_counts: vec![0; n_train],
            benefit_cells: vec![0; n_clients * n_rules],
            harm_cells: vec![0; n_clients * n_rules],
            traces: Vec::new(),
        }
    }
}

/// The word-parallel trace kernel, generic over the training store. `S`
/// hashes the test-row grouping keys; it can change only how fast groups
/// are found, never which rows share one.
fn trace_kernel<T: TrainAccess, S: BuildHasher + Default>(
    train: &T,
    n_clients: usize,
    test: &TestSide<'_>,
    config: &TraceConfig,
) -> TraceOutcome {
    let n_test = test.acts.n_rows();
    let n_train = train.n_rows();
    let n_rules = test.acts.n_bits();

    // Traced class and denominator per test row.
    let mut traced_class = vec![0usize; n_test];
    let mut denoms = vec![0f64; n_test];
    for t in 0..n_test {
        let actual = test.labels[t] as usize;
        let predicted = test.predictions[t];
        let c = if predicted == actual { actual } else { predicted };
        traced_class[t] = c;
        denoms[t] = test.acts.masked_weight_sum(t, &test.class_masks[c], test.weights);
    }

    // Pre-group training rows by label so each test row only scans rows of
    // its traced class.
    let n_classes = test.class_masks.len();
    let mut train_by_class: Vec<Vec<u32>> = vec![Vec::new(); n_classes];
    for i in 0..n_train {
        train_by_class[train.label(i) as usize].push(i as u32);
    }

    // Each group holds the test rows sharing one (traced class, row words)
    // key; its first member is the representative that gets traced.
    let groups = row_groups::<S>(test.acts, &traced_class);

    // Trace group chunks on scoped threads, each into a private
    // accumulator; merge below is pure integer addition + index placement.
    let n_threads = if config.parallel {
        plan_threads(n_test.saturating_mul(n_train), groups.len(), PAIR_FLOOR, config.threads)
    } else {
        1
    };
    let process_chunk = |gs: &[Vec<u32>]| -> TraceAcc {
        let mut acc = TraceAcc::new(n_train, n_clients, n_rules);
        for g in gs {
            trace_group_into(train, test, config, g, &traced_class, &denoms, &train_by_class, n_clients, &mut acc);
        }
        acc
    };
    let accs: Vec<TraceAcc> = if n_threads > 1 && groups.len() > 1 {
        let chunk = groups.len().div_ceil(n_threads).max(1);
        let pc = &process_chunk;
        std::thread::scope(|s| {
            let handles: Vec<_> = groups.chunks(chunk).map(|gs| s.spawn(move || pc(gs))).collect();
            handles.into_iter().map(|h| h.join().expect("trace worker panicked")).collect()
        })
    } else {
        vec![process_chunk(&groups)]
    };

    // Merge worker accumulators in chunk order.
    let mut per_test: Vec<Option<TestTrace>> = vec![None; n_test];
    let mut train_benefit_counts = vec![0u32; n_train];
    let mut train_harm_counts = vec![0u32; n_train];
    let mut benefit_cells = vec![0u64; n_clients * n_rules];
    let mut harm_cells = vec![0u64; n_clients * n_rules];
    for acc in accs {
        for (dst, src) in train_benefit_counts.iter_mut().zip(&acc.benefit_counts) {
            *dst += src;
        }
        for (dst, src) in train_harm_counts.iter_mut().zip(&acc.harm_counts) {
            *dst += src;
        }
        for (dst, src) in benefit_cells.iter_mut().zip(&acc.benefit_cells) {
            *dst += src;
        }
        for (dst, src) in harm_cells.iter_mut().zip(&acc.harm_cells) {
            *dst += src;
        }
        for (t, tt) in acc.traces {
            per_test[t as usize] = Some(tt);
        }
    }

    let per_test: Vec<TestTrace> =
        per_test.into_iter().map(|t| t.expect("every test row belongs to a group")).collect();

    TraceOutcome {
        per_test,
        n_clients,
        n_rules,
        train_benefit_counts,
        train_harm_counts,
        client_rule_benefit: cells_to_table(&benefit_cells, test.weights, n_rules),
        client_rule_harm: cells_to_table(&harm_cells, test.weights, n_rules),
    }
}

/// Groups test rows by `(traced class, activation words)`; members of one
/// group have the same related set. The key holds the row words themselves,
/// so a hash collision can only slow a lookup, never merge distinct rows.
/// Groups are returned in order of their first member.
fn row_groups<S: BuildHasher + Default>(acts: &ActivationMatrix, traced_class: &[usize]) -> Vec<Vec<u32>> {
    let mut map: HashMap<(usize, &[u64]), Vec<u32>, S> = HashMap::default();
    for t in 0..acts.n_rows() {
        map.entry((traced_class[t], acts.row_words(t))).or_default().push(t as u32);
    }
    let mut groups: Vec<Vec<u32>> = map.into_values().collect();
    groups.sort_unstable_by_key(|members| members[0]);
    groups
}

/// Entries per word in a [`PopcountScreen`] table, one per popcount `0..=64`.
const SCREEN_ENTRIES: usize = 65;

/// The exact per-word popcount screen of one test group (DESIGN.md §15).
///
/// For the group's masked test words `t`, entry `k` of word `w`'s table is
/// the sum of the `k` largest weights among `t_w`'s set bits. A training
/// row shares exactly `popcount(t_w & row_w)` of those bits, so
/// `Σ_w table_w[popcount(t_w & row_w)]` is at least its Eq. 4 numerator.
struct PopcountScreen {
    masked: Vec<u64>,
    table: Vec<f64>,
}

impl PopcountScreen {
    fn new(rep_words: &[u64], mask: &[u64], weights: &[f64]) -> Self {
        let masked: Vec<u64> = rep_words.iter().zip(mask).map(|(a, m)| a & m).collect();
        let mut table = vec![0.0; masked.len() * SCREEN_ENTRIES];
        let mut top = Vec::with_capacity(64);
        let words = masked.iter().zip(table.chunks_exact_mut(SCREEN_ENTRIES));
        for (wi, (&word, entries)) in words.enumerate() {
            top.clear();
            let mut bits = word;
            while bits != 0 {
                top.push(weights[wi * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
            top.sort_unstable_by(|a: &f64, b| b.total_cmp(a));
            for k in 1..SCREEN_ENTRIES {
                entries[k] = entries[k - 1] + top.get(k - 1).copied().unwrap_or(0.0);
            }
        }
        PopcountScreen { masked, table }
    }

    /// Upper bound on `triple_weight_sum_words(rep, row, mask, weights)`,
    /// up to f64 rounding.
    #[inline]
    fn bound(&self, row: &[u64]) -> f64 {
        let mut ub = 0.0;
        for ((t, r), entries) in self.masked.iter().zip(row).zip(self.table.chunks_exact(SCREEN_ENTRIES)) {
            ub += entries[(t & r).count_ones() as usize];
        }
        ub
    }
}

/// Slack of the screen's cut, as a fraction of the group's denominator.
///
/// The exact numerator is an f64 sum of at most `n_rules` of the
/// denominator's (non-negative) weights; the bound sums per-word prefix
/// sums of at most 64 of them over at most `n_rules` words. A sum of `k`
/// non-negative terms is within `k · ε/2` of its total, so the two are off
/// their real values by under `(n_rules + 32) · ε · denom` together. The
/// slack is at least twice that, and 1e-9 alone covers widths below ~2M
/// rules.
fn screen_slack(n_rules: usize) -> f64 {
    1e-9f64.max(2.0 * (n_rules + 128) as f64 * f64::EPSILON)
}

/// Traces one group of test rows (`members`, from [`row_groups`]) into the
/// worker's accumulator.
///
/// All members share the representative's traced class and activation
/// row (construction invariant), so the related set and the
/// per-related-row rule-overlap profile are computed **once** and applied
/// with integer multipliers — `n_correct` members feed the benefit
/// tables, `n_wrong` the harm tables. On a skewed test set this removes
/// almost all duplicate pair work.
#[allow(clippy::too_many_arguments)]
fn trace_group_into<T: TrainAccess>(
    train: &T,
    test: &TestSide<'_>,
    config: &TraceConfig,
    members: &[u32],
    traced_class: &[usize],
    denoms: &[f64],
    train_by_class: &[Vec<u32>],
    n_clients: usize,
    acc: &mut TraceAcc,
) {
    let rep = members[0] as usize;
    let c = traced_class[rep];
    let denom = denoms[rep];
    let mask = &test.class_masks[c];
    let rep_words = test.acts.row_words(rep);
    let n_rules = test.acts.n_bits();
    let mut related_train = Vec::new();
    let mut related_per_client = vec![0u32; n_clients];

    if denom > 0.0 {
        let threshold = config.tau_w * denom - 1e-12; // tolerate FP rounding at equality
        // A row whose screen bound falls below `cut` cannot reach
        // `threshold`; every other row is decided by the exact sum.
        let screen = PopcountScreen::new(rep_words, mask, test.weights);
        let cut = threshold - screen_slack(n_rules) * denom;
        for &tr in &train_by_class[c] {
            let tr = tr as usize;
            debug_assert_eq!(train.label(tr) as usize, c);
            let row = train.row_words(tr);
            if screen.bound(row) < cut {
                continue;
            }
            let num = triple_weight_sum_words(rep_words, row, mask, test.weights);
            if num >= threshold {
                related_train.push(tr as u32);
                related_per_client[train.client(tr) as usize] += 1;
            }
        }
    }

    let mut n_correct = 0u32;
    let mut n_wrong = 0u32;
    for &t in members {
        if test.predictions[t as usize] == test.labels[t as usize] as usize {
            n_correct += 1;
        } else {
            n_wrong += 1;
        }
    }

    for &tr in &related_train {
        let tr = tr as usize;
        acc.benefit_counts[tr] += n_correct;
        acc.harm_counts[tr] += n_wrong;
        // Rules activated by BOTH the training row and the (shared) test
        // signature within the traced mask, counted once per member via
        // the integer multipliers.
        let base = train.client(tr) as usize * n_rules;
        for (wi, ((aw, bw), mw)) in train.row_words(tr).iter().zip(rep_words).zip(mask).enumerate() {
            let mut bits = aw & bw & mw;
            while bits != 0 {
                let bit = wi * 64 + bits.trailing_zeros() as usize;
                acc.benefit_cells[base + bit] += n_correct as u64;
                acc.harm_cells[base + bit] += n_wrong as u64;
                bits &= bits - 1;
            }
        }
    }

    for &t in members {
        let t = t as usize;
        acc.traces.push((
            t as u32,
            TestTrace {
                predicted: test.predictions[t],
                actual: test.labels[t] as usize,
                traced_class: c,
                denom: denoms[t],
                related_per_client: related_per_client.clone(),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ActivationShard;

    type Figure2 =
        (ActivationMatrix, Vec<u32>, Vec<u32>, ActivationMatrix, Vec<u32>, Vec<usize>, Vec<f64>, Vec<Vec<u64>>);

    /// Builds the paper's Figure 2 scenario directly as activation
    /// matrices: 4 rules (r1+, r2+, r1-, r2-) with weights (1, 1, 1, 0.5),
    /// 3 clients, training data per Figure 2-(b).
    fn figure2() -> Figure2 {
        let weights = vec![1.0, 1.0, 1.0, 0.5];
        let class_masks = vec![
            ActivationMatrix::build_mask(4, [2usize, 3]), // class 0 (negative): r1-, r2-
            ActivationMatrix::build_mask(4, [0usize, 1]), // class 1 (positive): r1+, r2+
        ];
        // Training data:
        //  client A: 4 positive rows that learn r2+ (bit 1).
        //  client B: 6 negative rows with r1- and r2- (bits 2,3).
        //  client C: 2 negative rows with only r1- (bit 2),
        //            plus 1 negative row with r2- only (bit 3) for the FN case.
        let mut train = ActivationMatrix::zeros(0, 4);
        let mut labels = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..4 {
            train.push_row(&[false, true, false, false]).unwrap();
            labels.push(1);
            clients.push(0); // A
        }
        for _ in 0..6 {
            train.push_row(&[false, false, true, true]).unwrap();
            labels.push(0);
            clients.push(1); // B
        }
        for _ in 0..2 {
            train.push_row(&[false, false, true, false]).unwrap();
            labels.push(0);
            clients.push(2); // C
        }
        train.push_row(&[false, false, false, true]).unwrap();
        labels.push(0);
        clients.push(2); // C

        // Test data (Figure 2-(b)):
        //  x1: y=1, r2+ active, predicted 1 (TP, matches A).
        //  x2: y=0, r1+ hypothetically... we encode an FP: predicted 1 with
        //      no positive training matches (activates r1+ only, bit 0).
        //  x3: y=0, r1- and r2- active, predicted 0 (TN, matches B fully and
        //      C at tau_w=0.6 via r1-).
        //  x4: y=1, r2- active, predicted 0 (FN, traced to C's r2- row).
        let mut test = ActivationMatrix::zeros(0, 4);
        test.push_row(&[false, true, false, false]).unwrap();
        test.push_row(&[true, false, false, false]).unwrap();
        test.push_row(&[false, false, true, true]).unwrap();
        test.push_row(&[false, false, false, true]).unwrap();
        let test_labels = vec![1, 0, 0, 1];
        let predictions = vec![1, 1, 0, 0];
        (train, labels, clients, test, test_labels, predictions, weights, class_masks)
    }

    fn run(tau_w: f64) -> TraceOutcome {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        trace(&inputs, &TraceConfig { tau_w, parallel: false, ..TraceConfig::default() }).unwrap()
    }

    #[test]
    fn example_iii3_strict_and_soft_thresholds() {
        // tau_w = 1.0: x3 relates only to B's 6 rows.
        let strict = run(1.0);
        assert_eq!(strict.per_test[2].related_per_client, vec![0, 6, 0]);
        // tau_w = 0.6: C's two r1--only rows also match (2/3 >= 0.6).
        let soft = run(0.6);
        assert_eq!(soft.per_test[2].related_per_client, vec![0, 6, 2]);
    }

    #[test]
    fn four_cases() {
        let out = run(0.6);
        // TP: x1 matches A's 4 rows.
        assert!(out.per_test[0].correct());
        assert_eq!(out.per_test[0].related_per_client, vec![4, 0, 0]);
        // FP: x2 predicted positive, traced class = 1; no training row
        // activates r1+ so nobody is blamed.
        assert!(!out.per_test[1].correct());
        assert_eq!(out.per_test[1].traced_class, 1);
        assert_eq!(out.per_test[1].related_per_client, vec![0, 0, 0]);
        // FN: x4 predicted 0, traced class 0; C's r2--only row matches, and
        // B's rows (r1-+r2-) superset-match too.
        assert!(!out.per_test[3].correct());
        assert_eq!(out.per_test[3].traced_class, 0);
        assert_eq!(out.per_test[3].related_per_client, vec![0, 6, 1]);
        // Harm counts: only rows related to misclassified tests.
        let harm_total: u32 = out.train_harm_counts.iter().sum();
        assert_eq!(harm_total, 7);
    }

    #[test]
    fn benefit_frequencies_follow_matches() {
        let out = run(0.6);
        // Client A's beneficial frequency concentrates on rule 1 (r2+):
        // 4 related rows × weight 1.0.
        assert_eq!(out.benefit_freq(0, 1), 4.0);
        assert_eq!(out.benefit_freq(0, 0), 0.0);
        // Client B on rules 2,3 from x3: 6 rows × (1.0 and 0.5).
        assert_eq!(out.benefit_freq(1, 2), 6.0);
        assert_eq!(out.benefit_freq(1, 3), 3.0);
        // Harm: C's r2- row matched FN x4 (weight 0.5), B's rows too.
        assert_eq!(out.harm_freq(2, 3), 0.5);
        assert_eq!(out.harm_freq(1, 3), 3.0);
    }

    #[test]
    fn accuracy_and_denominators() {
        let out = run(1.0);
        assert_eq!(out.test_accuracy(), 0.5);
        assert_eq!(out.per_test[2].denom, 1.5); // r1- (1.0) + r2- (0.5)
        assert_eq!(out.per_test[0].denom, 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let mut bad_clients = clients.clone();
        bad_clients[0] = 99;
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &bad_clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        assert!(trace(&inputs, &TraceConfig::default()).is_err());

        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let bad_cfg = TraceConfig { tau_w: 0.0, ..TraceConfig::default() };
        assert!(trace(&inputs, &bad_cfg).is_err());
        let bad_cfg = TraceConfig { tau_w: 1.5, ..TraceConfig::default() };
        assert!(trace(&inputs, &bad_cfg).is_err());
    }

    #[test]
    fn multiclass_tracing_follows_traced_class() {
        // 3 classes, one rule per class (bits 0/1/2), unit weights.
        let masks: Vec<Vec<u64>> =
            (0..3).map(|c| ActivationMatrix::build_mask(3, [c])).collect();
        let mut train = ActivationMatrix::zeros(0, 3);
        let mut labels = Vec::new();
        let mut clients = Vec::new();
        // Client c holds 2 rows of class c activating its rule.
        for c in 0..3u32 {
            for _ in 0..2 {
                let bits: Vec<bool> = (0..3).map(|b| b == c as usize).collect();
                train.push_row(&bits).unwrap();
                labels.push(c);
                clients.push(c);
            }
        }
        // Tests: one correct per class, plus one misclassified (true 0,
        // predicted 2).
        let mut test = ActivationMatrix::zeros(0, 3);
        for c in 0..3usize {
            let bits: Vec<bool> = (0..3).map(|b| b == c).collect();
            test.push_row(&bits).unwrap();
        }
        test.push_row(&[false, false, true]).unwrap();
        let test_labels = vec![0, 1, 2, 0];
        let predictions = vec![0usize, 1, 2, 2];
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &predictions,
            weights: &[1.0, 1.0, 1.0],
            class_masks: &masks,
        };
        let out =
            trace(&inputs, &TraceConfig { tau_w: 1.0, parallel: false, ..Default::default() })
                .unwrap();
        // Each correct test relates only to its class's client.
        for c in 0..3 {
            let mut expect = vec![0u32; 3];
            expect[c] = 2;
            assert_eq!(out.per_test[c].related_per_client, expect, "class {c}");
        }
        // The misclassified test traces the WRONG class (2): client 2 is
        // responsible.
        assert_eq!(out.per_test[3].traced_class, 2);
        assert_eq!(out.per_test[3].related_per_client, vec![0, 0, 2]);
    }

    #[test]
    fn reference_oracle_matches_fast_path_exactly() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        for tau_w in [0.6, 0.8, 0.9, 1.0] {
            let config = TraceConfig { tau_w, parallel: false, ..TraceConfig::default() };
            let reference = trace_reference(&inputs, &config).unwrap();
            assert_eq!(trace(&inputs, &config).unwrap(), reference, "tau_w={tau_w}");
        }
    }

    #[test]
    fn forced_thread_counts_are_bit_identical() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let serial = trace(
            &inputs,
            &TraceConfig { tau_w: 0.8, parallel: false, ..TraceConfig::default() },
        )
        .unwrap();
        for threads in 1..=4 {
            let parallel = trace(
                &inputs,
                &TraceConfig { tau_w: 0.8, parallel: true, threads, ..TraceConfig::default() },
            )
            .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn sharded_trace_matches_monolithic() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        // Rebuild the training side as per-client shards in client order
        // (figure2 rows already arrive grouped by client).
        let mut shards: Vec<ActivationShard> = Vec::new();
        for tr in 0..train.n_rows() {
            let client = clients[tr];
            if shards.last().map(|s: &ActivationShard| s.client) != Some(client) {
                shards.push(ActivationShard {
                    client,
                    acts: ActivationMatrix::zeros(0, train.n_bits()),
                    labels: Vec::new(),
                });
            }
            let shard = shards.last_mut().unwrap();
            shard.acts.extend_from_words(1, train.row_words(tr)).unwrap();
            shard.labels.push(labels[tr]);
        }
        let store = ShardedActivations::from_shards(shards).unwrap();
        let mono_inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let sharded_inputs = ShardedTraceInputs {
            train: &store,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        for tau_w in [0.6, 1.0] {
            let cfg = TraceConfig { tau_w, parallel: false, ..TraceConfig::default() };
            let mono = trace(&mono_inputs, &cfg).unwrap();
            let sharded = trace_sharded(&sharded_inputs, &cfg).unwrap();
            assert_eq!(sharded, mono, "tau_w={tau_w}");
        }
    }

    #[test]
    fn sharded_inputs_validated() {
        let (train, labels, _clients, test, test_labels, preds, weights, masks) = figure2();
        let store = ShardedActivations::from_shards(vec![ActivationShard {
            client: 7, // >= n_clients
            acts: train.clone(),
            labels: labels.clone(),
        }])
        .unwrap();
        let inputs = ShardedTraceInputs {
            train: &store,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        assert!(trace_sharded(&inputs, &TraceConfig::default()).is_err());
    }

    /// Hashes every key to 0, so every grouping lookup collides.
    #[derive(Default)]
    struct ConstHasher;

    impl std::hash::Hasher for ConstHasher {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    type ConstState = std::hash::BuildHasherDefault<ConstHasher>;

    #[test]
    fn colliding_group_keys_keep_distinct_rows_apart() {
        let (train, labels, clients, _, _, _, weights, masks) = figure2();
        // Twelve test rows over six distinct (class, row) keys; rows 0/6
        // share words but not the traced class.
        let rows = [[0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]];
        let mut test = ActivationMatrix::zeros(0, 4);
        let (mut test_labels, mut preds) = (Vec::new(), Vec::new());
        for (i, row) in rows.iter().cycle().take(12).enumerate() {
            test.push_row(&row.map(|b| b == 1)).unwrap();
            test_labels.push(1);
            preds.push(if i < 6 { 1 } else { 0 });
        }
        let traced: Vec<usize> = preds.clone();

        let groups = row_groups::<ConstState>(&test, &traced);
        let key = |t: u32| (traced[t as usize], test.row_words(t as usize));
        let mut keys: Vec<_> = groups.iter().map(|m| key(m[0])).collect();
        for members in &groups {
            assert!(members.iter().all(|&t| key(t) == key(members[0])));
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), groups.len(), "two groups share a key");
        assert_eq!(groups.len(), 10, "rows 0 and 5 hold the same words");

        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let train_side = MonoTrain { acts: &train, labels: &labels, client_of: &clients };
        let test_side = TestSide {
            acts: &test,
            labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let config = TraceConfig { tau_w: 0.6, parallel: false, ..TraceConfig::default() };
        let colliding = trace_kernel::<_, ConstState>(&train_side, 3, &test_side, &config);
        assert_eq!(colliding, trace_reference(&inputs, &config).unwrap());
    }

    #[test]
    fn rejects_non_finite_or_negative_weights() {
        let (train, labels, clients, test, test_labels, preds, _, masks) = figure2();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let weights = [1.0, bad, 1.0, 0.5];
            let inputs = TraceInputs {
                train_acts: &train,
                train_labels: &labels,
                client_of: &clients,
                n_clients: 3,
                test_acts: &test,
                test_labels: &test_labels,
                predictions: &preds,
                weights: &weights,
                class_masks: &masks,
            };
            assert!(
                matches!(
                    trace(&inputs, &TraceConfig::default()),
                    Err(CoreError::InvalidParameter { name: "weights", .. })
                ),
                "weight {bad}"
            );
        }
    }

    #[test]
    fn sharded_inputs_reject_non_finite_or_negative_weights() {
        let (train, labels, _, test, test_labels, preds, _, masks) = figure2();
        let store = ShardedActivations::from_shards(vec![ActivationShard {
            client: 0,
            acts: train.clone(),
            labels: labels.clone(),
        }])
        .unwrap();
        for bad in [f64::NEG_INFINITY, f64::NAN, -0.5] {
            let weights = [1.0, 1.0, bad, 0.5];
            let inputs = ShardedTraceInputs {
                train: &store,
                n_clients: 1,
                test_acts: &test,
                test_labels: &test_labels,
                predictions: &preds,
                weights: &weights,
                class_masks: &masks,
            };
            assert!(
                matches!(
                    trace_sharded(&inputs, &TraceConfig::default()),
                    Err(CoreError::InvalidParameter { name: "weights", .. })
                ),
                "weight {bad}"
            );
        }
    }

    #[test]
    fn zero_denominator_relates_nothing() {
        // A test row with no activated rules in its traced class.
        let mut train = ActivationMatrix::zeros(0, 2);
        train.push_row(&[true, false]).unwrap();
        let mut test = ActivationMatrix::zeros(0, 2);
        test.push_row(&[false, false]).unwrap();
        let masks =
            vec![ActivationMatrix::build_mask(2, [1usize]), ActivationMatrix::build_mask(2, [0usize])];
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &[1],
            client_of: &[0],
            n_clients: 1,
            test_acts: &test,
            test_labels: &[1],
            predictions: &[1],
            weights: &[1.0, 1.0],
            class_masks: &masks,
        };
        let out = trace(&inputs, &TraceConfig { parallel: false, ..TraceConfig::default() }).unwrap();
        assert_eq!(out.per_test[0].related_per_client, vec![0]);
        assert_eq!(out.per_test[0].denom, 0.0);
    }
}
