//! The three workloads: how each is set up from a seed, its op through the
//! public façade, and the same op replayed layer by layer under spans.
//!
//! * `ttt_pipeline` — the Fig. 5 pipeline on exact tic-tac-toe: FedAvg,
//!   rule extraction, `CtflEstimator::estimate`.
//! * `adult_score` — `estimate` on the paper-size adult-shaped federation
//!   with a rule model of trained width.
//! * `private_1k` — `PrivateScoring::score_hardened` over 1,000 clients'
//!   randomized-response activation uploads, 5% of them inflated.
//!
//! The replays call the same public functions as the façades, with the
//! same inputs and in the same order, so their outputs are bitwise equal
//! ([`OpOutput::same_bits`]); only the spans around the calls are added.

use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{default_fl, Federation, FederationConfig};
use ctfl_core::activation::ActivationMatrix;
use ctfl_core::allocation::{macro_scores, micro_scores, CreditDirection};
use ctfl_core::data::Dataset;
use ctfl_core::error::Result;
use ctfl_core::estimator::{ContributionReport, CtflConfig, CtflEstimator};
use ctfl_core::interpret::{client_profiles, coverage_gaps};
use ctfl_core::model::RuleModel;
use ctfl_core::robustness::{analyze_with_participation, UploadAuditConfig};
use ctfl_core::tracing::{inputs_from_model, trace, trace_sharded, ShardedTraceInputs, TraceConfig, TraceParts};
use ctfl_data::partition::skew_label;
use ctfl_data::split::train_test_split;
use ctfl_data::synthetic::{federated_shards, SyntheticConfig};
use ctfl_fl::adversary::AdversaryPlan;
use ctfl_fl::aggregate::WeightedFedAvg;
use ctfl_fl::engine::FederationEngine;
use ctfl_fl::faults::FaultPlan;
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::GuardConfig;
use ctfl_fl::privacy::{assemble_sharded, ActivationUpload, HardenedScores, PrivacyConfig, PrivateScoring};
use ctfl_fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_nn::net::LogicalNet;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

use crate::spans::Recorder;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 pipeline on exact tic-tac-toe.
    TttPipeline,
    /// Paper-size adult-shaped scoring.
    AdultScore,
    /// Hardened private scoring over 1,000 clients' uploads.
    Private1k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::TttPipeline, Workload::AdultScore, Workload::Private1k];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TttPipeline => "ttt_pipeline",
            Workload::AdultScore => "adult_score",
            Workload::Private1k => "private_1k",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Scale of the adult-shaped federation the rule model is trained on.
pub const MODEL_SCALE: f64 = 0.1;

/// Scale of the adult-shaped federation `adult_score` scores (paper size).
pub const SCORE_SCALE: f64 = 1.0;

/// Adult-shaped rows uploaded in `private_1k`.
pub const PRIVATE_ROWS: usize = 50_000;

/// Uploading clients in `private_1k`.
pub const PRIVATE_CLIENTS: usize = 1_000;

/// Share of `private_1k` clients that inflate their uploads.
pub const GAMING_FRAC: f64 = 0.05;

/// Randomized-response flip probability of every `private_1k` upload.
pub const FLIP_PROBABILITY: f64 = 0.05;

/// `ttt_pipeline` state: the tic-tac-toe federation (8 skew-label clients,
/// α = 0.8) the op trains with `default_fl()` and scores.
pub struct TttState {
    /// Federation the op trains and scores.
    pub fed: Federation,
}

/// `adult_score` state: a trained rule model and the federation it scores.
pub struct AdultState {
    /// Estimator around the model trained on the small federation.
    pub estimator: CtflEstimator,
    /// The scored federation.
    pub fed: Federation,
}

/// `private_1k` state: what the server holds before scoring.
pub struct PrivateState {
    /// The public rule model.
    pub model: RuleModel,
    /// Test activations (the server owns `D_te`).
    pub test_acts: ActivationMatrix,
    /// Test labels.
    pub test_labels: Vec<u32>,
    /// Model predictions on the test rows.
    pub predictions: Vec<usize>,
    /// Model accuracy on the test rows.
    pub test_accuracy: f64,
    /// Every client's upload, gamers' already rewritten.
    pub uploads: Vec<ActivationUpload>,
    /// Rows each client declared at enrollment.
    pub declared_rows: Vec<usize>,
    /// The planted inflators, ascending.
    pub gamers: Vec<usize>,
    /// Number of clients.
    pub n_clients: usize,
}

impl PrivateState {
    /// The server-side scoring service over this state.
    pub fn scoring(&self) -> PrivateScoring<'_> {
        PrivateScoring::new(
            &self.model,
            &self.test_acts,
            &self.test_labels,
            &self.predictions,
            self.n_clients,
            TraceConfig::default(),
        )
    }
}

/// A workload's set-up state.
// A run holds one, so variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum State {
    /// See [`TttState`].
    Ttt(TttState),
    /// See [`AdultState`].
    Adult(AdultState),
    /// See [`PrivateState`].
    Private(PrivateState),
}

impl State {
    /// Training rows one op scores.
    pub fn train_rows(&self) -> usize {
        match self {
            State::Ttt(s) => s.fed.train.len(),
            State::Adult(s) => s.fed.train.len(),
            State::Private(s) => s.uploads.iter().map(|u| u.labels.len()).sum(),
        }
    }

    /// Test rows one op traces.
    pub fn test_rows(&self) -> usize {
        match self {
            State::Ttt(s) => s.fed.test.len(),
            State::Adult(s) => s.fed.test.len(),
            State::Private(s) => s.test_labels.len(),
        }
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        match self {
            State::Ttt(s) => s.fed.partition.n_clients,
            State::Adult(s) => s.fed.partition.n_clients,
            State::Private(s) => s.n_clients,
        }
    }
}

/// What one op returns.
#[derive(Debug, Clone)]
pub enum OpOutput {
    /// `estimate`'s report, plus the trained model for `ttt_pipeline`.
    Report(Box<ContributionReport>, Option<TrainedModel>),
    /// `score_hardened`'s output, with the model's test accuracy.
    Hardened(HardenedScores, f64),
}

/// A model trained inside an op.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The extracted rule model.
    pub model: RuleModel,
    /// FNV-1a over the global network's parameter bits.
    pub params_hash: u64,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over a stream of words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl OpOutput {
    /// Micro scores, or hardened scores for `private_1k`.
    pub fn scores(&self) -> &[f64] {
        match self {
            OpOutput::Report(r, _) => &r.micro,
            OpOutput::Hardened(h, _) => &h.scores,
        }
    }

    /// Macro scores (empty for `private_1k`).
    pub fn macro_(&self) -> &[f64] {
        match self {
            OpOutput::Report(r, _) => &r.macro_,
            OpOutput::Hardened(..) => &[],
        }
    }

    /// Clients the upload audit flagged (empty outside `private_1k`).
    pub fn flagged(&self) -> &[usize] {
        match self {
            OpOutput::Report(..) => &[],
            OpOutput::Hardened(h, _) => &h.audit.flagged,
        }
    }

    /// Test accuracy of the scored model.
    pub fn test_accuracy(&self) -> f64 {
        match self {
            OpOutput::Report(r, _) => r.test_accuracy,
            OpOutput::Hardened(_, acc) => *acc,
        }
    }

    /// Digest of the scores, pinned per seed: micro and macro bits, then
    /// the flagged clients.
    pub fn score_hash(&self) -> u64 {
        fnv1a(
            bits(self.scores())
                .into_iter()
                .chain(bits(self.macro_()))
                .chain(self.flagged().iter().map(|&c| c as u64)),
        )
    }

    /// True when two outputs agree bit for bit in every field.
    pub fn same_bits(&self, other: &OpOutput) -> bool {
        let head = bits(self.scores()) == bits(other.scores())
            && self.test_accuracy().to_bits() == other.test_accuracy().to_bits();
        head && match (self, other) {
            (OpOutput::Report(a, ma), OpOutput::Report(b, mb)) => {
                bits(&a.macro_) == bits(&b.macro_)
                    && bits(&a.loss) == bits(&b.loss)
                    && bits(&a.micro_effective) == bits(&b.micro_effective)
                    && bits(&a.participation_rate) == bits(&b.participation_rate)
                    && a.trace == b.trace
                    && a.robustness == b.robustness
                    && a.profiles == b.profiles
                    && a.coverage_gaps == b.coverage_gaps
                    && ma.as_ref().map(|m| m.params_hash) == mb.as_ref().map(|m| m.params_hash)
                    && ma.as_ref().map(|m| m.model.rules()) == mb.as_ref().map(|m| m.model.rules())
            }
            (OpOutput::Hardened(a, _), OpOutput::Hardened(b, _)) => a.audit == b.audit,
            _ => false,
        }
    }

    /// Rules in the scored model.
    pub fn model<'a>(&'a self, state: &'a State) -> &'a RuleModel {
        match (self, state) {
            (OpOutput::Report(_, Some(t)), _) => &t.model,
            (_, State::Adult(s)) => s.estimator.model(),
            (_, State::Private(s)) => &s.model,
            (_, State::Ttt(_)) => unreachable!("ttt_pipeline ops carry their trained model"),
        }
    }
}

/// Trains `fed`'s global model and extracts its rules. Untraced, this is
/// the façade `Federation::train_global`; traced, the same work is
/// replayed as `FederationEngine::step_round` per round (no faults,
/// strict guard, weighted FedAvg — exactly what `train_federated` builds)
/// followed by `extract_rules`.
pub fn train_model(
    fed: &Federation,
    fl: &FlConfig,
    rec: &mut Recorder,
) -> Result<TrainedModel> {
    if !rec.enabled() {
        let (net, model) = fed.train_global(fl);
        return Ok(TrainedModel { model, params_hash: params_hash(&net) });
    }
    let net = rec.span("fl.train", |rec| train_stepped(fed, fl, rec))?;
    let model = rec.span("nn.extract", |_| extract_rules(&net, ExtractOptions::default()))?;
    Ok(TrainedModel { model, params_hash: params_hash(&net) })
}

/// FNV-1a over a network's parameter bits.
pub fn params_hash(net: &LogicalNet) -> u64 {
    fnv1a(net.params().into_iter().map(|p| p.to_bits() as u64))
}

/// FedAvg stepped one round at a time through the engine, counting rounds
/// and client local-training runs.
pub fn train_stepped(fed: &Federation, fl: &FlConfig, rec: &mut Recorder) -> Result<LogicalNet> {
    let shards = fed.client_datasets();
    let n = shards.len();
    let faults = FaultPlan::none(n, fl.rounds);
    let adversary = AdversaryPlan::none(n);
    let guard = GuardConfig::strict();
    let setup = ByzantineSetup { faults: &faults, adversary: &adversary, guard: &guard, aggregator: &WeightedFedAvg };
    let mut engine = rec.span("fl.encode", |_| {
        FederationEngine::from_datasets(&shards, fed.train.n_classes(), &fed.net_config, fl, &setup)
    })?;
    while !engine.is_finished() {
        let trained = rec.span("fl.round", |_| engine.step_round().map(|r| r.map_or(0, |r| r.entries.len())))?;
        rec.count("fl.rounds", 1);
        rec.count("fl.local_trainings", trained as u64);
    }
    Ok(engine.finish().net)
}

/// Seed of the data corpus, and of everything a workload keeps fixed.
///
/// The run seed drives only randomness that should leave an op's cost
/// alone:
/// * `ttt_pipeline`: the logical net's initialisation;
/// * `adult_score`: the train/test split and client partition of the
///   scored federation;
/// * `private_1k`: the randomized-response draws and which clients game.
///
/// The rows, the federation the rule model is trained on, and so the model
/// itself stay fixed. On the 10%-scale adult federation (2-core x86 box),
/// drawing the rows and layout from the seed moved FedAvg time 3.0–9.8 s
/// over seven seeds. Drawing only the net's initialisation moved it
/// 2.8–3.1 s. The trace's cost follows the rule model, so the scoring
/// workloads keep the model fixed as well.
pub const CORPUS_SEED: u64 = 1;

/// [`Federation::build`] over the fixed corpus, with the net initialised
/// from `net_seed`. With `net_seed` at [`CORPUS_SEED`] it is exactly
/// `Federation::build` at [`CORPUS_SEED`].
pub fn federation(spec: DatasetSpec, scale: f64, net_seed: u64) -> Federation {
    let mut fed = Federation::build(FederationConfig::new(spec, scale, CORPUS_SEED));
    fed.net_config.seed = net_seed ^ 0x5EED;
    fed
}

/// The fixed corpus of `template`'s dataset at `scale`, split and
/// partitioned as [`Federation::build`] does but with the split and
/// partition drawn from `layout_seed`. The net configuration, which does
/// not depend on the scale, is `template`'s. With `layout_seed` at
/// [`CORPUS_SEED`] and `template` from [`federation`] at [`CORPUS_SEED`],
/// it is exactly `Federation::build` at `scale` and [`CORPUS_SEED`].
pub fn relayout(template: &Federation, scale: f64, layout_seed: u64) -> Federation {
    let config = FederationConfig { scale, ..template.config.clone() };
    let data = config.spec.load(scale, CORPUS_SEED);
    let mut rng = StdRng::seed_from_u64(layout_seed);
    let (train, test) = train_test_split(&data, config.test_fraction, true, &mut rng);
    let partition = skew_label(train.labels(), train.n_classes(), config.n_clients, config.alpha, &mut rng);
    Federation { config, train, test, partition, net_config: template.net_config.clone() }
}

/// The preset behind `ctfl_data::adult_like`, at an explicit row count.
pub fn adult_config(n_instances: usize) -> SyntheticConfig {
    SyntheticConfig {
        n_instances,
        n_continuous: 6,
        n_discrete: 8,
        discrete_arity: 6,
        n_terms: 5,
        term_len: 2,
        label_noise: 0.12,
        seed: CORPUS_SEED,
    }
}

/// The federation the adult-shaped rule model is trained on.
fn adult_model(rec: &mut Recorder) -> Result<(Federation, RuleModel)> {
    let fed = rec.span("data.build", |_| federation(DatasetSpec::AdultLike, MODEL_SCALE, CORPUS_SEED));
    let trained = train_model(&fed, &default_fl(), rec)?;
    Ok((fed, trained.model))
}

/// Builds a workload's state from its seed. Everything here is set-up.
pub fn setup(w: Workload, seed: u64, rec: &mut Recorder) -> Result<State> {
    match w {
        Workload::TttPipeline => {
            let fed = rec.span("data.build", |_| federation(DatasetSpec::TicTacToe, 1.0, seed));
            Ok(State::Ttt(TttState { fed }))
        }
        Workload::AdultScore => {
            let (model_fed, model) = adult_model(rec)?;
            let fed = rec.span("data.build", |_| relayout(&model_fed, SCORE_SCALE, seed));
            Ok(State::Adult(AdultState { estimator: CtflEstimator::new(model, CtflConfig::default()), fed }))
        }
        Workload::Private1k => {
            let (model_fed, model) = adult_model(rec)?;
            let (test_acts, predictions) = rec.span("core.activation", |_| {
                let acts = model.activation_matrix(&model_fed.test, false)?;
                let preds: Vec<usize> =
                    (0..acts.n_rows()).map(|i| model.classify_from_activations(&acts, i)).collect();
                Result::Ok((acts, preds))
            })?;
            let test_labels = model_fed.test.labels().to_vec();
            let correct = predictions.iter().zip(&test_labels).filter(|(p, &l)| **p == l as usize).count();
            let test_accuracy = correct as f64 / test_labels.len() as f64;
            let shards = rec.span("data.build", |_| {
                federated_shards(&adult_config(PRIVATE_ROWS), PRIVATE_CLIENTS).0
            });
            let privacy = PrivacyConfig { flip_probability: FLIP_PROBABILITY };
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5_u64);
            let mut uploads = rec.span("privacy.upload", |_| {
                shards
                    .iter()
                    .enumerate()
                    .map(|(c, shard)| ActivationUpload::compute(c, &model, shard, &privacy, &mut rng))
                    .collect::<Result<Vec<_>>>()
            })?;
            let plan = ScoreAttackPlan::generate(
                PRIVATE_CLIENTS,
                GAMING_FRAC,
                ScoreAttackKind::Inflate { all_classes: false },
                seed ^ 0x6A3E,
            );
            let gamers = plan.gamers();
            rec.span("privacy.attack", |_| {
                ScoreAttackInjector::new(plan, seed ^ 0x17).rewrite_uploads(&mut uploads, model.class_masks_all())
            });
            Ok(State::Private(PrivateState {
                model,
                test_acts,
                test_labels,
                predictions,
                test_accuracy,
                declared_rows: shards.iter().map(Dataset::len).collect(),
                uploads,
                gamers,
                n_clients: PRIVATE_CLIENTS,
            }))
        }
    }
}

/// One op through the public façade, untraced.
pub fn op(state: &State) -> Result<OpOutput> {
    match state {
        State::Ttt(s) => {
            let (net, model) = s.fed.train_global(&default_fl());
            let trained = TrainedModel { model: model.clone(), params_hash: params_hash(&net) };
            let report = CtflEstimator::new(model, CtflConfig::default()).estimate(
                &s.fed.train,
                &s.fed.partition.client_of,
                &s.fed.test,
            )?;
            Ok(OpOutput::Report(Box::new(report), Some(trained)))
        }
        State::Adult(s) => {
            let report = s.estimator.estimate(&s.fed.train, &s.fed.partition.client_of, &s.fed.test)?;
            Ok(OpOutput::Report(Box::new(report), None))
        }
        State::Private(s) => {
            let h = s.scoring().score_hardened(&s.uploads, Some(&s.declared_rows), &UploadAuditConfig::default())?;
            Ok(OpOutput::Hardened(h, s.test_accuracy))
        }
    }
}

/// One op replayed through the functions its façade calls, each call
/// wrapped in a span. `rec` must be enabled.
pub fn op_traced(state: &State, rec: &mut Recorder) -> Result<OpOutput> {
    rec.span("op", |rec| match state {
        State::Ttt(s) => {
            let trained = train_model(&s.fed, &default_fl(), rec)?;
            let est = CtflEstimator::new(trained.model.clone(), CtflConfig::default());
            let report = estimate_traced(&est, &s.fed.train, &s.fed.partition.client_of, &s.fed.test, rec)?;
            Ok(OpOutput::Report(Box::new(report), Some(trained)))
        }
        State::Adult(s) => {
            let report =
                estimate_traced(&s.estimator, &s.fed.train, &s.fed.partition.client_of, &s.fed.test, rec)?;
            Ok(OpOutput::Report(Box::new(report), None))
        }
        State::Private(s) => Ok(OpOutput::Hardened(score_hardened_traced(s, rec)?, s.test_accuracy)),
    })
}

/// `CtflEstimator::estimate` replayed: activation ×2 → trace →
/// micro/macro → robustness → profiles and coverage gaps.
pub fn estimate_traced(
    est: &CtflEstimator,
    train: &Dataset,
    client_of: &[u32],
    test: &Dataset,
    rec: &mut Recorder,
) -> Result<ContributionReport> {
    let model = est.model();
    let cfg = est.config();
    let n_clients = client_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let (train_acts, test_acts, predictions) = rec.span("core.activation", |_| {
        let train_acts = model.activation_matrix(train, cfg.parallel)?;
        let test_acts = model.activation_matrix(test, cfg.parallel)?;
        let predictions: Vec<usize> =
            (0..test.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
        Result::Ok((train_acts, test_acts, predictions))
    })?;
    let correct = predictions.iter().zip(test.labels()).filter(|(p, &l)| **p == l as usize).count();
    let test_accuracy = correct as f64 / test.len() as f64;
    let inputs = inputs_from_model(
        model,
        TraceParts {
            train_acts: &train_acts,
            train_labels: train.labels(),
            client_of,
            n_clients,
            test_acts: &test_acts,
            test_labels: test.labels(),
            predictions: &predictions,
        },
    );
    let trace_cfg = TraceConfig { tau_w: cfg.tau_w, parallel: cfg.parallel, threads: 0, grouping: cfg.grouping };
    let outcome = rec.span("core.trace", |_| trace(&inputs, &trace_cfg))?;
    let (micro, macro_, loss) = rec.span("core.allocation", |_| {
        let micro = micro_scores(&outcome, CreditDirection::Gain);
        let macro_ = macro_scores(&outcome, cfg.delta, CreditDirection::Gain)?;
        let loss = micro_scores(&outcome, CreditDirection::Loss);
        Result::Ok((micro, macro_, loss))
    })?;
    let robustness =
        rec.span("core.robustness", |_| analyze_with_participation(&outcome, client_of, None, &cfg.robustness))?;
    let participation_rate = vec![1.0; n_clients];
    let micro_effective: Vec<f64> = micro.iter().zip(&participation_rate).map(|(m, r)| m * r).collect();
    let (profiles, gaps) = rec.span("core.interpret", |_| {
        let profiles = client_profiles(&outcome, client_of, cfg.interpret_top_k);
        let gaps = coverage_gaps(&outcome, &test_acts, model.weights(), cfg.coverage_min_related, cfg.interpret_top_k);
        (profiles, gaps)
    });
    Ok(ContributionReport {
        micro,
        macro_,
        loss,
        participation_rate,
        micro_effective,
        test_accuracy,
        robustness,
        profiles,
        coverage_gaps: gaps,
        trace: outcome,
    })
}

/// `PrivateScoring::score_hardened` replayed: audit → assemble_sharded →
/// trace_sharded → micro_scores.
pub fn score_hardened_traced(s: &PrivateState, rec: &mut Recorder) -> Result<HardenedScores> {
    let scoring = s.scoring();
    let audit =
        rec.span("privacy.audit", |_| scoring.audit(&s.uploads, Some(&s.declared_rows), &UploadAuditConfig::default()))?;
    if audit.flagged.len() >= s.uploads.len() {
        return Ok(HardenedScores { scores: vec![0.0; s.n_clients], audit });
    }
    let store = rec.span("privacy.assemble", |_| assemble_sharded(&s.uploads, &audit.flagged))?;
    let inputs = ShardedTraceInputs {
        train: &store,
        n_clients: s.n_clients,
        test_acts: &s.test_acts,
        test_labels: &s.test_labels,
        predictions: &s.predictions,
        weights: s.model.weights(),
        class_masks: s.model.class_masks_all(),
    };
    let outcome = rec.span("core.trace_sharded", |_| trace_sharded(&inputs, &TraceConfig::default()))?;
    let scores = rec.span("core.allocation", |_| micro_scores(&outcome, CreditDirection::Gain));
    Ok(HardenedScores { scores, audit })
}
