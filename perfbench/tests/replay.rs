//! The benchmark's own guarantees:
//! * a traced replay returns bit for bit what the untraced façade returns;
//! * FedAvg stepped round by round through the engine gives the same
//!   parameter bits as `train_federated`;
//! * on every workload's real inputs, the fast trace kernel equals the
//!   pinned `trace_reference` oracle on a bounded subset of test rows.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the reference checks build the paper-size workloads.

use ctfl_bench::federation::default_fl;
use ctfl_core::activation::ActivationMatrix;
use ctfl_core::model::RuleModel;
use ctfl_core::tracing::{
    inputs_from_model, trace, trace_reference, trace_sharded, ShardedTraceInputs, TraceConfig, TraceParts,
};
use ctfl_fl::privacy::assemble_sharded;
use perfbench::spans::Recorder;
use perfbench::workload::{op, op_traced, params_hash, setup, train_model, train_stepped, State, Workload};

/// Test rows checked against the oracle per workload.
const REFERENCE_ROWS: usize = 24;

#[test]
fn traced_replay_is_bitwise_the_facade() {
    for w in Workload::ALL {
        let plain = setup(w, 3, &mut Recorder::disabled()).unwrap();
        let mut rec = Recorder::new();
        let traced = setup(w, 3, &mut rec).unwrap();
        rec.set_op(0);
        let facade = op(&plain).unwrap();
        let replay = op_traced(&traced, &mut rec).unwrap();
        assert!(facade.same_bits(&replay), "{}: replay differs from the façade", w.name());
        assert_eq!(facade.score_hash(), replay.score_hash());
        assert!(rec.durations_s("op").len() == 1, "{}: one op span", w.name());
    }
}

#[test]
fn engine_stepped_training_matches_train_federated() {
    let State::Ttt(s) = setup(Workload::TttPipeline, 5, &mut Recorder::disabled()).unwrap() else {
        unreachable!()
    };
    let fl = default_fl();
    let (net, _) = s.fed.train_global(&fl);
    let stepped = train_stepped(&s.fed, &fl, &mut Recorder::new()).unwrap();
    let a: Vec<u32> = net.params().iter().map(|p| p.to_bits()).collect();
    let b: Vec<u32> = stepped.params().iter().map(|p| p.to_bits()).collect();
    assert_eq!(a, b, "engine-stepped parameters differ from train_federated's");
    assert_eq!(params_hash(&net), params_hash(&stepped));
}

/// Every `n / REFERENCE_ROWS`-th test row, as its own small test side.
fn test_subset(acts: &ActivationMatrix, labels: &[u32], preds: &[usize]) -> (ActivationMatrix, Vec<u32>, Vec<usize>) {
    let step = (acts.n_rows() / REFERENCE_ROWS).max(1);
    let rows: Vec<usize> = (0..acts.n_rows()).step_by(step).take(REFERENCE_ROWS).collect();
    let words: Vec<u64> = rows.iter().flat_map(|&r| acts.row_words(r).iter().copied()).collect();
    let sub = ActivationMatrix::from_words(rows.len(), acts.n_bits(), words).unwrap();
    (sub, rows.iter().map(|&r| labels[r]).collect(), rows.iter().map(|&r| preds[r]).collect())
}

fn predictions(model: &RuleModel, acts: &ActivationMatrix) -> Vec<usize> {
    (0..acts.n_rows()).map(|i| model.classify_from_activations(acts, i)).collect()
}

/// Fast monolithic trace vs the oracle, on the estimator's own inputs.
fn check_estimator_inputs(model: &RuleModel, fed: &ctfl_bench::federation::Federation) {
    let train_acts = model.activation_matrix(&fed.train, true).unwrap();
    let test_acts = model.activation_matrix(&fed.test, true).unwrap();
    let preds = predictions(model, &test_acts);
    let (sub, labels, preds) = test_subset(&test_acts, fed.test.labels(), &preds);
    let inputs = inputs_from_model(
        model,
        TraceParts {
            train_acts: &train_acts,
            train_labels: fed.train.labels(),
            client_of: &fed.partition.client_of,
            n_clients: fed.partition.n_clients,
            test_acts: &sub,
            test_labels: &labels,
            predictions: &preds,
        },
    );
    let cfg = TraceConfig::default();
    assert_eq!(trace(&inputs, &cfg).unwrap(), trace_reference(&inputs, &cfg).unwrap());
}

#[test]
fn fast_trace_matches_reference_on_ttt_pipeline() {
    let State::Ttt(s) = setup(Workload::TttPipeline, 1, &mut Recorder::disabled()).unwrap() else {
        unreachable!()
    };
    let trained = train_model(&s.fed, &default_fl(), &mut Recorder::disabled()).unwrap();
    check_estimator_inputs(&trained.model, &s.fed);
}

#[test]
fn fast_trace_matches_reference_on_adult_score() {
    let State::Adult(s) = setup(Workload::AdultScore, 1, &mut Recorder::disabled()).unwrap() else {
        unreachable!()
    };
    check_estimator_inputs(s.estimator.model(), &s.fed);
}

#[test]
fn fast_trace_matches_reference_on_private_1k() {
    let State::Private(s) = setup(Workload::Private1k, 1, &mut Recorder::disabled()).unwrap() else {
        unreachable!()
    };
    let store = assemble_sharded(&s.uploads, &s.gamers).unwrap();
    let (sub, labels, preds) = test_subset(&s.test_acts, &s.test_labels, &s.predictions);
    let cfg = TraceConfig::default();
    let fast = trace_sharded(
        &ShardedTraceInputs {
            train: &store,
            n_clients: s.n_clients,
            test_acts: &sub,
            test_labels: &labels,
            predictions: &preds,
            weights: s.model.weights(),
            class_masks: s.model.class_masks_all(),
        },
        &cfg,
    )
    .unwrap();
    let (acts, train_labels, client_of) = store.to_matrix().unwrap();
    let reference = trace_reference(
        &inputs_from_model(
            &s.model,
            TraceParts {
                train_acts: &acts,
                train_labels: &train_labels,
                client_of: &client_of,
                n_clients: s.n_clients,
                test_acts: &sub,
                test_labels: &labels,
                predictions: &preds,
            },
        ),
        &cfg,
    )
    .unwrap();
    assert_eq!(fast, reference);
}
