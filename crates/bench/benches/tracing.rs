//! **E8** — tracing throughput: the `O(|D_te| · |D_N|)` comparison of
//! paper Section III-C ("Efficient Computation of CTFL"). Times the trace
//! kernel (one trace per distinct test row, word-parallel popcount screen),
//! serial and parallel, against the pinned per-bit oracle
//! `trace_reference` as the baseline, on archetype-redundant activation
//! data where test-row grouping has the most to gain. The kernel's outcome
//! is asserted equal to the oracle's before anything is timed.

use ctfl_core::activation::ActivationMatrix;
use ctfl_core::tracing::{trace, trace_reference, TraceConfig, TraceInputs};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::Rng;
use ctfl_rng::SeedableRng;
use ctfl_testkit::Bencher;

struct Setup {
    train: ActivationMatrix,
    train_labels: Vec<u32>,
    client_of: Vec<u32>,
    test: ActivationMatrix,
    test_labels: Vec<u32>,
    predictions: Vec<usize>,
    weights: Vec<f64>,
    masks: Vec<Vec<u64>>,
}

/// Synthetic activation data with realistic redundancy: instances cluster
/// around a handful of archetype activation patterns.
fn setup(n_train: usize, n_test: usize, n_rules: usize) -> Setup {
    let mut rng = StdRng::seed_from_u64(99);
    let n_archetypes = 24;
    let archetypes: Vec<Vec<bool>> = (0..n_archetypes)
        .map(|_| (0..n_rules).map(|_| rng.gen_bool(0.12)).collect())
        .collect();
    let sample = |rng: &mut StdRng| -> (Vec<bool>, u32) {
        let a = rng.gen_range(0..n_archetypes) as usize;
        let mut bits = archetypes[a].clone();
        // Small perturbation keeps some rows unique.
        if rng.gen_bool(0.3) {
            let flip = rng.gen_range(0..n_rules);
            bits[flip] = !bits[flip];
        }
        (bits, (a % 2) as u32)
    };
    let mut train = ActivationMatrix::zeros(0, n_rules);
    let mut train_labels = Vec::new();
    let mut client_of = Vec::new();
    for i in 0..n_train {
        let (bits, label) = sample(&mut rng);
        train.push_row(&bits).unwrap();
        train_labels.push(label);
        client_of.push((i % 8) as u32);
    }
    let mut test = ActivationMatrix::zeros(0, n_rules);
    let mut test_labels = Vec::new();
    let mut predictions = Vec::new();
    for _ in 0..n_test {
        let (bits, label) = sample(&mut rng);
        test.push_row(&bits).unwrap();
        test_labels.push(label);
        predictions.push(if rng.gen_bool(0.9) { label as usize } else { 1 - label as usize });
    }
    let weights: Vec<f64> = (0..n_rules).map(|_| 0.25 + rng.gen::<f64>()).collect();
    let masks = vec![
        ActivationMatrix::build_mask(n_rules, (0..n_rules).filter(|r| r % 2 == 0)),
        ActivationMatrix::build_mask(n_rules, (0..n_rules).filter(|r| r % 2 == 1)),
    ];
    Setup { train, train_labels, client_of, test, test_labels, predictions, weights, masks }
}

fn bench_tracing() {
    let s = setup(4000, 800, 128);
    let inputs = TraceInputs {
        train_acts: &s.train,
        train_labels: &s.train_labels,
        client_of: &s.client_of,
        n_clients: 8,
        test_acts: &s.test,
        test_labels: &s.test_labels,
        predictions: &s.predictions,
        weights: &s.weights,
        class_masks: &s.masks,
    };
    let serial = TraceConfig { tau_w: 0.9, parallel: false, ..TraceConfig::default() };
    let parallel = TraceConfig { parallel: true, ..serial };
    assert_eq!(trace(&inputs, &serial).unwrap(), trace_reference(&inputs, &serial).unwrap());

    let mut group = Bencher::new("tracing_4000x800");
    group.sample_size(10).warmup(1);
    group.bench("trace_reference", || trace_reference(&inputs, &serial).unwrap());
    group.bench("kernel/serial", || trace(&inputs, &serial).unwrap());
    group.bench("kernel/parallel", || trace(&inputs, &parallel).unwrap());
}

fn main() {
    bench_tracing();
}
