//! Property tests for the scale plane (PR "million-row data plane"):
//! sharded activation stores, the word-parallel chunked trace kernel, and
//! parallel coalition sweeps must all be **bitwise** equal to their serial
//! / monolithic references on arbitrary inputs — not approximately, not
//! modulo float re-association.
//!
//! Every failing case prints its seed; replay with
//! `CTFL_PROP_SEED=<seed> cargo test -q <test_name>`.

use ctfl::core::activation::ActivationMatrix;
use ctfl::core::batch::CompiledRules;
use ctfl::core::data::DatasetView;
use ctfl::core::shard::{ActivationShard, ShardedActivations};
use ctfl::core::tracing::{
    trace, trace_reference, trace_sharded, ShardedTraceInputs, TraceConfig, TraceInputs,
};
use ctfl::data::synthetic::{federated_shards, generate, SyntheticConfig, SyntheticStream};
use ctfl::data::Partition;
use ctfl::valuation::coalition::Coalition;
use ctfl::valuation::leave_one_out::leave_one_out_scores;
use ctfl::valuation::shapley::{sampled_shapley, ShapleySamplingConfig};
use ctfl::valuation::utility::{evaluate_many, TableUtility, UtilityFn};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use ctfl_testkit::prop::Gen;
use ctfl_testkit::{check, prop_assert, prop_assert_eq};

// ---------- sharded stores on random schemas & partitions ----------

fn random_synthetic(g: &mut Gen) -> (SyntheticConfig, usize) {
    let n_continuous = g.usize_in(0, 3);
    let n_discrete = g.usize_in(if n_continuous == 0 { 1 } else { 0 }, 3);
    let n_instances = g.len_in(1, 149);
    let config = SyntheticConfig {
        n_instances,
        n_continuous,
        n_discrete,
        discrete_arity: g.u32_in(2, 5),
        n_terms: g.usize_in(1, 4),
        term_len: g.usize_in(1, 3),
        label_noise: g.f64_in(0.0, 0.3),
        seed: g.rng().gen(),
    };
    let n_clients = g.usize_in(1, n_instances.min(8));
    (config, n_clients)
}

#[test]
fn sharded_store_is_bit_identical_to_monolithic_on_random_federations() {
    check(
        "sharded_store_is_bit_identical_to_monolithic_on_random_federations",
        48,
        |g| {
            let (config, n_clients) = random_synthetic(g);
            (config, n_clients, g.bool())
        },
        |(config, n_clients, parallel)| {
            let (pooled, truth) = generate(config);
            let rules = truth.to_rules();
            let compiled = CompiledRules::compile(&rules, pooled.schema()).unwrap();

            // Stream-built shards concat to the pooled dataset...
            let (shards, _) = federated_shards(config, *n_clients);
            let views: Vec<(u32, DatasetView<'_>)> =
                shards.iter().enumerate().map(|(c, d)| (c as u32, d.view())).collect();
            let store = ShardedActivations::build(&compiled, &views, *parallel).unwrap();

            // ...and the store flattens word-for-word to the monolithic
            // matrix over the pooled dataset.
            let mono = compiled.activation_matrix(&pooled.view(), false);
            let (flat, labels, client_of) = store.to_matrix().unwrap();
            prop_assert_eq!(&flat, &mono);
            prop_assert_eq!(&labels, &pooled.labels().to_vec());
            let partition = Partition::contiguous(config.n_instances, *n_clients);
            prop_assert_eq!(&client_of, &partition.client_of);

            // Global row addressing needs no flattening.
            for row in 0..store.n_rows() {
                prop_assert_eq!(store.row_words(row), mono.row_words(row));
                prop_assert_eq!(store.label(row), labels[row]);
                prop_assert_eq!(store.client(row), client_of[row]);
            }
            Ok(())
        },
    );
}

#[test]
fn streaming_generation_is_block_size_invariant() {
    check(
        "streaming_generation_is_block_size_invariant",
        48,
        |g| {
            let (config, _) = random_synthetic(g);
            let block = g.len_in(1, config.n_instances + 3);
            (config, block)
        },
        |(config, block)| {
            let (whole, _) = generate(config);
            let mut stream = SyntheticStream::new(config.clone());
            let mut blocks = Vec::new();
            while let Some(b) = stream.next_block(*block) {
                blocks.push(b);
            }
            let streamed = ctfl::core::data::Dataset::concat(&blocks).unwrap();
            prop_assert_eq!(&streamed, &whole);
            Ok(())
        },
    );
}

// ---------- the trace kernel across thread counts & row stores ----------

#[derive(Debug, Clone)]
struct RandomTraceSetup {
    n_rules: usize,
    n_clients: usize,
    train_rows: Vec<(Vec<bool>, u32, u32)>, // bits, label, client
    test_rows: Vec<(Vec<bool>, u32, usize)>, // bits, label, prediction
    weights: Vec<f64>,
    tau_w: f64,
    shard_clients: Vec<u32>, // contiguous shard -> owning client
    shard_cuts: Vec<usize>,  // sorted interior cut points of the row range
}

fn trace_setup(g: &mut Gen) -> RandomTraceSetup {
    let n_rules = g.len_in(2, 20);
    let n_train = g.len_in(1, 49);
    let n_test = g.len_in(1, 14);
    let n_clients = g.usize_in(1, 5);
    let row = |g: &mut Gen| g.vec(n_rules, Gen::bool);
    let train_rows =
        g.vec(n_train, |g| (row(g), g.u32_in(0, 1), g.u32_in(0, n_clients as u32 - 1)));
    let test_rows = g.vec(n_test, |g| (row(g), g.u32_in(0, 1), g.usize_in(0, 1)));
    let weights = g.vec(n_rules, |g| g.f64_in(0.05, 2.0));
    let tau_w = g.f64_in(0.3, 1.0);
    // Random contiguous sharding of the train rows (shards may be empty and
    // several shards may belong to one client).
    let n_shards = g.usize_in(1, 6);
    let mut shard_cuts = g.vec(n_shards - 1, |g| g.usize_in(0, n_train));
    shard_cuts.sort_unstable();
    let shard_clients = g.vec(n_shards, |g| g.u32_in(0, n_clients as u32 - 1));
    RandomTraceSetup {
        n_rules,
        n_clients,
        train_rows,
        test_rows,
        weights,
        tau_w,
        shard_clients,
        shard_cuts,
    }
}

struct BuiltTrace {
    train: ActivationMatrix,
    train_labels: Vec<u32>,
    client_of: Vec<u32>,
    test: ActivationMatrix,
    test_labels: Vec<u32>,
    predictions: Vec<usize>,
    class_masks: Vec<Vec<u64>>,
}

fn build(setup: &RandomTraceSetup) -> BuiltTrace {
    let mut train = ActivationMatrix::zeros(0, setup.n_rules);
    let mut train_labels = Vec::new();
    let mut client_of = Vec::new();
    for (bits, label, client) in &setup.train_rows {
        train.push_row(bits).unwrap();
        train_labels.push(*label);
        client_of.push(*client);
    }
    let mut test = ActivationMatrix::zeros(0, setup.n_rules);
    let mut test_labels = Vec::new();
    let mut predictions = Vec::new();
    for (bits, label, pred) in &setup.test_rows {
        test.push_row(bits).unwrap();
        test_labels.push(*label);
        predictions.push(*pred);
    }
    // Rules alternate classes; both class masks cover every other bit.
    let words = setup.n_rules.div_ceil(64);
    let mut class_masks = vec![vec![0u64; words]; 2];
    for bit in 0..setup.n_rules {
        class_masks[bit % 2][bit / 64] |= 1u64 << (bit % 64);
    }
    BuiltTrace { train, train_labels, client_of, test, test_labels, predictions, class_masks }
}

#[test]
fn parallel_trace_is_bitwise_equal_to_serial_across_thread_counts() {
    check(
        "parallel_trace_is_bitwise_equal_to_serial_across_thread_counts",
        64,
        trace_setup,
        |setup| {
            let b = build(setup);
            let inputs = TraceInputs {
                train_acts: &b.train,
                train_labels: &b.train_labels,
                client_of: &b.client_of,
                n_clients: setup.n_clients,
                test_acts: &b.test,
                test_labels: &b.test_labels,
                predictions: &b.predictions,
                weights: &setup.weights,
                class_masks: &b.class_masks,
            };
            let base = TraceConfig { tau_w: setup.tau_w, parallel: false, ..TraceConfig::default() };
            let serial = trace(&inputs, &base).unwrap();
            let oracle = trace_reference(&inputs, &base).unwrap();
            prop_assert!(serial == oracle, "fast serial vs per-bit oracle diverged");
            for threads in [0usize, 1, 2, 3, 5] {
                let parallel = trace(&inputs, &TraceConfig { parallel: true, threads, ..base }).unwrap();
                prop_assert!(serial == parallel, "diverged at threads={threads}");
            }
            Ok(())
        },
    );
}

/// The setup's training rows as a contiguous sharded store, plus the row
/// ownership that layout implies (the random per-row clients are
/// overridden: shards may be empty and several may belong to one client).
fn shard_store(setup: &RandomTraceSetup) -> (ShardedActivations, Vec<u32>) {
    let n_train = setup.train_rows.len();
    let mut bounds = vec![0usize];
    bounds.extend_from_slice(&setup.shard_cuts);
    bounds.push(n_train);
    let mut shards = Vec::new();
    let mut client_of = Vec::with_capacity(n_train);
    for (s, win) in bounds.windows(2).enumerate() {
        let (lo, hi) = (win[0], win[1]);
        let mut acts = ActivationMatrix::zeros(0, setup.n_rules);
        let mut labels = Vec::new();
        for r in lo..hi {
            acts.push_row(&setup.train_rows[r].0).unwrap();
            labels.push(setup.train_rows[r].1);
            client_of.push(setup.shard_clients[s]);
        }
        shards.push(ActivationShard { client: setup.shard_clients[s], acts, labels });
    }
    (ShardedActivations::from_shards(shards).unwrap(), client_of)
}

#[test]
fn sharded_trace_is_bitwise_equal_to_monolithic_on_random_shardings() {
    check(
        "sharded_trace_is_bitwise_equal_to_monolithic_on_random_shardings",
        64,
        trace_setup,
        |setup| {
            let b = build(setup);
            let (store, client_of) = shard_store(setup);
            prop_assert_eq!(store.n_rows(), setup.train_rows.len());

            let config = TraceConfig { tau_w: setup.tau_w, parallel: true, threads: 3, ..TraceConfig::default() };
            let mono = TraceInputs {
                train_acts: &b.train,
                train_labels: &b.train_labels,
                client_of: &client_of,
                n_clients: setup.n_clients,
                test_acts: &b.test,
                test_labels: &b.test_labels,
                predictions: &b.predictions,
                weights: &setup.weights,
                class_masks: &b.class_masks,
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: setup.n_clients,
                test_acts: &b.test,
                test_labels: &b.test_labels,
                predictions: &b.predictions,
                weights: &setup.weights,
                class_masks: &b.class_masks,
            };
            let from_mono = trace(&mono, &config).unwrap();
            let from_store = trace_sharded(&sharded, &config).unwrap();
            prop_assert_eq!(&from_mono, &from_store);
            Ok(())
        },
    );
}

// ---------- the kernel's popcount screen on adversarial inputs ----------

/// Activation widths on both sides of the 64-bit word boundaries.
const SCREEN_WIDTHS: [usize; 6] = [1, 63, 64, 65, 129, 260];

/// Inputs that sit the Eq. 4 numerator on or next to the threshold, where
/// an inadmissible screen would drop a related row, over weight families
/// that stress the screen's weight-ordered bit layout.
fn screen_setup(g: &mut Gen) -> RandomTraceSetup {
    let n_rules = SCREEN_WIDTHS[g.usize_in(0, SCREEN_WIDTHS.len() - 1)];
    let any_tau = |g: &mut Gen| [0.5, 0.9, 1.0, g.f64_in(0.3, 1.0)][g.usize_in(0, 3)];
    let (weights, tau_w) = match g.usize_in(0, 6) {
        0 => {
            // Powers of two add exactly, so τ_w in {0.5, 1} makes exact ties.
            let weights = g.vec(n_rules, |g| 2f64.powi(g.usize_in(0, 6) as i32 - 3));
            (weights, [0.5, 1.0][g.usize_in(0, 1)])
        }
        1 => {
            // Fifteen decades of weight, with zeros.
            let weights = g.vec(n_rules, |g| {
                if g.usize_in(0, 5) == 0 {
                    0.0
                } else {
                    10f64.powf(g.f64_in(-9.0, 6.0))
                }
            });
            (weights, any_tau(g))
        }
        2 => {
            // All equal: only the index tie-break orders the screen's bits.
            let w = [0.25, 1.0, 3.0][g.usize_in(0, 2)];
            (vec![w; n_rules], any_tau(g))
        }
        3 => {
            // Two or three distinct values, so most rules tie.
            let values = [0.5, 1.0, 1.5];
            let k = g.usize_in(2, 3);
            (g.vec(n_rules, |g| values[g.usize_in(0, k - 1)]), any_tau(g))
        }
        4 => {
            // Strictly increasing with rule index: the reorder reverses the bits.
            let step = g.f64_in(0.01, 1.0);
            ((0..n_rules).map(|r| 0.5 + step * r as f64).collect(), any_tau(g))
        }
        5 => {
            // One rule outweighs all the others together many times over, so
            // it carries more than 1 - τ_w of any denominator it is part of.
            let heavy = g.usize_in(0, n_rules - 1);
            let mut weights = g.vec(n_rules, |g| g.f64_in(0.0, 1.0));
            weights[heavy] = 1e3 * n_rules as f64;
            (weights, any_tau(g))
        }
        _ => {
            // Zeros interleaved with positive weights.
            let phase = g.usize_in(0, 1);
            let weights =
                (0..n_rules).map(|r| if r % 2 == phase { 0.0 } else { g.f64_in(0.1, 4.0) }).collect();
            (weights, any_tau(g))
        }
    };
    let n_clients = g.usize_in(1, 4);
    let density = g.f64_in(0.05, 0.6);
    let row = |g: &mut Gen| g.vec(n_rules, |g| g.f64_in(0.0, 1.0) < density);
    let n_test = g.len_in(1, 10);
    let test_rows = g.vec(n_test, |g| (row(g), g.u32_in(0, 1), g.usize_in(0, 1)));
    // Most training rows are a test row with up to three bits flipped,
    // which lands their numerators next to that row's threshold.
    let n_train = g.len_in(1, 40);
    let train_rows = g.vec(n_train, |g| {
        let bits = if g.usize_in(0, 3) == 0 {
            row(g)
        } else {
            let mut bits = test_rows[g.usize_in(0, n_test - 1)].0.clone();
            for _ in 0..g.usize_in(0, 3) {
                let b = g.usize_in(0, n_rules - 1);
                bits[b] = !bits[b];
            }
            bits
        };
        (bits, g.u32_in(0, 1), 0) // the shard layout sets the client
    });
    let n_shards = g.usize_in(1, 5);
    let mut shard_cuts = g.vec(n_shards - 1, |g| g.usize_in(0, n_train));
    shard_cuts.sort_unstable();
    let shard_clients = g.vec(n_shards, |g| g.u32_in(0, n_clients as u32 - 1));
    RandomTraceSetup {
        n_rules,
        n_clients,
        train_rows,
        test_rows,
        weights,
        tau_w,
        shard_clients,
        shard_cuts,
    }
}

#[test]
fn screened_kernel_matches_oracle_on_adversarial_inputs() {
    check("screened_kernel_matches_oracle_on_adversarial_inputs", 256, screen_setup, |setup| {
        let b = build(setup);
        let (store, client_of) = shard_store(setup);
        let mono = TraceInputs {
            train_acts: &b.train,
            train_labels: &b.train_labels,
            client_of: &client_of,
            n_clients: setup.n_clients,
            test_acts: &b.test,
            test_labels: &b.test_labels,
            predictions: &b.predictions,
            weights: &setup.weights,
            class_masks: &b.class_masks,
        };
        let sharded = ShardedTraceInputs {
            train: &store,
            n_clients: setup.n_clients,
            test_acts: &b.test,
            test_labels: &b.test_labels,
            predictions: &b.predictions,
            weights: &setup.weights,
            class_masks: &b.class_masks,
        };
        let base = TraceConfig { tau_w: setup.tau_w, parallel: true, ..TraceConfig::default() };
        let oracle = trace_reference(&mono, &base).unwrap();
        for threads in [1usize, 2, 3] {
            let config = TraceConfig { threads, ..base };
            let from_mono = trace(&mono, &config).unwrap();
            prop_assert!(from_mono == oracle, "monolithic threads={threads}");
            let from_store = trace_sharded(&sharded, &config).unwrap();
            prop_assert!(from_store == oracle, "sharded threads={threads}");
        }
        Ok(())
    });
}

// ---------- parallel coalition sweeps ----------

fn random_game(g: &mut Gen) -> TableUtility {
    let n = g.usize_in(1, 8);
    let values = g.vec(1usize << n, |g| g.f64_in(-50.0, 50.0));
    TableUtility::new(n, values)
}

#[test]
fn parallel_coalition_sweeps_are_byte_identical_to_serial() {
    check(
        "parallel_coalition_sweeps_are_byte_identical_to_serial",
        64,
        |g| {
            let game = random_game(g);
            let n_permutations = g.usize_in(1, 40);
            let tolerance = [-1.0, 0.0, 0.01][g.usize_in(0, 2)];
            let seed: u64 = g.rng().gen();
            (game, n_permutations, tolerance, seed)
        },
        |(game, n_permutations, tolerance, seed)| {
            // Leave-one-out: one utility call per coalition, order-committed.
            let serial = leave_one_out_scores(game, false);
            let parallel = leave_one_out_scores(game, true);
            prop_assert_eq!(&serial, &parallel);

            // evaluate_many over every coalition of the game.
            let coalitions: Vec<Coalition> = Coalition::all(game.n_players()).collect();
            let ev_serial = evaluate_many(game, &coalitions, false);
            let ev_parallel = evaluate_many(game, &coalitions, true);
            prop_assert_eq!(&ev_serial, &ev_parallel);

            // Sampled Shapley: identical RNG stream, fold in permutation
            // order -> byte-identical scores (exact bits, not tolerance).
            let cfg = ShapleySamplingConfig {
                n_permutations: *n_permutations,
                truncation_tolerance: *tolerance,
                parallel: false,
            };
            let shap_serial = sampled_shapley(game, &cfg, &mut StdRng::seed_from_u64(*seed));
            let shap_parallel = sampled_shapley(
                game,
                &ShapleySamplingConfig { parallel: true, ..cfg },
                &mut StdRng::seed_from_u64(*seed),
            );
            for (s, p) in shap_serial.iter().zip(&shap_parallel) {
                prop_assert!(s.to_bits() == p.to_bits(), "shapley bits {s} vs {p}");
            }
            Ok(())
        },
    );
}
