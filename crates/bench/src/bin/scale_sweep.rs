//! **Scale gate**: the million-row / thousand-client data plane.
//!
//! Sweeps the tracing hot path over a `rows × clients` grid —
//! `{20k, 200k, 1M} × {10, 100, 1000}` — with the federation stream-built
//! as per-client shards ([`ctfl_data::synthetic::federated_shards`]) and
//! traced straight off the [`ShardedActivations`] store. Four things must
//! hold for `SCALE_OK` to print:
//!
//! 1. **Bit-identity at every grid point** — serial trace, parallel trace
//!    (auto *and* forced thread counts) and the sharded-store trace all
//!    produce the same [`TraceOutcome`](ctfl_core::tracing::TraceOutcome);
//!    the per-client micro scores hash onto stdout.
//! 2. **Sharded-vs-monolithic parity** — the sharded store flattens
//!    word-for-word to the monolithic matrix (checked at the smallest
//!    cells where the double-build is cheap).
//! 3. **Speedup** — at the largest cell (1M rows × 1000 clients) the fast
//!    path must beat the pinned per-bit serial oracle
//!    ([`trace_reference`]) by at least 2x. Single-core containers pass
//!    this too: the margin is algorithmic (word-parallel popcounts +
//!    signature dedup + member-count multiplication), not thread count.
//! 4. **Coalition-sweep parity** — leave-one-out and sampled-Shapley over
//!    32 consortium blocks of the 1000 clients are byte-identical with
//!    parallel sweeps on and off.
//!
//! Output discipline: everything on **stdout** is deterministic (grid
//! shape, score hashes, gate verdicts) so `run_experiments.sh --check` can
//! double-run and byte-diff it; wall-clock numbers go to **stderr** and to
//! `results/BENCH_scale.json`.

use ctfl_bench::args::CommonArgs;
use ctfl_core::allocation::{micro_scores, CreditDirection};
use ctfl_core::batch::CompiledRules;
use ctfl_core::data::DatasetView;
use ctfl_core::model::RuleModel;
use ctfl_core::shard::ShardedActivations;
use ctfl_core::tracing::{
    trace, trace_reference, trace_sharded, ShardedTraceInputs, TraceConfig, TraceInputs,
};
use ctfl_data::synthetic::{federated_shards, generate, SyntheticConfig};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;
use ctfl_valuation::coalition::Coalition;
use ctfl_valuation::utility::UtilityFn;
use ctfl_valuation::{leave_one_out_scores, sampled_shapley, ShapleySamplingConfig};
use std::sync::Arc;
use std::time::Instant;

const ROW_GRID: [usize; 3] = [20_000, 200_000, 1_000_000];
const CLIENT_GRID: [usize; 3] = [10, 100, 1000];
const N_TEST: usize = 64;
const N_BLOCKS: usize = 32;

/// FNV-1a over the little-endian bit patterns of an f64 slice.
fn fnv1a_f64(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Median wall-clock nanoseconds of `samples` runs of `f` (one untimed
/// warmup). Timing stays out of stdout so the determinism gate can
/// byte-diff it.
fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u128 {
    std::hint::black_box(f());
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The sweep's planted-DNF federation shape: mixed features, 4 terms of 2
/// literals (5 rules with the class-0 catch-all), 10% label noise so the
/// trace exercises both benefit and harm cells.
fn sweep_config(rows: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_instances: rows,
        n_continuous: 3,
        n_discrete: 3,
        discrete_arity: 4,
        n_terms: 4,
        term_len: 2,
        label_noise: 0.1,
        seed,
    }
}

/// Deterministic consortium game over the client blocks: coalition value is
/// the blocks' pooled contribution under mild congestion (concave in
/// coalition size, so marginals genuinely depend on position).
struct BlockUtility {
    weights: Vec<f64>,
}

impl UtilityFn for BlockUtility {
    fn n_players(&self) -> usize {
        self.weights.len()
    }

    fn value(&self, c: &Coalition) -> f64 {
        let total: f64 = c.members().iter().map(|&i| self.weights[i]).sum();
        total / (1.0 + 0.05 * c.len() as f64)
    }
}

struct CellResult {
    rows: usize,
    clients: usize,
    fast_ns: u128,
    scores_hash: u64,
    scores: Vec<f64>,
}

fn main() {
    let args = CommonArgs::parse();
    let samples = args.repeats.max(3);

    // Federation-side test artifacts, shared across every cell: the planted
    // rules ARE the model (known-perfect, no training pass — this gate
    // measures the data plane, not the learner). The test set draws from a
    // shifted seed so it is disjoint from every training federation.
    let (test_ds, truth) = generate(&SyntheticConfig {
        seed: args.seed.wrapping_add(0xD15C),
        ..sweep_config(N_TEST, args.seed)
    });
    let rules = truth.to_rules();
    let model =
        RuleModel::new(Arc::clone(test_ds.schema()), 2, rules.clone()).expect("planted rules valid");
    let compiled = CompiledRules::compile(&rules, test_ds.schema()).expect("rules compile");
    let test_acts = model.activation_matrix(&test_ds, false).expect("test activations");
    let test_labels: Vec<u32> = test_ds.labels().to_vec();
    let predictions: Vec<usize> =
        (0..test_ds.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    println!(
        "scale sweep: {} test rows x {} rules, grid {:?} rows x {:?} clients, seed {}",
        N_TEST,
        model.rules().len(),
        ROW_GRID,
        CLIENT_GRID,
        args.seed
    );

    let trace_cfg = TraceConfig::default();
    let serial_cfg = TraceConfig { parallel: false, ..trace_cfg };

    let mut cells: Vec<CellResult> = Vec::new();
    let mut reference_ns = 0u128;
    for rows in ROW_GRID {
        for clients in CLIENT_GRID {
            let cfg = sweep_config(rows, args.seed);
            let (shards, _) = federated_shards(&cfg, clients);
            let views: Vec<(u32, DatasetView<'_>)> =
                shards.iter().enumerate().map(|(c, d)| (c as u32, d.view())).collect();

            let t0 = Instant::now();
            let store =
                ShardedActivations::build(&compiled, &views, true).expect("shard build succeeds");
            let build_ns = t0.elapsed().as_nanos();
            let (mono_acts, train_labels, client_of) =
                store.to_matrix().expect("store flattens");

            // Sharded-vs-monolithic parity (double-build only where cheap).
            if rows == ROW_GRID[0] {
                let serial_store = ShardedActivations::build(&compiled, &views, false)
                    .expect("serial shard build succeeds");
                assert_eq!(
                    serial_store.to_matrix().expect("store flattens").0,
                    mono_acts,
                    "parallel shard build diverged at {rows}x{clients}"
                );
            }

            let mono = TraceInputs {
                train_acts: &mono_acts,
                train_labels: &train_labels,
                client_of: &client_of,
                n_clients: clients,
                test_acts: &test_acts,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: model.weights(),
                class_masks: model.class_masks_all(),
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: clients,
                test_acts: &test_acts,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: model.weights(),
                class_masks: model.class_masks_all(),
            };

            // Gate 1: serial / parallel-auto / parallel-forced / sharded are
            // one outcome.
            let serial_out = trace(&mono, &serial_cfg).expect("serial trace");
            let parallel_out = trace(&mono, &trace_cfg).expect("parallel trace");
            let forced_out = trace(&mono, &TraceConfig { threads: 3, ..trace_cfg })
                .expect("forced-thread trace");
            let sharded_out = trace_sharded(&sharded, &trace_cfg).expect("sharded trace");
            assert_eq!(serial_out, parallel_out, "parallel trace diverged at {rows}x{clients}");
            assert_eq!(serial_out, forced_out, "forced threads diverged at {rows}x{clients}");
            assert_eq!(serial_out, sharded_out, "sharded trace diverged at {rows}x{clients}");

            // Gate 3 setup: the pinned per-bit oracle — checked at the
            // cheap cells, checked AND timed at the largest cell.
            let largest = rows == *ROW_GRID.last().unwrap() && clients == *CLIENT_GRID.last().unwrap();
            if rows == ROW_GRID[0] || largest {
                let t0 = Instant::now();
                let ref_out = trace_reference(&mono, &serial_cfg).expect("reference trace");
                let elapsed = t0.elapsed().as_nanos();
                assert_eq!(
                    ref_out, serial_out,
                    "fast path diverged from the per-bit oracle at {rows}x{clients}"
                );
                if largest {
                    reference_ns = elapsed;
                }
            }

            let fast_ns =
                median_ns(samples, || trace_sharded(&sharded, &trace_cfg).expect("sharded trace"));
            let scores = micro_scores(&sharded_out, CreditDirection::Gain);
            let scores_hash = fnv1a_f64(&scores);
            println!("cell {rows:>7} x {clients:>4}: parity ok, scores {scores_hash:#018X}");
            eprintln!(
                "cell {rows:>7} x {clients:>4}: build {:>9.3} ms, trace median {:>9.3} ms, {:>12.0} rows/s",
                build_ns as f64 / 1e6,
                fast_ns as f64 / 1e6,
                rows as f64 / (fast_ns as f64 / 1e9),
            );
            cells.push(CellResult { rows, clients, fast_ns, scores_hash, scores });
        }
    }

    // Gate 3: >= 2x over the oracle at the largest cell.
    let largest = cells.last().expect("grid is non-empty");
    let speedup = reference_ns as f64 / largest.fast_ns as f64;
    eprintln!(
        "reference trace at {} x {}: {:>9.3} ms; speedup {speedup:.2}x (gate: >= 2.0x)",
        largest.rows,
        largest.clients,
        reference_ns as f64 / 1e6
    );

    // Gate 4: coalition sweeps over 32 consortium blocks of the 1000
    // clients, parallel and serial byte-identical.
    let mut block_weights = vec![0.0f64; N_BLOCKS];
    for (client, &score) in largest.scores.iter().enumerate() {
        block_weights[client * N_BLOCKS / largest.clients] += score;
    }
    let utility = BlockUtility { weights: block_weights };
    let loo_serial = leave_one_out_scores(&utility, false);
    let loo_parallel = leave_one_out_scores(&utility, true);
    assert_eq!(loo_serial, loo_parallel, "parallel leave-one-out diverged");
    let shap_cfg =
        ShapleySamplingConfig { n_permutations: 64, truncation_tolerance: -1.0, parallel: false };
    let shap_serial =
        sampled_shapley(&utility, &shap_cfg, &mut StdRng::seed_from_u64(args.seed));
    let shap_parallel = sampled_shapley(
        &utility,
        &ShapleySamplingConfig { parallel: true, ..shap_cfg },
        &mut StdRng::seed_from_u64(args.seed),
    );
    assert_eq!(shap_serial, shap_parallel, "parallel sampled Shapley diverged");
    println!(
        "coalition sweep over {N_BLOCKS} blocks: loo {:#018X}, shapley {:#018X}, parity ok",
        fnv1a_f64(&loo_serial),
        fnv1a_f64(&shap_serial)
    );

    let cell_reports: Vec<ctfl_testkit::json::Json> = cells
        .iter()
        .map(|c| {
            ctfl_testkit::json!({
                "rows": c.rows,
                "clients": c.clients,
                "trace_median_ns": c.fast_ns as f64,
                "rows_per_s": c.rows as f64 / (c.fast_ns as f64 / 1e9),
                "scores_hash": format!("{:#018X}", c.scores_hash),
            })
        })
        .collect();
    let report = ctfl_testkit::json!({
        "bench": "scale_sweep",
        "seed": args.seed as i64,
        "test_rows": N_TEST,
        "n_rules": model.rules().len(),
        "cells": cell_reports,
        "reference_ns": reference_ns as f64,
        "speedup": speedup,
        "gate": "speedup >= 2.0 at 1M x 1000",
    });
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_scale.json", report.pretty() + "\n")
        .expect("write BENCH_scale.json");

    assert!(
        speedup >= 2.0,
        "fast trace is only {speedup:.2}x the per-bit oracle at the largest cell (gate: >= 2.0x)"
    );
    println!("SCALE_OK");
}
