//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <ttt_pipeline|adult_score|private_1k> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times ops through the public façades and prints the
//! end-to-end metrics; `--trace 1` replays ops under spans and prints the
//! per-layer metrics, writing the spans as JSON lines to
//! `$CARGO_TARGET_DIR/perfbench-spans/<workload>-seed<n>.jsonl` (with
//! `.bench_build` when the variable is unset). The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use perfbench::checks::{Checker, DEFAULT_SEED};
use perfbench::counts::{trace_work, TraceWork};
use perfbench::spans::{Recorder, SETUP_OP};
use perfbench::workload::{op, op_traced, setup, OpOutput, State, Workload};

/// Set-up repeats at least this often per timed run ...
const MIN_SETUPS: usize = 3;
/// ... and keeps repeating, up to `MAX_SETUPS`, until this much set-up
/// time has been measured, so short set-ups get a steady median.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUPS: usize = 50;
/// Ops per run, however long they take.
const MIN_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Median; NaN for no samples, which marks the run incorrect.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `f`, turning an error or a panic into a message.
fn guarded(f: impl FnOnce() -> ctfl_core::Result<OpOutput>) -> Result<OpOutput, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("op panicked".to_string()),
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn report_failures(op_index: usize, problems: &[String]) {
    for p in problems {
        eprintln!("op {op_index}: {p}");
    }
}

/// End-to-end run: set up several times, then time façade ops.
fn run_timed(args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut state = None;
    let started = Instant::now();
    while setup_times.len() < MIN_SETUPS
        || (started.elapsed() < SETUP_BUDGET && setup_times.len() < MAX_SETUPS)
    {
        drop(state.take());
        let t = Instant::now();
        let s = setup(args.workload, args.seed, &mut Recorder::disabled()).map_err(|e| e.to_string())?;
        setup_times.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.expect("set up at least once");

    let mut checker = Checker::new(args.workload, args.seed, &state);
    let mut op_times = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while op_times.len() < MIN_OPS || started.elapsed() < budget {
        let t = Instant::now();
        let result = guarded(|| op(&state));
        op_times.push(t.elapsed().as_secs_f64());
        report_failures(op_times.len() - 1, &checker.check(result));
    }
    if let Some(first) = checker.first() {
        println!("score_hash {:#018x} (seed {})", first.score_hash(), args.seed);
    }

    let op_s = median(&op_times);
    let error_rate = checker.failed as f64 / checker.attempted as f64;
    println!(
        "setups {} (median {:.4} s), ops {} (median {op_s:.4} s, min {:.4} s, max {:.4} s), error_rate {error_rate}",
        setup_times.len(),
        median(&setup_times),
        op_times.len(),
        op_times.iter().copied().fold(f64::INFINITY, f64::min),
        op_times.iter().copied().fold(0.0, f64::max),
    );
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("setup_s", median(&setup_times), "s"),
            ("op_s_p50", op_s, "s"),
            ("rows_per_s", state.train_rows() as f64 / op_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("ok_rate", 1.0 - error_rate, "ratio"),
        ],
    })
}

/// Work counts of the trace an op ran.
fn work_of(state: &State, out: &OpOutput) -> Result<TraceWork, String> {
    let model = out.model(state);
    let fed = match state {
        State::Ttt(s) => &s.fed,
        State::Adult(s) => &s.fed,
        State::Private(s) => {
            let rows = s
                .uploads
                .iter()
                .filter(|u| !out.flagged().contains(&u.client))
                .flat_map(|u| (0..u.labels.len()).map(move |i| (u.labels[i], u.activations.row_words(i))));
            return Ok(trace_work(rows, &s.test_acts, &s.test_labels, &s.predictions));
        }
    };
    let train_acts = model.activation_matrix(&fed.train, true).map_err(|e| e.to_string())?;
    let test_acts = model.activation_matrix(&fed.test, true).map_err(|e| e.to_string())?;
    let predictions: Vec<usize> =
        (0..test_acts.n_rows()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    let labels = fed.train.labels();
    Ok(trace_work(
        (0..train_acts.n_rows()).map(|i| (labels[i], train_acts.row_words(i))),
        &test_acts,
        fed.test.labels(),
        &predictions,
    ))
}

/// Traced run: set up once under spans, then alternate façade ops with
/// ops replayed under spans, checking every replay against the façade.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let state = setup(args.workload, args.seed, &mut rec).map_err(|e| e.to_string())?;
    let mut checker = Checker::new(args.workload, args.seed, &state);

    // Façade and replayed ops alternate, so both see the same warm-up and
    // the same machine; their medians give the tracing overhead.
    let mut facade_times = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut n_traced = 0usize;
    while n_traced < MIN_OPS || started.elapsed() < budget {
        let t = Instant::now();
        let result = guarded(|| op(&state));
        facade_times.push(t.elapsed().as_secs_f64());
        report_failures(2 * n_traced, &checker.check(result));
        rec.set_op(n_traced as u32);
        let result = guarded(|| op_traced(&state, &mut rec));
        report_failures(2 * n_traced + 1, &checker.check(result));
        n_traced += 1;
    }
    let path = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()))
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    rec.write_jsonl(&path).map_err(|e| format!("writing spans to {}: {e}", path.display()))?;

    let ops: Vec<u32> = (0..n_traced as u32).collect();
    let self_t = rec.self_time_by_op();
    let incl_t = rec.inclusive_by_op();
    // A layer's value: its median per-op time where the ops run it, else
    // its set-up time, else 0 (the layer is not on this workload's path).
    let layer = |table: &std::collections::BTreeMap<(u32, &'static str), f64>, name: &str| -> f64 {
        let per_op: Vec<f64> =
            ops.iter().map(|&o| table.get(&(o, name)).copied().unwrap_or(0.0)).collect();
        if per_op.iter().any(|&v| v > 0.0) {
            median(&per_op)
        } else {
            table.get(&(SETUP_OP, name)).copied().unwrap_or(0.0)
        }
    };
    let counter = |name: &str| -> f64 {
        rec.counter(0, name).or_else(|| rec.counter(SETUP_OP, name)).unwrap_or(0) as f64
    };
    let op_durations = rec.durations_s("op");
    let coverage = span_coverage(&rec);
    let overhead = median(&op_durations) / median(&facade_times);

    let out = checker.first().ok_or("no op succeeded")?;
    let work = work_of(&state, out)?;
    let (flagged, gamers) = match &state {
        State::Private(s) => (out.flagged().len(), s.gamers.len()),
        _ => (0, 0),
    };
    println!(
        "traced ops {n_traced} (median {:.4} s), façade ops {n_traced} (median {:.4} s), span coverage {coverage:.4}",
        median(&op_durations),
        median(&facade_times),
    );
    let mut metrics = vec![
        ("fl.train_s", layer(&incl_t, "fl.train"), "s"),
        ("fl.round_s_p50", median(&rec.durations_s("fl.round")), "s"),
        ("fl.encode_s", layer(&self_t, "fl.encode"), "s"),
        ("nn.extract_s", layer(&self_t, "nn.extract"), "s"),
        ("core.activation_s", layer(&self_t, "core.activation"), "s"),
        ("core.trace_s", layer(&self_t, "core.trace"), "s"),
        ("core.trace_sharded_s", layer(&self_t, "core.trace_sharded"), "s"),
        ("privacy.assemble_s", layer(&self_t, "privacy.assemble"), "s"),
        ("privacy.audit_s", layer(&self_t, "privacy.audit"), "s"),
        ("core.allocation_s", layer(&self_t, "core.allocation"), "s"),
        ("core.robustness_s", layer(&self_t, "core.robustness"), "s"),
        ("core.interpret_s", layer(&self_t, "core.interpret"), "s"),
        ("privacy.upload_s", layer(&self_t, "privacy.upload"), "s"),
        ("data.build_s", layer(&self_t, "data.build"), "s"),
    ];
    metrics.extend([
        ("nn.rules", out.model(&state).rules().len() as f64, "count"),
        ("data.train_rows", state.train_rows() as f64, "count"),
        ("data.test_rows", state.test_rows() as f64, "count"),
        ("data.clients", state.clients() as f64, "count"),
        ("core.words_per_row", work.words_per_row as f64, "count"),
        ("core.train_unique_share", work.train_unique_share, "ratio"),
        ("core.test_unique_share", work.test_unique_share, "ratio"),
        ("core.trace_pairs", work.trace_pairs as f64, "count"),
        ("core.trace_bytes_computed", work.trace_bytes_computed as f64, "B"),
        ("fl.rounds", counter("fl.rounds"), "count"),
        ("fl.local_trainings", counter("fl.local_trainings"), "count"),
        ("privacy.flagged", flagged as f64, "count"),
        ("privacy.gamers", gamers as f64, "count"),
        ("bench.tracing_overhead", overhead, "ratio"),
        ("bench.span_coverage", coverage, "ratio"),
    ]);
    Ok(Outcome { attempted: checker.attempted, failed: checker.failed, metrics })
}

/// Median over traced ops of the share of the op span that leaf spans
/// (layer calls with no spans inside) cover.
fn span_coverage(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let mut shares = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name != "op" {
            continue;
        }
        let mut leaf_ns = 0u64;
        for (j, c) in spans.iter().enumerate().skip(i + 1) {
            if c.start_ns >= s.end_ns {
                break;
            }
            if !has_child[j] {
                leaf_ns += c.duration_ns();
            }
        }
        shares.push(leaf_ns as f64 / s.duration_ns().max(1) as f64);
    }
    median(&shares)
}

fn print_outcome(o: &Outcome) {
    for (name, value, unit) in &o.metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = o.failed == 0 && o.metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ttt_pipeline|adult_score|private_1k> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace { run_traced(&args) } else { run_timed(&args) };
    match outcome {
        Ok(o) => print_outcome(&o),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
