//! Score-gaming properties: attack injection, upload audit, hardened
//! scoring, slashing, and the cross-layer checks — end to end through the
//! public facade, on a real trained federation.

use std::sync::OnceLock;

use ctfl::core::error::CoreError;
use ctfl::core::robustness::{
    audit_uploads, slash_scores, SlashPolicy, UploadAuditConfig, UploadAuditInput,
};
use ctfl::core::tracing::TraceConfig;
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::tictactoe_endgame;
use ctfl::fl::fedavg::{train_federated, FlConfig};
use ctfl::fl::privacy::{
    assemble_trace_inputs_excluding, ActivationUpload, PrivacyConfig, PrivateScoring,
};
use ctfl::fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::{Rng, SeedableRng};
use ctfl_testkit::prop::{check, Gen};
use ctfl_testkit::prop_assert_eq;
use std::cell::Cell;
use std::collections::HashMap;

const N_CLIENTS: usize = 5;

struct Fixture {
    model: ctfl::core::model::RuleModel,
    shards: Vec<ctfl::core::data::Dataset>,
    test: ctfl::core::data::Dataset,
}

/// One trained federation shared by every test in this file.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let data = tictactoe_endgame();
        let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
        let partition = skew_label(train.labels(), 2, N_CLIENTS, 0.8, &mut rng);
        let shards: Vec<_> =
            (0..N_CLIENTS).map(|c| train.subset(&partition.client_indices(c))).collect();
        let net_config = LogicalNetConfig {
            lr_logical: 0.1,
            lr_linear: 0.3,
            momentum: 0.0,
            seed: 19,
            ..LogicalNetConfig::default()
        };
        let fl = FlConfig { rounds: 20, local_epochs: 4, parallel: true };
        let net = train_federated(&shards, 2, &net_config, &fl).unwrap();
        let model = extract_rules(&net, ExtractOptions::default()).unwrap();
        Fixture { model, shards, test }
    })
}

fn honest_uploads(fx: &Fixture, flip_p: f64, seed: u64) -> Vec<ActivationUpload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let privacy = PrivacyConfig { flip_probability: flip_p };
    fx.shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            ActivationUpload::compute(c, &fx.model, shard, &privacy, &mut rng).unwrap()
        })
        .collect()
}

struct Scorer<'a> {
    test_acts: ctfl::core::ActivationMatrix,
    predictions: Vec<usize>,
    fx: &'a Fixture,
}

impl<'a> Scorer<'a> {
    fn new(fx: &'a Fixture) -> Self {
        let test_acts = fx.model.activation_matrix(&fx.test, false).unwrap();
        let predictions = (0..fx.test.len())
            .map(|i| fx.model.classify_from_activations(&test_acts, i))
            .collect();
        Scorer { test_acts, predictions, fx }
    }

    fn scoring(&self) -> PrivateScoring<'_> {
        PrivateScoring::new(
            &self.fx.model,
            &self.test_acts,
            self.fx.test.labels(),
            &self.predictions,
            N_CLIENTS,
            TraceConfig::default(),
        )
    }
}

fn declared_rows(fx: &Fixture) -> Vec<usize> {
    fx.shards.iter().map(|s| s.len()).collect()
}

#[test]
fn injector_is_deterministic() {
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 11);
    let plan = ScoreAttackPlan::generate(
        N_CLIENTS,
        0.4,
        ScoreAttackKind::Inflate { all_classes: false },
        77,
    );
    let mut a = uploads.clone();
    let mut b = uploads.clone();
    ScoreAttackInjector::new(plan.clone(), 9).rewrite_uploads(&mut a, fx.model.class_masks_all());
    ScoreAttackInjector::new(plan, 9).rewrite_uploads(&mut b, fx.model.class_masks_all());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.labels, y.labels);
        assert_eq!(x.activations.n_rows(), y.activations.n_rows());
    }
}

#[test]
fn plan_validation_is_typed() {
    // Squatting on yourself, an out-of-range victim, a non-positive pad
    // factor, and an infeasible claimed flip probability are all typed
    // parameter errors, not panics.
    let squat_self = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(2, ScoreAttackKind::Squat { victim: 2 });
    assert!(matches!(squat_self, Err(CoreError::InvalidParameter { .. })));
    let oob = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(0, ScoreAttackKind::Squat { victim: N_CLIENTS });
    assert!(matches!(oob, Err(CoreError::InvalidParameter { .. })));
    let bad_pad = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(0, ScoreAttackKind::PadRows { factor: 0.0 });
    assert!(matches!(bad_pad, Err(CoreError::InvalidParameter { .. })));
    let bad_claim = ScoreAttackPlan::none(N_CLIENTS).try_with_gamer(
        0,
        ScoreAttackKind::NoiseAbuse { claimed_flip_probability: 0.5, actual_flip_rate: 0.2 },
    );
    assert!(matches!(bad_claim, Err(CoreError::InvalidParameter { .. })));
}

#[test]
fn honest_cohort_is_never_flagged_and_hardening_is_free() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    for (flip_p, seed) in [(0.0, 21), (0.1, 22)] {
        let uploads = honest_uploads(fx, flip_p, seed);
        let naive = scoring.score(&uploads).unwrap();
        let hardened = scoring.score_hardened(&uploads, Some(&declared), &UploadAuditConfig::default()).unwrap();
        assert!(
            hardened.audit.flagged.is_empty(),
            "honest cohort flagged at p={flip_p}: {:?}",
            hardened.audit.flagged
        );
        assert_eq!(naive, hardened.scores, "hardening must be free at p={flip_p}");
    }
}

#[test]
fn inflation_pays_naive_and_is_quarantined_exactly() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.0, 31);
    let reference = scoring.score(&uploads).unwrap();

    let plan = ScoreAttackPlan::none(N_CLIENTS)
        .with_gamer(1, ScoreAttackKind::Inflate { all_classes: false });
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 3).rewrite_uploads(&mut gamed, fx.model.class_masks_all());

    let naive = scoring.score(&gamed).unwrap();
    assert!(naive[1] > reference[1], "inflation must pay against the naive scorer");

    let hardened =
        scoring.score_hardened(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert_eq!(hardened.audit.flagged, vec![1]);
    assert_eq!(hardened.scores[1], 0.0);
    let excluded = scoring.score_excluding(&uploads, &[1]).unwrap();
    assert_eq!(hardened.scores, excluded, "the gamer only hurts itself");
}

#[test]
fn row_padding_trips_the_budget_detector() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.0, 41);
    let plan =
        ScoreAttackPlan::none(N_CLIENTS).with_gamer(3, ScoreAttackKind::PadRows { factor: 0.5 });
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 4).rewrite_uploads(&mut gamed, fx.model.class_masks_all());
    assert_eq!(
        gamed[3].activations.n_rows(),
        declared[3] + (declared[3] as f64 * 0.5).round() as usize
    );

    let audit = scoring.audit(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert_eq!(audit.suspected_budget_violators, vec![3]);
    assert!(audit.flagged.contains(&3));
    // Without declarations, the budget detector stays silent on padding —
    // row accounting needs the enrollment declaration to bite.
    let blind = scoring.audit(&gamed, None, &UploadAuditConfig::default()).unwrap();
    assert!(blind.suspected_budget_violators.is_empty());
}

#[test]
fn noise_abuse_breaks_the_feasibility_cap() {
    // A client claims randomized response at p = 0.1 but one-sidedly sets
    // its own-label bits at rate 0.9: observed self-support becomes
    // infeasible under the claimed p and the inflation detector names it,
    // even though its claimed privacy level would excuse a lot of noise.
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.1, 51);
    let plan = ScoreAttackPlan::none(N_CLIENTS).with_gamer(
        0,
        ScoreAttackKind::NoiseAbuse { claimed_flip_probability: 0.1, actual_flip_rate: 0.9 },
    );
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 5).rewrite_uploads(&mut gamed, fx.model.class_masks_all());
    let audit = scoring.audit(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert!(audit.suspected_inflators.contains(&0), "eps-abuse must be named: {audit:?}");
    assert!(!audit.flagged.contains(&1), "honest peers stay clean");
}

#[test]
fn slashing_conserves_the_pot() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let uploads = honest_uploads(fx, 0.0, 61);
    let scores = scoring.score(&uploads).unwrap();
    let slashed = slash_scores(&scores, &[0, 2], &SlashPolicy::default()).unwrap();
    assert_eq!(slashed[0], 0.0);
    assert_eq!(slashed[2], 0.0);
    let before: f64 = scores.iter().sum();
    let after: f64 = slashed.iter().sum();
    assert!((before - after).abs() < 1e-12);
    // Out-of-range flags are typed errors.
    assert!(matches!(
        slash_scores(&scores, &[N_CLIENTS], &SlashPolicy::default()),
        Err(CoreError::InvalidParameter { .. })
    ));
}

#[test]
fn quarantine_exclusion_is_exact_and_total_exclusion_is_typed() {
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 71);
    // Excluding a client removes exactly its rows.
    let (acts, _labels, client_of) = assemble_trace_inputs_excluding(&uploads, &[2]).unwrap();
    assert!(!client_of.contains(&2));
    let expected_rows: usize =
        fx.shards.iter().enumerate().filter(|&(c, _)| c != 2).map(|(_, s)| s.len()).sum();
    assert_eq!(acts.n_rows(), expected_rows);
    // Excluding everyone is a typed Empty error, not a panic.
    let all: Vec<usize> = (0..N_CLIENTS).collect();
    assert!(matches!(
        assemble_trace_inputs_excluding(&uploads, &all),
        Err(CoreError::Empty { .. })
    ));
}

#[test]
fn audit_is_reusable_outside_private_scoring() {
    // The core auditor is callable directly on raw audit inputs — the same
    // path the gaming_sweep cross-check uses with a Byzantine-trained model.
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 81);
    let inputs: Vec<_> = uploads.iter().map(ActivationUpload::audit_input).collect();
    let audit = audit_uploads(
        &inputs,
        fx.model.weights(),
        fx.model.class_masks_all(),
        Some(&declared_rows(fx)),
        &UploadAuditConfig::default(),
    )
    .unwrap();
    assert!(audit.flagged.is_empty());
    assert_eq!(audit.profiles.len(), N_CLIENTS);
}

/// How one upload of a random audit cohort is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CohortKind {
    /// Random rows that almost surely share no key with anyone.
    Fresh,
    /// Rows drawn from a small cohort-wide pool, so keys collide often.
    Pool,
    /// An exact copy of an earlier upload (dead-even mutual mimicry).
    Copy,
    /// A prefix of an earlier upload plus fresh rows.
    PartialCopy,
    /// An earlier upload's rows cyclically refilled to twice its length.
    CyclicRefill,
    /// Equal prefixes of two earlier uploads, tying them on fraction.
    TwoPeerTie,
    /// An earlier upload's row words under the other label: no shared key.
    Relabeled,
    /// No rows at all.
    Empty,
}

const COHORT_KINDS: [CohortKind; 8] = [
    CohortKind::Fresh,
    CohortKind::Pool,
    CohortKind::Copy,
    CohortKind::PartialCopy,
    CohortKind::CyclicRefill,
    CohortKind::TwoPeerTie,
    CohortKind::Relabeled,
    CohortKind::Empty,
];

type Row = (Vec<u64>, u32);

#[derive(Debug)]
struct AuditCase {
    n_bits: usize,
    weights: Vec<f64>,
    masks: Vec<Vec<u64>>,
    /// `(client id, kind, rows)` in upload order.
    uploads: Vec<(usize, CohortKind, Vec<Row>)>,
    claimed_p: f64,
    declared: Option<Vec<usize>>,
    squat_match_frac: f64,
    all_identical: bool,
}

fn random_row(g: &mut Gen, n_bits: usize) -> Row {
    let mut words: Vec<u64> = (0..n_bits.div_ceil(64)).map(|_| g.rng().gen()).collect();
    if !n_bits.is_multiple_of(64) {
        *words.last_mut().unwrap() &= (1u64 << (n_bits % 64)) - 1;
    }
    (words, g.u32_in(0, 1))
}

/// A random two-class audit cohort mixing every [`CohortKind`]. Client ids
/// are distinct but differ from upload positions.
fn audit_cohort(g: &mut Gen) -> AuditCase {
    let n_bits = [8, 64, 70][g.usize_in(0, 2)];
    let weights: Vec<f64> =
        (0..n_bits).map(|_| if g.usize_in(0, 4) == 0 { 0.0 } else { g.f64_in(0.0, 2.0) }).collect();
    let masks: Vec<Vec<u64>> = (0..2)
        .map(|c| ctfl::core::ActivationMatrix::build_mask(n_bits, (c..n_bits).step_by(2)))
        .collect();
    let n = g.len_in(1, 8);
    let mut clients: Vec<usize> = (0..n).map(|i| 3 * i + g.usize_in(1, 2)).collect();
    clients.shuffle(g.rng());
    let pool: Vec<Row> = (0..3).map(|_| random_row(g, n_bits)).collect();
    let all_identical = g.usize_in(0, 7) == 0;
    let mut uploads: Vec<(usize, CohortKind, Vec<Row>)> = Vec::with_capacity(n);
    for (i, &client) in clients.iter().enumerate() {
        let mut kind = COHORT_KINDS[g.usize_in(0, COHORT_KINDS.len() - 1)];
        let v = if i == 0 { 0 } else { g.usize_in(0, i - 1) };
        let w = if i < 2 { 0 } else { g.usize_in(0, i - 2) };
        if all_identical && i > 0 {
            kind = CohortKind::Copy;
        } else if i == 0 && !matches!(kind, CohortKind::Pool | CohortKind::Empty)
            || kind == CohortKind::TwoPeerTie && (i < 2 || w == v)
        {
            kind = CohortKind::Fresh;
        }
        let prior = |u: usize| uploads[if all_identical { 0 } else { u }].2.clone();
        let rows: Vec<Row> = match kind {
            CohortKind::Fresh => {
                let len = g.len_in(1, 10);
                (0..len).map(|_| random_row(g, n_bits)).collect()
            }
            CohortKind::Pool => {
                let len = g.len_in(1, 10);
                (0..len).map(|_| pool[g.usize_in(0, pool.len() - 1)].clone()).collect()
            }
            CohortKind::Copy => prior(v),
            CohortKind::PartialCopy => {
                let src = prior(v);
                let keep = g.usize_in(0, src.len());
                let extra = g.len_in(0, 3);
                let fresh: Vec<Row> = (0..extra).map(|_| random_row(g, n_bits)).collect();
                src[..keep].iter().cloned().chain(fresh).collect()
            }
            CohortKind::CyclicRefill => {
                let src = prior(v);
                (0..2 * src.len()).map(|r| src[r % src.len()].clone()).collect()
            }
            CohortKind::TwoPeerTie => {
                let (a, b) = (prior(v), prior(w));
                let m = a.len().min(b.len());
                a[..m].iter().chain(&b[..m]).cloned().collect()
            }
            CohortKind::Relabeled => {
                prior(v).into_iter().map(|(words, label)| (words, 1 - label)).collect()
            }
            CohortKind::Empty => Vec::new(),
        };
        uploads.push((client, kind, rows));
    }
    let claimed_p = [0.0, 0.1][g.usize_in(0, 1)];
    let declared = g.bool().then(|| (0..3 * n).map(|_| g.usize_in(0, 12)).collect());
    let squat_match_frac = [0.25, 0.5, 0.9, 1.0][g.usize_in(0, 3)];
    AuditCase { n_bits, weights, masks, uploads, claimed_p, declared, squat_match_frac, all_identical }
}

/// Peer containment by the naive pairwise definition: every upload against
/// every other in ascending order, one key lookup per row, strict `>` so
/// the smallest index wins a tie. Returns `(fraction, peer upload index,
/// duplicate excess)` per upload, and whether two peers tied on a nonzero
/// best fraction.
fn pairwise_containment(case: &AuditCase) -> (Vec<(f64, Option<usize>, usize)>, bool) {
    let keys: Vec<HashMap<&Row, u32>> = case
        .uploads
        .iter()
        .map(|(_, _, rows)| {
            let mut map = HashMap::new();
            for row in rows {
                *map.entry(row).or_insert(0) += 1;
            }
            map
        })
        .collect();
    let n = keys.len();
    let mut tied = false;
    let out = (0..n)
        .map(|i| {
            let rows = case.uploads[i].2.len();
            if rows == 0 {
                return (0.0, None, 0);
            }
            let mut best: Option<(f64, usize)> = None;
            for j in (0..n).filter(|&j| j != i) {
                let matched: u32 = keys[i]
                    .iter()
                    .filter(|(k, _)| keys[j].contains_key(*k))
                    .map(|(_, &cnt)| cnt)
                    .sum();
                let frac = matched as f64 / rows as f64;
                if best.is_none_or(|(bf, _)| frac > bf) {
                    best = Some((frac, j));
                } else if best.is_some_and(|(bf, _)| frac == bf && frac > 0.0) {
                    tied = true;
                }
            }
            let Some((frac, j)) = best else { return (0.0, None, 0) };
            let excess: u32 = keys[i]
                .iter()
                .filter_map(|(k, &cnt)| keys[j].get(k).map(|&theirs| cnt.saturating_sub(theirs)))
                .sum();
            (frac, Some(j), excess as usize)
        })
        .collect();
    (out, tied)
}

#[test]
fn containment_index_matches_pairwise_oracle() {
    // The report's containment fields, its squatter list and the flagged
    // union are recomputed from the pairwise oracle; every other field is
    // decided before or apart from containment and is carried over, so the
    // whole report must compare equal.
    let kinds_seen = Cell::new(0u32);
    let identical_seen = Cell::new(false);
    let single_seen = Cell::new(false);
    let tie_seen = Cell::new(false);
    check(
        "containment_index_matches_pairwise_oracle",
        192,
        |g| {
            let case = audit_cohort(g);
            for (_, kind, _) in &case.uploads {
                let bit = COHORT_KINDS.iter().position(|k| k == kind).unwrap();
                kinds_seen.set(kinds_seen.get() | 1 << bit);
            }
            identical_seen.set(identical_seen.get() || case.all_identical && case.uploads.len() > 2);
            single_seen.set(single_seen.get() || case.uploads.len() == 1);
            case
        },
        |case| {
            let acts: Vec<ctfl::core::ActivationMatrix> = case
                .uploads
                .iter()
                .map(|(_, _, rows)| {
                    let words = rows.iter().flat_map(|(w, _)| w.iter().copied()).collect();
                    ctfl::core::ActivationMatrix::from_words(rows.len(), case.n_bits, words).unwrap()
                })
                .collect();
            let labels: Vec<Vec<u32>> = case
                .uploads
                .iter()
                .map(|(_, _, rows)| rows.iter().map(|&(_, l)| l).collect())
                .collect();
            let inputs: Vec<UploadAuditInput<'_>> = case
                .uploads
                .iter()
                .zip(acts.iter().zip(&labels))
                .map(|(&(client, _, _), (activations, labels))| UploadAuditInput {
                    client,
                    activations,
                    labels,
                    claimed_flip_probability: case.claimed_p,
                })
                .collect();
            let config = UploadAuditConfig {
                squat_match_frac: case.squat_match_frac,
                ..UploadAuditConfig::default()
            };
            let report = audit_uploads(
                &inputs,
                &case.weights,
                &case.masks,
                case.declared.as_deref(),
                &config,
            )
            .map_err(|e| format!("audit failed: {e:?}"))?;

            let (oracle, tied) = pairwise_containment(case);
            tie_seen.set(tie_seen.get() || tied);
            let mut expected = report.clone();
            for (p, &(frac, peer, excess)) in expected.profiles.iter_mut().zip(&oracle) {
                p.peer_match_frac = frac;
                p.matched_peer = peer.map(|j| case.uploads[j].0);
                p.duplicate_excess = excess;
            }
            let thr = config.squat_match_frac;
            let mut squatters: Vec<usize> = (0..oracle.len())
                .filter(|&i| {
                    let (frac, peer, excess) = oracle[i];
                    if case.uploads[i].2.is_empty() || frac < thr {
                        return false;
                    }
                    let j = peer.expect("a contained upload has a peer");
                    let (jfrac, jpeer, jexcess) = oracle[j];
                    !(jfrac >= thr && jpeer == Some(i) && jexcess > excess)
                })
                .map(|i| case.uploads[i].0)
                .collect();
            squatters.sort_unstable();
            let mut flagged: Vec<usize> = expected
                .suspected_inflators
                .iter()
                .chain(&squatters)
                .chain(&expected.suspected_label_gamers)
                .chain(&expected.suspected_budget_violators)
                .copied()
                .collect();
            flagged.sort_unstable();
            flagged.dedup();
            expected.suspected_squatters = squatters;
            expected.flagged = flagged;
            prop_assert_eq!(report, expected);
            Ok(())
        },
    );
    assert_eq!(kinds_seen.get(), (1 << COHORT_KINDS.len()) - 1, "a cohort kind was never drawn");
    assert!(identical_seen.get(), "no all-identical cohort was drawn");
    assert!(single_seen.get(), "no single-upload cohort was drawn");
    assert!(tie_seen.get(), "no two peers ever tied on fraction");
}
