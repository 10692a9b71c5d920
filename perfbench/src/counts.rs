//! Deterministic work counts of the trace kernel's input, computed from
//! the outside.
//!
//! The kernel groups test rows by (traced class, activation words) and
//! scans, per group, every training row whose label is the traced class.
//! These counts say how much of that work an exact dedup or grouping on
//! either side could remove, so a later speed claim can be checked against
//! them.

use std::collections::HashSet;

use ctfl_core::activation::ActivationMatrix;

/// Work counts of one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceWork {
    /// 64-bit words per activation row.
    pub words_per_row: usize,
    /// Distinct (label, words) training rows as a share of all training
    /// rows.
    pub train_unique_share: f64,
    /// Distinct (traced class, words) test rows — the kernel's test
    /// groups — as a share of all test rows.
    pub test_unique_share: f64,
    /// Pairs the kernel compares: for each test group, the training rows
    /// of its traced class.
    pub trace_pairs: u64,
    /// Training-row bytes those comparisons read: pairs × words × 8.
    pub trace_bytes_computed: u64,
}

/// Counts the work of tracing `train` (rows as (label, words)) against the
/// test side.
pub fn trace_work<'a>(
    train: impl Iterator<Item = (u32, &'a [u64])>,
    test_acts: &ActivationMatrix,
    test_labels: &[u32],
    predictions: &[usize],
) -> TraceWork {
    let mut train_rows = 0usize;
    let mut per_class: Vec<u64> = Vec::new();
    let mut distinct: HashSet<(u32, &[u64])> = HashSet::new();
    for (label, words) in train {
        train_rows += 1;
        let l = label as usize;
        if per_class.len() <= l {
            per_class.resize(l + 1, 0);
        }
        per_class[l] += 1;
        distinct.insert((label, words));
    }
    let mut groups: HashSet<(usize, &[u64])> = HashSet::new();
    for t in 0..test_acts.n_rows() {
        let actual = test_labels[t] as usize;
        let traced = if predictions[t] == actual { actual } else { predictions[t] };
        groups.insert((traced, test_acts.row_words(t)));
    }
    let trace_pairs: u64 = groups.iter().map(|&(c, _)| per_class.get(c).copied().unwrap_or(0)).sum();
    let words_per_row = test_acts.words_per_row();
    TraceWork {
        words_per_row,
        train_unique_share: distinct.len() as f64 / train_rows.max(1) as f64,
        test_unique_share: groups.len() as f64 / test_acts.n_rows().max(1) as f64,
        trace_pairs,
        trace_bytes_computed: trace_pairs * words_per_row as u64 * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_duplicates_and_pairs() {
        let train = ActivationMatrix::from_rows(3, &[vec![true, false, false], vec![true, false, false], vec![false, true, false]])
            .unwrap();
        let labels = [0u32, 0, 1];
        let test = ActivationMatrix::from_rows(3, &[vec![true, false, false], vec![true, false, false], vec![false, false, true]])
            .unwrap();
        // Rows 0 and 1 form one group of class 0; row 2 is misclassified
        // as class 1, so it is traced against class 1.
        let w = trace_work(
            (0..3).map(|i| (labels[i], train.row_words(i))),
            &test,
            &[0, 0, 0],
            &[0, 0, 1],
        );
        assert_eq!(w.words_per_row, 1);
        assert!((w.train_unique_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((w.test_unique_share - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.trace_pairs, 2 + 1);
        assert_eq!(w.trace_bytes_computed, 3 * 8);
    }
}
