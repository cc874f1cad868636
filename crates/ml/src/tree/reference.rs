//! The C4.5 trainer as it stood before the column-scan rewrite, kept
//! verbatim as the test oracle of [`super`] — the role the tree-walking
//! interpreter plays for the bytecode VM. The differential proptest in
//! this module trains both on random datasets (ties, NaN, ±inf, random
//! subsets, every size and pruning setting) and demands identical trees,
//! down to the sign of zero in every threshold.
//!
//! Only the entry points changed shape (free functions instead of
//! `DecisionTree` methods); `Presorted`, `grow`, `best_split` and
//! `entropy` are the original code. Pruning was not rewritten, so the
//! reference shares [`super::prune`].

use super::{prune, DecisionTree, Node, TreeConfig};
use crate::data::Dataset;

/// Per-feature example index orderings computed once per dataset; each
/// training run copies them restricted to its examples.
#[derive(Debug, Clone)]
struct Presorted {
    /// `by_feature[f]` lists all example indices sorted ascending by the
    /// value of feature `f` (stable in example order for ties).
    by_feature: Vec<Vec<u32>>,
}

impl Presorted {
    /// Sorts every feature column of `data` once.
    fn new(data: &Dataset) -> Presorted {
        let n = data.len();
        let by_feature = (0..data.n_features())
            .map(|f| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: the
                // latter is not a total order when a NaN feature value slips
                // in, making the sort order — and thus the learned tree —
                // nondeterministic. Under the total order NaNs sort after
                // +inf, deterministically.
                order.sort_by(|&a, &b| data.row(a as usize)[f].total_cmp(&data.row(b as usize)[f]));
                order
            })
            .collect();
        Presorted { by_feature }
    }

    /// The orderings restricted to the examples in `indices` (order within
    /// each feature is preserved, so the result stays sorted by value).
    fn restrict(&self, n: usize, indices: &[usize]) -> Vec<Vec<u32>> {
        let mut member = vec![false; n];
        for &i in indices {
            member[i] = true;
        }
        self.by_feature
            .iter()
            .map(|order| {
                order
                    .iter()
                    .copied()
                    .filter(|&i| member[i as usize])
                    .collect()
            })
            .collect()
    }
}

/// The original `DecisionTree::train`.
pub(super) fn train(data: &Dataset, config: &TreeConfig) -> DecisionTree {
    let presorted = Presorted::new(data);
    let indices: Vec<usize> = (0..data.len()).collect();
    train_on(data, &presorted, &indices, config)
}

/// The original `DecisionTree::train_on`, presorting `data` itself.
pub(super) fn train_subset(data: &Dataset, indices: &[usize], config: &TreeConfig) -> DecisionTree {
    train_on(data, &Presorted::new(data), indices, config)
}

fn train_on(
    data: &Dataset,
    presorted: &Presorted,
    indices: &[usize],
    config: &TreeConfig,
) -> DecisionTree {
    let sorted = presorted.restrict(data.len(), indices);
    let mut root = grow(data, indices, &sorted, config, 0);
    if config.prune {
        prune(&mut root, config.prune_z);
    }
    DecisionTree {
        root,
        n_features: data.n_features(),
    }
}

fn entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total_f;
            -p * p.log2()
        })
        .sum()
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    gain_ratio: f64,
}

fn grow(
    data: &Dataset,
    indices: &[usize],
    sorted: &[Vec<u32>],
    config: &TreeConfig,
    depth: usize,
) -> Node {
    let make_leaf = |indices: &[usize]| -> Node {
        let mut counts = vec![0usize; data.n_classes()];
        for &i in indices {
            counts[data.label(i)] += 1;
        }
        let (label, &n_max) = counts
            .iter()
            .enumerate()
            .max_by_key(|(i, &c)| (c, usize::MAX - i))
            .unwrap_or((0, &0));
        Node::Leaf {
            label,
            n: indices.len(),
            errors: indices.len() - n_max,
            dist: counts,
        }
    };

    if indices.len() < config.min_split || depth >= config.max_depth {
        return make_leaf(indices);
    }
    let first_label = data.label(indices[0]);
    if indices.iter().all(|&i| data.label(i) == first_label) {
        return make_leaf(indices);
    }

    let Some(best) = best_split(data, indices, sorted) else {
        return make_leaf(indices);
    };

    let goes_left = |i: usize| data.row(i)[best.feature] <= best.threshold;
    let (left, right): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| goes_left(i));
    if left.is_empty() || right.is_empty() {
        return make_leaf(indices);
    }
    // Order-preserving partition keeps each child's orderings sorted by
    // value without re-sorting.
    let mut left_sorted = Vec::with_capacity(sorted.len());
    let mut right_sorted = Vec::with_capacity(sorted.len());
    for order in sorted {
        let (l, r): (Vec<u32>, Vec<u32>) = order.iter().partition(|&&i| goes_left(i as usize));
        left_sorted.push(l);
        right_sorted.push(r);
    }
    Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        left: Box::new(grow(data, &left, &left_sorted, config, depth + 1)),
        right: Box::new(grow(data, &right, &right_sorted, config, depth + 1)),
    }
}

/// Finds the best (feature, threshold) by gain ratio among splits with at
/// least average positive gain. `sorted[f]` must list the node's examples
/// sorted ascending by feature `f`.
fn best_split(data: &Dataset, indices: &[usize], sorted: &[Vec<u32>]) -> Option<SplitChoice> {
    let n = indices.len();
    let n_classes = data.n_classes();
    let mut total_counts = vec![0usize; n_classes];
    for &i in indices {
        total_counts[data.label(i)] += 1;
    }
    let base_entropy = entropy(&total_counts, n);

    let mut candidates: Vec<SplitChoice> = Vec::new();
    for (feature, order) in sorted.iter().enumerate() {
        let value = |k: usize| data.row(order[k] as usize)[feature];
        let mut left_counts = vec![0usize; n_classes];
        let mut best_for_feature: Option<SplitChoice> = None;
        for k in 0..n - 1 {
            left_counts[data.label(order[k] as usize)] += 1;
            // Candidate threshold only between distinct values.
            if value(k) == value(k + 1) {
                continue;
            }
            let n_left = k + 1;
            let n_right = n - n_left;
            let mut right_counts = vec![0usize; n_classes];
            for (c, (&t, &l)) in right_counts
                .iter_mut()
                .zip(total_counts.iter().zip(left_counts.iter()))
            {
                *c = t - l;
            }
            let split_entropy = (n_left as f64 / n as f64) * entropy(&left_counts, n_left)
                + (n_right as f64 / n as f64) * entropy(&right_counts, n_right);
            let gain = base_entropy - split_entropy;
            if gain <= 1e-12 {
                continue;
            }
            let p_left = n_left as f64 / n as f64;
            let split_info = -(p_left * p_left.log2() + (1.0 - p_left) * (1.0 - p_left).log2());
            let gain_ratio = gain / split_info.max(1e-12);
            let threshold = (value(k) + value(k + 1)) / 2.0;
            // NaN rejection: a NaN or infinite feature value produces a
            // non-finite threshold (NaN ≠ NaN, so the distinct-values guard
            // above does not catch it); such a split can never be applied
            // meaningfully at prediction time, so it is not a candidate.
            if !threshold.is_finite() || !gain_ratio.is_finite() {
                continue;
            }
            let cand = SplitChoice {
                feature,
                threshold,
                gain,
                gain_ratio,
            };
            if best_for_feature
                .as_ref()
                .is_none_or(|b| cand.gain_ratio > b.gain_ratio)
            {
                best_for_feature = Some(cand);
            }
        }
        if let Some(c) = best_for_feature {
            candidates.push(c);
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let avg_gain: f64 = candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
    candidates
        .into_iter()
        // C4.5: restrict gain-ratio selection to at-least-average gain.
        .filter(|c| c.gain >= avg_gain - 1e-12)
        // Total order: candidates all carry finite gain ratios (enforced at
        // construction), and `total_cmp` keeps the selection deterministic
        // even if that invariant is ever violated.
        .max_by(|a, b| a.gain_ratio.total_cmp(&b.gain_ratio))
}

mod differential {
    use super::super::{DecisionTree, Node, Presorted, TreeConfig, MEMO_ROWS};
    use crate::data::Dataset;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A feature value drawn to collide: a few small integers (many ties),
    /// signed zeros, NaNs of both signs, infinities, values whose midpoint
    /// overflows and adjacent floats whose midpoint rounds onto one of them.
    fn value(rng: &mut StdRng, distinct: i64) -> f64 {
        match rng.gen_range(0..24u32) {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => f64::MAX,
            7 => -f64::MAX,
            8 => 1.0 + f64::EPSILON,
            9 => rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(0..distinct) as f64,
        }
    }

    /// A random dataset with `rows` examples: 0–6 features, 1–16 classes.
    fn dataset(rng: &mut StdRng, rows: usize) -> Dataset {
        let n_features = rng.gen_range(0..7usize);
        let n_classes = rng.gen_range(1..17usize);
        // Few live classes most of the time, so some nodes go pure.
        let live = rng.gen_range(1..n_classes + 1);
        let distinct = rng.gen_range(1..9i64);
        let xs = (0..rows)
            .map(|_| (0..n_features).map(|_| value(rng, distinct)).collect())
            .collect();
        let ys = (0..rows).map(|_| rng.gen_range(0..live)).collect();
        Dataset::new(xs, ys, n_classes).expect("rectangular, labels in range")
    }

    fn config(rng: &mut StdRng) -> TreeConfig {
        TreeConfig {
            max_depth: rng.gen_range(0..13usize),
            min_split: rng.gen_range(0..7usize),
            prune: rng.gen_range(0..2u32) == 0,
            ..TreeConfig::default()
        }
    }

    /// The trees of `fast` and `slow` must print identically (`{:?}` keeps
    /// the sign of a zero threshold). An empty training set with
    /// `min_split: 0` and `max_depth > 0` is the one input the reference
    /// panics on; there the rewrite must return the class-0 leaf.
    fn assert_same(
        fast: DecisionTree,
        slow: impl FnOnce() -> DecisionTree,
        empty: bool,
        cfg: &TreeConfig,
    ) {
        if empty && cfg.min_split == 0 && cfg.max_depth > 0 {
            assert!(
                matches!(fast.root, Node::Leaf { label: 0, n: 0, .. }),
                "{fast:?}"
            );
            return;
        }
        assert_eq!(format!("{fast:?}"), format!("{:?}", slow()), "{cfg:?}");
    }

    proptest! {
        // Release builds (the CI differential step) explore far more cases.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 400 } else { 20_000 }
        ))]

        #[test]
        fn rewrite_matches_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(0..300usize)
            } else {
                rng.gen_range(0..40usize)
            };
            let data = dataset(&mut rng, rows);
            let cfg = config(&mut rng);
            assert_same(DecisionTree::train(&data, &cfg), || super::train(&data, &cfg), rows == 0, &cfg);

            // A random subset in random order, through one shared Presorted.
            let keep = rng.gen_range(0.0..1.0);
            let mut subset: Vec<usize> = (0..rows).filter(|_| rng.gen_range(0.0..1.0) < keep).collect();
            for k in (1..subset.len()).rev() {
                subset.swap(k, rng.gen_range(0..k + 1));
            }
            let presorted = Presorted::new(&data);
            let fast = DecisionTree::train_on(&data, &presorted, &subset, &cfg);
            assert_same(fast, || super::train_subset(&data, &subset, &cfg), subset.is_empty(), &cfg);
        }
    }

    /// Nodes larger than the memo compute their terms directly; the trees
    /// must not change across that boundary.
    #[test]
    fn nodes_past_the_memo_match_reference() {
        let mut rng = StdRng::seed_from_u64(0x7ee5);
        let rows = MEMO_ROWS + 300;
        let xs = (0..rows)
            .map(|_| {
                (0..3)
                    .map(|_| rng.gen_range(0..400i64) as f64 / 8.0)
                    .collect()
            })
            .collect();
        let ys = (0..rows).map(|_| rng.gen_range(0..5usize)).collect();
        let data = Dataset::new(xs, ys, 5).unwrap();
        for prune in [false, true] {
            let cfg = TreeConfig {
                prune,
                ..TreeConfig::default()
            };
            assert_eq!(
                format!("{:?}", DecisionTree::train(&data, &cfg)),
                format!("{:?}", super::train(&data, &cfg))
            );
        }
    }
}
