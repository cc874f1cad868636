//! C4.5-style decision-tree classifier.
//!
//! Continuous attributes are split at midpoints between adjacent distinct
//! values; splits are chosen by **gain ratio** among candidates whose
//! information gain is at least the average positive gain (Quinlan's
//! guard against the gain-ratio bias towards unbalanced splits). Subtrees
//! are pruned with C4.5's pessimistic error estimate (confidence factor
//! 0.25).
//!
//! [`DecisionTree::predict_traced`] additionally records the decision path,
//! which the experiment harness uses to print the Figure 3 / Figure 4 style
//! path listings.

use crate::data::Dataset;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth of the tree.
    pub max_depth: usize,
    /// Minimum number of examples required to attempt a split.
    pub min_split: usize,
    /// Whether to apply pessimistic post-pruning.
    pub prune: bool,
    /// z-value of the pruning confidence bound (0.6925 ≈ CF 0.25, C4.5's
    /// default).
    pub prune_z: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_split: 4,
            prune: true,
            prune_z: 0.6925,
        }
    }
}

/// One step of a traced prediction: the split consulted and the direction
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Index of the feature consulted.
    pub feature: usize,
    /// Split threshold.
    pub threshold: f64,
    /// `true` when the example went left (`value <= threshold`).
    pub went_left: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: usize,
        /// Training examples that reached this leaf.
        n: usize,
        /// Of which misclassified.
        errors: usize,
        /// Class histogram of the training examples at this leaf.
        dist: Vec<usize>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Per-feature value orderings of a dataset's examples, computed once.
///
/// The split scan reads every candidate-split column in value order.
/// `Presorted` sorts each feature's examples by value **once**; training
/// restricts those orderings to its examples and keeps them sorted by
/// order-preserving partition at every node (O(n) per node, no sorting),
/// so cross-validation folds share one `Presorted`.
///
/// Thresholds are only placed between *distinct* adjacent values and split
/// statistics are cumulative label counts, so the relative order of equal
/// values never affects a split decision.
#[derive(Debug, Clone)]
pub struct Presorted {
    /// `by_feature[f]` lists every example, with its value of feature `f`
    /// and its label, sorted ascending by that value (stable in example
    /// order for ties).
    by_feature: Vec<Vec<Entry>>,
}

/// One example in a feature's value order, carrying everything the split
/// scan and the node partition read, so both walk memory in order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    label: u32,
    example: u32,
}

impl Presorted {
    /// Sorts every feature column of `data` once.
    pub fn new(data: &Dataset) -> Presorted {
        let by_feature = (0..data.n_features())
            .map(|f| sorted_column(data, f))
            .collect();
        Presorted { by_feature }
    }

    /// Sorts the next feature column of `data` — the first one `self` does
    /// not hold yet — onto the end. `self` must presort a prefix of
    /// `data`'s features over the same examples and labels; the result then
    /// equals `Presorted::new(data)` restricted to one more feature, so a
    /// caller that varies only the last column sorts only that column.
    pub fn push_feature(&mut self, data: &Dataset) {
        let f = self.by_feature.len();
        self.by_feature.push(sorted_column(data, f));
    }
}

/// Feature `f` of every example, in ascending value order (stable in
/// example order for ties).
fn sorted_column(data: &Dataset, f: usize) -> Vec<Entry> {
    let mut column: Vec<Entry> = (0..data.len())
        .map(|i| Entry {
            value: data.row(i)[f],
            label: data.label(i) as u32,
            example: i as u32,
        })
        .collect();
    // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: the latter is not
    // a total order when a NaN feature value slips in, making the sort
    // order — and thus the learned tree — nondeterministic. Under the total
    // order NaNs sort after +inf, deterministically.
    column.sort_by(|a, b| a.value.total_cmp(&b.value));
    column
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
}

impl DecisionTree {
    /// Trains a tree on `data`.
    ///
    /// An empty dataset yields a tree that always predicts class 0.
    pub fn train(data: &Dataset, config: &TreeConfig) -> DecisionTree {
        let presorted = Presorted::new(data);
        let indices: Vec<usize> = (0..data.len()).collect();
        DecisionTree::train_on(data, &presorted, &indices, config)
    }

    /// Trains a tree on the examples of `data` selected by `indices`,
    /// reusing the dataset-wide `presorted` orderings.
    ///
    /// Equivalent to `train(&data.subset(indices), config)` but without
    /// copying rows or re-sorting feature columns — the intended entry point
    /// for cross-validation, where every fold shares one [`Presorted`].
    /// `indices` must not contain duplicates.
    pub fn train_on(
        data: &Dataset,
        presorted: &Presorted,
        indices: &[usize],
        config: &TreeConfig,
    ) -> DecisionTree {
        let mut root = if presorted.by_feature.is_empty() {
            // No feature can split: the root is the majority leaf.
            let mut counts = vec![0usize; data.n_classes()];
            for &i in indices {
                counts[data.label(i)] += 1;
            }
            leaf(counts, indices.len())
        } else {
            MEMO.with_borrow_mut(|memo| {
                memo.cover(indices.len());
                Grower::new(data, presorted, indices, config, memo).grow_root()
            })
        };
        if config.prune {
            prune(&mut root, config.prune_z);
        }
        DecisionTree {
            root,
            n_features: data.n_features(),
        }
    }

    /// Predicts the class of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the training feature count.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicts the class of `row`, recording every split consulted.
    pub fn predict_traced(&self, row: &[f64]) -> (usize, Vec<PathStep>) {
        let mut node = &self.root;
        let mut path = Vec::new();
        loop {
            match node {
                Node::Leaf { label, .. } => return (*label, path),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let went_left = row[*feature] <= *threshold;
                    path.push(PathStep {
                        feature: *feature,
                        threshold: *threshold,
                        went_left,
                    });
                    node = if went_left { left } else { right };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Renders the tree as an indented `if (fK <= t)` listing, in the style
    /// of the paper's Figure 3(b), with `names[k]` naming feature `k`
    /// (falls back to `fK`).
    pub fn render(&self, names: &[String]) -> String {
        fn name(names: &[String], k: usize) -> String {
            names.get(k).cloned().unwrap_or_else(|| format!("f{k}"))
        }
        fn go(n: &Node, names: &[String], out: &mut String, indent: usize) {
            use std::fmt::Write;
            let pad = "  ".repeat(indent);
            match n {
                Node::Leaf { label, .. } => {
                    let _ = writeln!(out, "{pad}predict {label};");
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let _ = writeln!(out, "{pad}if( {} <= {} )", name(names, *feature), threshold);
                    go(left, names, out, indent + 1);
                    let _ = writeln!(out, "{pad}else");
                    go(right, names, out, indent + 1);
                }
            }
        }
        let mut out = String::new();
        go(&self.root, names, &mut out, 0);
        out
    }
}

impl fmt::Display for DecisionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(&[]))
    }
}

/// Largest node size whose entropy and split-info terms are memoised:
/// about `MEMO_ROWS²` f64s (8 MiB) per thread at most. Larger nodes, which
/// only paper-scale roots reach, compute their terms directly.
const MEMO_ROWS: usize = 1024;

/// One class's entropy term `-p·log2(p)` at `p = c / total`, exactly as
/// C4.5's entropy sums it.
fn entropy_term(c: usize, total: usize) -> f64 {
    let p = c as f64 / total as f64;
    -p * p.log2()
}

/// Split information of sending `n_left` of `n` examples left.
fn split_info_term(n_left: usize, n: usize) -> f64 {
    let p_left = n_left as f64 / n as f64;
    -(p_left * p_left.log2() + (1.0 - p_left) * (1.0 - p_left).log2())
}

/// Triangular tables of [`entropy_term`] and [`split_info_term`] for every
/// node size below `rows`, grown on demand and kept per thread, so the
/// split scan does table lookups instead of two logarithms per class per
/// threshold.
///
/// The lookups are bit-exact stand-ins for computing in place: each entry
/// is computed by the very expression it replaces, and
/// [`EntropyMemo::entropy`] adds the entries in the same class order.
/// Entropy skips zero counts; the table answers a zero count with `-0.0`
/// instead, and since `x + -0.0` is `x` for every `x`, signed zeros
/// included, the branch-free sum equals the sum over the nonzero terms.
#[derive(Default)]
struct EntropyMemo {
    /// `terms[t(t+1)/2 + c] = entropy_term(c, t)` for `1 ≤ c ≤ t`, and
    /// `-0.0` at `c = 0`.
    terms: Vec<f64>,
    /// `split_terms[(n-1)(n-2)/2 + l - 1] = split_info_term(l, n)` for
    /// `1 ≤ l < n`.
    split_terms: Vec<f64>,
    rows: usize,
}

thread_local! {
    static MEMO: std::cell::RefCell<EntropyMemo> = std::cell::RefCell::default();
}

impl EntropyMemo {
    /// Extends the tables to node sizes up to `n` (capped at [`MEMO_ROWS`]).
    fn cover(&mut self, n: usize) {
        let rows = n.min(MEMO_ROWS) + 1;
        for t in self.rows..rows {
            self.terms.push(-0.0);
            self.terms.extend((1..=t).map(|c| entropy_term(c, t)));
            self.split_terms
                .extend((1..t).map(|l| split_info_term(l, t)));
        }
        self.rows = self.rows.max(rows);
    }

    /// Entropy of a class histogram over `total` examples, given as its
    /// counts in ascending class order (zero counts may be left out).
    fn entropy(&self, counts: impl Iterator<Item = usize>, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        if total >= self.rows {
            return counts
                .filter(|&c| c > 0)
                .map(|c| entropy_term(c, total))
                .sum();
        }
        let row = &self.terms[total * (total + 1) / 2..][..=total];
        counts.map(|c| row[c]).sum()
    }

    /// [`split_info_term`]`(n_left, n)` for `1 ≤ n_left < n`.
    fn split_info(&self, n_left: usize, n: usize) -> f64 {
        if n >= self.rows {
            return split_info_term(n_left, n);
        }
        self.split_terms[(n - 1) * (n - 2) / 2 + n_left - 1]
    }
}

#[derive(Clone, Copy)]
struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    gain_ratio: f64,
}

/// The leaf predicting the majority of `counts` (ties towards the smaller
/// class; class 0 when empty).
fn leaf(counts: Vec<usize>, n: usize) -> Node {
    let (label, &n_max) = counts
        .iter()
        .enumerate()
        .max_by_key(|(i, &c)| (c, usize::MAX - i))
        .unwrap_or((0, &0));
    Node::Leaf {
        label,
        n,
        errors: n - n_max,
        dist: counts,
    }
}

/// The state of growing one tree.
///
/// Every feature's ordering of the training examples lives in one buffer,
/// `order`, feature-major: feature `f` owns `order[f * m..(f + 1) * m]`.
/// A node is a position range `lo..hi`, and the invariant is that for every
/// feature `f`, `order[f * m + lo..f * m + hi]` holds exactly the node's
/// examples sorted ascending by feature `f` (`total_cmp`, ties in example
/// order).
/// Splitting a node partitions each of its feature segments in place,
/// left examples first, both halves keeping their order, so the children
/// are `lo..mid` and `mid..hi` and the invariant holds for them too.
struct Grower<'a> {
    n_features: usize,
    n_classes: usize,
    config: &'a TreeConfig,
    memo: &'a EntropyMemo,
    /// Examples trained on: the length of each feature segment.
    m: usize,
    order: Vec<Entry>,
    /// Per example: whether it goes left at the node being split.
    goes_left: Vec<bool>,
    /// Partition buffer for one segment's right-going examples.
    spill: Vec<Entry>,
    /// Class histogram left of the threshold being scanned.
    left: Vec<usize>,
    /// The classes present at the node being scanned, ascending.
    classes: Vec<usize>,
    candidates: Vec<SplitChoice>,
}

impl<'a> Grower<'a> {
    fn new(
        data: &Dataset,
        presorted: &Presorted,
        indices: &[usize],
        config: &'a TreeConfig,
        memo: &'a EntropyMemo,
    ) -> Self {
        let mut member = vec![false; data.len()];
        for &i in indices {
            member[i] = true;
        }
        // Restrict every ordering to the training examples; order within
        // each feature is preserved, so each segment stays sorted by value.
        let n_features = presorted.by_feature.len();
        let mut order = Vec::with_capacity(indices.len() * n_features);
        for column in &presorted.by_feature {
            order.extend(column.iter().filter(|e| member[e.example as usize]));
        }
        let m = order.len() / n_features;
        let n_classes = data.n_classes();
        Grower {
            n_features,
            n_classes,
            config,
            memo,
            m,
            spill: order[..m].to_vec(),
            order,
            goes_left: member,
            left: vec![0; n_classes],
            classes: Vec::with_capacity(n_classes),
            candidates: Vec::with_capacity(n_features),
        }
    }

    fn grow_root(mut self) -> Node {
        let mut counts = vec![0usize; self.n_classes];
        for e in &self.order[..self.m] {
            counts[e.label as usize] += 1;
        }
        self.grow(0, self.m, 0, counts)
    }

    /// Grows the subtree of the node at positions `lo..hi`, whose class
    /// histogram is `counts`.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize, mut counts: Vec<usize>) -> Node {
        let n = hi - lo;
        if self.stops(n, depth, &counts) {
            return leaf(counts, n);
        }
        let Some(best) = self.best_split(lo, hi, &counts) else {
            return leaf(counts, n);
        };

        let m = self.m;
        let mut left_counts = vec![0usize; self.n_classes];
        for e in &self.order[best.feature * m + lo..best.feature * m + hi] {
            let left = e.value <= best.threshold;
            self.goes_left[e.example as usize] = left;
            left_counts[e.label as usize] += usize::from(left);
        }
        let n_left: usize = left_counts.iter().sum();
        if n_left == 0 || n_left == n {
            return leaf(counts, n);
        }
        for (c, l) in counts.iter_mut().zip(&left_counts) {
            *c -= l;
        }
        // A child that stops reads nothing but its histogram, so the
        // segments need partitioning only when a child will look for a
        // split.
        if self.stops(n_left, depth + 1, &left_counts) && self.stops(n - n_left, depth + 1, &counts)
        {
            return Node::Split {
                feature: best.feature,
                threshold: best.threshold,
                left: Box::new(leaf(left_counts, n_left)),
                right: Box::new(leaf(counts, n - n_left)),
            };
        }
        for f in 0..self.n_features {
            let segment = &mut self.order[f * m + lo..f * m + hi];
            // Branch-free stable partition: every entry is written to both
            // destinations and only the matching cursor advances.
            let (mut kept, mut spilled) = (0, 0);
            for k in 0..segment.len() {
                let e = segment[k];
                let left = self.goes_left[e.example as usize];
                segment[kept] = e;
                self.spill[spilled] = e;
                kept += usize::from(left);
                spilled += usize::from(!left);
            }
            segment[kept..].copy_from_slice(&self.spill[..spilled]);
        }
        let mid = lo + n_left;
        Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left: Box::new(self.grow(lo, mid, depth + 1, left_counts)),
            right: Box::new(self.grow(mid, hi, depth + 1, counts)),
        }
    }

    /// Whether a node of `n` examples at `depth` with class histogram
    /// `counts` becomes a leaf without looking for a split.
    fn stops(&self, n: usize, depth: usize, counts: &[usize]) -> bool {
        n == 0 || n < self.config.min_split || depth >= self.config.max_depth || counts.contains(&n)
    }

    /// Finds the best (feature, threshold) of the node at `lo..hi` by gain
    /// ratio among splits with at least average positive gain. `total` is
    /// the node's class histogram.
    fn best_split(&mut self, lo: usize, hi: usize, total: &[usize]) -> Option<SplitChoice> {
        let n = hi - lo;
        let m = self.m;
        let memo = self.memo;
        // Classes absent from the node count zero on both sides of every
        // threshold: the entropy sums need only visit the present ones.
        self.classes.clear();
        self.classes
            .extend((0..self.n_classes).filter(|&c| total[c] > 0));
        let classes = &self.classes;
        let base_entropy = memo.entropy(classes.iter().map(|&c| total[c]), n);

        self.candidates.clear();
        for feature in 0..self.n_features {
            let segment = &self.order[feature * m + lo..feature * m + hi];
            let left = &mut self.left;
            left.fill(0);
            let mut best_for_feature: Option<SplitChoice> = None;
            let mut next = segment[0].value;
            for k in 0..n - 1 {
                let label = segment[k].label as usize;
                left[label] += 1;
                let value = next;
                next = segment[k + 1].value;
                // Candidate threshold only between distinct values.
                if value == next {
                    continue;
                }
                let n_left = k + 1;
                let n_right = n - n_left;
                let split_entropy = (n_left as f64 / n as f64)
                    * memo.entropy(classes.iter().map(|&c| left[c]), n_left)
                    + (n_right as f64 / n as f64)
                        * memo.entropy(classes.iter().map(|&c| total[c] - left[c]), n_right);
                let gain = base_entropy - split_entropy;
                if gain <= 1e-12 {
                    continue;
                }
                let gain_ratio = gain / memo.split_info(n_left, n).max(1e-12);
                let threshold = (value + next) / 2.0;
                // NaN rejection: a NaN or infinite feature value produces a
                // non-finite threshold (NaN ≠ NaN, so the distinct-values
                // guard above does not catch it); such a split can never be
                // applied meaningfully at prediction time, so it is not a
                // candidate.
                if !threshold.is_finite() || !gain_ratio.is_finite() {
                    continue;
                }
                if best_for_feature.is_none_or(|b| gain_ratio > b.gain_ratio) {
                    best_for_feature = Some(SplitChoice {
                        feature,
                        threshold,
                        gain,
                        gain_ratio,
                    });
                }
            }
            self.candidates.extend(best_for_feature);
        }
        if self.candidates.is_empty() {
            return None;
        }
        let candidates = &self.candidates;
        let avg_gain: f64 =
            candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
        candidates
            .iter()
            // C4.5: restrict gain-ratio selection to at-least-average gain.
            .filter(|c| c.gain >= avg_gain - 1e-12)
            // Total order: candidates all carry finite gain ratios (enforced
            // at construction), and `total_cmp` keeps the selection
            // deterministic even if that invariant is ever violated.
            .max_by(|a, b| a.gain_ratio.total_cmp(&b.gain_ratio))
            .copied()
    }
}

/// C4.5 pessimistic error: upper confidence bound on the leaf error rate.
fn pessimistic_errors(n: usize, errors: usize, z: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let f = errors as f64 / nf;
    let z2 = z * z;
    let ucb = (f + z2 / (2.0 * nf)
        + z * (f * (1.0 - f) / nf + z2 / (4.0 * nf * nf)).sqrt())
        / (1.0 + z2 / nf);
    ucb * nf
}

/// Bottom-up subtree replacement (C4.5's pessimistic pruning): collapse a
/// split when the upper confidence bound on the error of a leaf covering
/// the same examples is no worse than the sum over its children. Returns
/// `(class_histogram, pessimistic_errors)` for the subtree.
fn prune(node: &mut Node, z: f64) -> (Vec<usize>, f64) {
    match node {
        Node::Leaf {
            n, errors, dist, ..
        } => (dist.clone(), pessimistic_errors(*n, *errors, z)),
        Node::Split { left, right, .. } => {
            let (dl, pl) = prune(left, z);
            let (dr, pr) = prune(right, z);
            let dist: Vec<usize> = dl.iter().zip(&dr).map(|(a, b)| a + b).collect();
            let n: usize = dist.iter().sum();
            let (label, &n_max) = dist
                .iter()
                .enumerate()
                .max_by_key(|(i, &c)| (c, usize::MAX - i))
                .expect("non-empty class histogram");
            let leaf_errors = n - n_max;
            let as_leaf = pessimistic_errors(n, leaf_errors, z);
            if as_leaf <= pl + pr + 0.1 {
                *node = Node::Leaf {
                    label,
                    n,
                    errors: leaf_errors,
                    dist,
                };
                let p = pessimistic_errors(n, leaf_errors, z);
                let dist = match node {
                    Node::Leaf { dist, .. } => dist.clone(),
                    _ => unreachable!(),
                };
                (dist, p)
            } else {
                (dist, pl + pr)
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn xor_like() -> Dataset {
        // Two features; class = (x0 > 0.5) XOR (x1 > 0.5): needs depth 2.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let x0 = i as f64 / 8.0;
                let x1 = j as f64 / 8.0;
                xs.push(vec![x0, x1]);
                ys.push(usize::from((x0 > 0.5) != (x1 > 0.5)));
            }
        }
        Dataset::new(xs, ys, 2).unwrap()
    }

    #[test]
    fn learns_threshold_split() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| usize::from(i >= 17)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[16.4]), 0);
        assert_eq!(t.predict(&[16.6]), 1);
        assert_eq!(t.predict(&[29.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let d = xor_like();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        let correct = (0..d.len())
            .filter(|&i| t.predict(d.row(i)) == d.label(i))
            .count();
        assert!(
            correct as f64 / d.len() as f64 > 0.95,
            "xor accuracy {}/{}",
            correct,
            d.len()
        );
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let d = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[100.0]), 1);
    }

    #[test]
    fn empty_dataset_predicts_class_zero() {
        let d = Dataset::new(vec![], vec![], 4).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[1.0, 2.0]), 0);
    }

    /// Regression: with `min_split: 0` an empty dataset used to reach the
    /// all-one-label check and panic indexing its first example.
    #[test]
    fn empty_dataset_with_min_split_zero_predicts_class_zero() {
        let d = Dataset::new(vec![], vec![], 3).unwrap();
        let cfg = TreeConfig {
            min_split: 0,
            ..TreeConfig::default()
        };
        let t = DecisionTree::train(&d, &cfg);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[1.0]), 0);
        let d = Dataset::new(vec![vec![1.0], vec![2.0]], vec![1, 2], 3).unwrap();
        let t = DecisionTree::train_on(&d, &Presorted::new(&d), &[], &cfg);
        assert_eq!(t.predict(&[1.0]), 0);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let d = Dataset::new(vec![vec![1.0]; 5], vec![0, 1, 1, 1, 0], 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[1.0]), 1);
    }

    #[test]
    fn max_depth_is_respected() {
        let d = xor_like();
        let cfg = TreeConfig {
            max_depth: 1,
            prune: false,
            ..TreeConfig::default()
        };
        let t = DecisionTree::train(&d, &cfg);
        assert!(t.depth() <= 2, "depth {}", t.depth());
    }

    #[test]
    fn traced_prediction_matches_plain() {
        let d = xor_like();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        for i in 0..d.len() {
            let (label, path) = t.predict_traced(d.row(i));
            assert_eq!(label, t.predict(d.row(i)));
            // Path must be consistent with the row.
            for step in &path {
                assert_eq!(step.went_left, d.row(i)[step.feature] <= step.threshold);
            }
        }
    }

    #[test]
    fn pruning_shrinks_noisy_trees() {
        // Random labels: an unpruned tree overfits into many leaves; the
        // pruned tree must be no larger.
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![(i * 37 % 64) as f64]).collect();
        let ys: Vec<usize> = (0..64).map(|i| (i * 13 + 5) % 2).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let unpruned = DecisionTree::train(
            &d,
            &TreeConfig {
                prune: false,
                ..TreeConfig::default()
            },
        );
        let pruned = DecisionTree::train(&d, &TreeConfig::default());
        assert!(
            pruned.n_leaves() <= unpruned.n_leaves(),
            "pruned {} vs unpruned {}",
            pruned.n_leaves(),
            unpruned.n_leaves()
        );
    }

    #[test]
    fn render_mentions_feature_names() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        let rendered = t.render(&["ninsns".to_owned()]);
        assert!(rendered.contains("if( ninsns <="), "{rendered}");
    }

    #[test]
    fn train_on_subset_matches_training_on_copied_subset() {
        // The presorted fold path must produce exactly the tree that a
        // fresh `train` over a row-copied subset would (same structure,
        // thresholds and leaf statistics), including under ties.
        let xs: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                vec![
                    (i * 37 % 16) as f64, // many repeated values
                    (i % 7) as f64,
                    (i * 13 % 48) as f64 / 4.0,
                ]
            })
            .collect();
        let ys: Vec<usize> = (0..48).map(|i| (i * 11 + 3) % 3).collect();
        let d = Dataset::new(xs, ys, 3).unwrap();
        let pre = Presorted::new(&d);
        for (lo, hi) in [(0, 48), (0, 31), (9, 40), (17, 23)] {
            let indices: Vec<usize> = (lo..hi).collect();
            let fast = DecisionTree::train_on(&d, &pre, &indices, &TreeConfig::default());
            let slow = DecisionTree::train(&d.subset(&indices), &TreeConfig::default());
            assert_eq!(fast, slow, "subset {lo}..{hi}");
        }
    }

    #[test]
    fn pushing_the_last_feature_equals_sorting_them_all() {
        // Ties, a NaN and signed zeros in the pushed column: the stable
        // total-order sort must land every entry where `new` puts it.
        let last = [3.0, -0.0, 1.0, f64::NAN, 0.0, 1.0, 3.0, -2.0];
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![(i * 5 % 3) as f64, last[i]]).collect();
        let ys: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let full = Dataset::new(xs.clone(), ys.clone(), 2).unwrap();
        let prefix: Vec<Vec<f64>> = xs.iter().map(|r| r[..1].to_vec()).collect();
        let mut pushed = Presorted::new(&Dataset::new(prefix, ys, 2).unwrap());
        pushed.push_feature(&full);
        assert_eq!(
            format!("{pushed:?}"),
            format!("{:?}", Presorted::new(&full))
        );
    }

    #[test]
    fn multiclass_prediction() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let d = Dataset::new(xs, ys, 3).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[5.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
        assert_eq!(t.predict(&[25.0]), 2);
    }

    /// Regression test for the `partial_cmp(..).unwrap_or(Equal)`
    /// comparators: a NaN attribute value used to make presorting (and so
    /// the learned tree) order-dependent, and could smuggle a NaN threshold
    /// into the tree. Training must be deterministic, ignore the poisoned
    /// feature, and still learn from the clean one.
    #[test]
    fn nan_features_are_rejected_deterministically() {
        // Feature 0 is poisoned with NaNs placed to sit between distinct
        // values; feature 1 cleanly separates the classes.
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                let poisoned = if i % 3 == 0 { f64::NAN } else { (i % 5) as f64 };
                vec![poisoned, i as f64]
            })
            .collect();
        let ys: Vec<usize> = (0..24).map(|i| usize::from(i >= 12)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        // The clean feature still drives prediction.
        assert_eq!(t.predict(&[f64::NAN, 2.0]), 0);
        assert_eq!(t.predict(&[f64::NAN, 20.0]), 1);
        // Determinism: retraining and training through the presorted path
        // give the identical tree.
        assert_eq!(t, DecisionTree::train(&d, &TreeConfig::default()));
        let pre = Presorted::new(&d);
        let indices: Vec<usize> = (0..24).collect();
        assert_eq!(
            t,
            DecisionTree::train_on(&d, &pre, &indices, &TreeConfig::default())
        );
        // No split may carry a non-finite threshold.
        fn thresholds_finite(node: &Node) -> bool {
            match node {
                Node::Leaf { .. } => true,
                Node::Split {
                    threshold,
                    left,
                    right,
                    ..
                } => threshold.is_finite() && thresholds_finite(left) && thresholds_finite(right),
            }
        }
        assert!(thresholds_finite(&t.root));
    }

    /// An all-NaN feature matrix offers no usable split: training must not
    /// panic and must fall back to the majority leaf.
    #[test]
    fn all_nan_features_fall_back_to_majority() {
        let xs: Vec<Vec<f64>> = (0..9).map(|_| vec![f64::NAN, f64::NAN]).collect();
        let ys: Vec<usize> = (0..9).map(|i| usize::from(i < 3)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(t.predict(&[1.0, 1.0]), 0);
    }
}
