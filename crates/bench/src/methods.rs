//! The competing methods of the evaluation, all under the same outer
//! cross-validation protocol: "Loops that are used for generating features
//! and later learning a model are *never* used to evaluate the model" (§VI).
//!
//! Every method maps the suite's loops to per-loop unroll factors:
//!
//! - [`predict_cv_tree`] — a C4.5 decision tree over a fixed feature set
//!   (GCC's features, stateML's features, or their union — Figure 15);
//! - [`predict_cv_svm`] — the stateML one-vs-all RBF SVM (Figure 13);
//! - [`predict_cv_ours`] — the paper's contribution: per fold, derive the
//!   grammar from the training loops, run the GP feature search, train a
//!   tree over the found features, predict the held-out loops.

use crate::par;
use crate::pipeline::{LoopRecord, PipelineError, SuiteData};
use fegen_core::{FeatureSearch, SearchConfig, SearchOutcome};
use fegen_ml::data::Dataset;
use fegen_ml::svm::{Svm, SvmConfig};
use fegen_ml::tree::{DecisionTree, TreeConfig};
use fegen_ml::KFold;
use std::convert::Infallible;

/// Number of unroll-factor classes (factors 0..=15).
pub const N_CLASSES: usize = 16;

fn labels(loops: &[LoopRecord]) -> Vec<usize> {
    loops.iter().map(LoopRecord::label_factor).collect()
}

/// Runs one CV fold per split of `n` loops on up to `workers` threads (see
/// [`crate::par`]). Each fold returns its predictions for its test loops,
/// in split order, plus an extra output; the predictions are scattered into
/// one per-loop vector and the extras come back in fold order.
fn run_folds<T: Send, E: Send>(
    n: usize,
    folds: usize,
    seed: u64,
    workers: usize,
    fold: impl Fn(usize, &[usize], &[usize]) -> Result<(Vec<usize>, T), E> + Sync,
) -> Result<(Vec<usize>, Vec<T>), E> {
    let splits = KFold::new(folds, seed).splits(n);
    let results = par::try_map_ordered(workers, splits.len(), |k| {
        let (train, test) = &splits[k];
        fold(k, train, test)
    })?;
    let mut factors = vec![0usize; n];
    let mut extras = Vec::with_capacity(results.len());
    for ((_, test), (predicted, extra)) in splits.iter().zip(results) {
        for (&i, f) in test.iter().zip(predicted) {
            factors[i] = f;
        }
        extras.push(extra);
    }
    Ok((factors, extras))
}

/// Cross-validated decision-tree predictions over a fixed feature mapping.
/// Folds run concurrently; the result does not depend on it.
pub fn predict_cv_tree(
    data: &SuiteData,
    features: impl Fn(&LoopRecord) -> Vec<f64>,
    folds: usize,
    seed: u64,
    tree: &TreeConfig,
) -> Vec<usize> {
    predict_cv_tree_with_workers(par::available_workers(), data, features, folds, seed, tree)
}

/// [`predict_cv_tree`] on up to `workers` fold threads.
pub(crate) fn predict_cv_tree_with_workers(
    workers: usize,
    data: &SuiteData,
    features: impl Fn(&LoopRecord) -> Vec<f64>,
    folds: usize,
    seed: u64,
    tree: &TreeConfig,
) -> Vec<usize> {
    let loops = &data.loops;
    let xs: Vec<Vec<f64>> = loops.iter().map(&features).collect();
    let ys = labels(loops);
    let fallback = majority(&ys);
    // A ragged feature mapping cannot train a model; fall back to the
    // majority factor rather than aborting the evaluation.
    let Ok(dataset) = Dataset::new(xs, ys, N_CLASSES) else {
        return vec![fallback; loops.len()];
    };
    let Ok((factors, _)) = run_folds(loops.len(), folds, seed, workers, |_, train, test| {
        let model = DecisionTree::train(&dataset.subset(train), tree);
        let predicted = test.iter().map(|&i| model.predict(dataset.row(i)));
        Ok::<_, Infallible>((predicted.collect(), ()))
    });
    factors
}

/// Cross-validated one-vs-all RBF SVM predictions (the stateML scheme:
/// σ = 1, C = 10, features standardised on each fold's training split).
/// Folds run concurrently; the result does not depend on it.
pub fn predict_cv_svm(
    data: &SuiteData,
    features: impl Fn(&LoopRecord) -> Vec<f64>,
    folds: usize,
    seed: u64,
    svm: &SvmConfig,
) -> Vec<usize> {
    predict_cv_svm_with_workers(par::available_workers(), data, features, folds, seed, svm)
}

/// [`predict_cv_svm`] on up to `workers` fold threads.
pub(crate) fn predict_cv_svm_with_workers(
    workers: usize,
    data: &SuiteData,
    features: impl Fn(&LoopRecord) -> Vec<f64>,
    folds: usize,
    seed: u64,
    svm: &SvmConfig,
) -> Vec<usize> {
    let loops = &data.loops;
    let xs: Vec<Vec<f64>> = loops.iter().map(&features).collect();
    let ys = labels(loops);
    let fallback = majority(&ys);
    let Ok(dataset) = Dataset::new(xs, ys, N_CLASSES) else {
        return vec![fallback; loops.len()];
    };
    let Ok((factors, _)) = run_folds(loops.len(), folds, seed, workers, |_, train, test| {
        let train_set = dataset.subset(train);
        let stats = train_set.feature_stats();
        let model = Svm::train(&train_set.standardized(&stats), svm);
        let all_std = dataset.standardized(&stats);
        let predicted = test.iter().map(|&i| model.predict(all_std.row(i)));
        Ok::<_, Infallible>((predicted.collect(), ()))
    });
    factors
}

/// Result of the full our-method run: predictions plus the per-fold search
/// outcomes (used by the Figure 16 report).
#[derive(Debug)]
pub struct OursResult {
    /// Per-loop factor predictions (each loop predicted by the fold that
    /// held it out).
    pub factors: Vec<usize>,
    /// The feature-search outcome of each fold.
    pub outcomes: Vec<SearchOutcome>,
}

/// Cross-validated run of the paper's technique.
///
/// # Panics
///
/// Panics when a fold's feature search fails; use [`try_predict_cv_ours`]
/// for a typed error naming the fold.
pub fn predict_cv_ours(
    data: &SuiteData,
    folds: usize,
    seed: u64,
    search: &SearchConfig,
) -> OursResult {
    match try_predict_cv_ours(data, folds, seed, search) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`predict_cv_ours`]: a failing fold surfaces as
/// [`PipelineError::Search`] with the fold index and the underlying
/// [`fegen_core::SearchError`], instead of aborting the whole evaluation
/// with a panic.
///
/// Folds search concurrently, each with its own seed and its own
/// [`FeatureSearch`], so factors and outcomes do not depend on it. When
/// several folds fail, the error names the lowest one, as a serial run
/// would.
pub fn try_predict_cv_ours(
    data: &SuiteData,
    folds: usize,
    seed: u64,
    search: &SearchConfig,
) -> Result<OursResult, PipelineError> {
    try_predict_cv_ours_with_workers(par::available_workers(), data, folds, seed, search)
}

/// [`try_predict_cv_ours`] on up to `workers` fold threads.
pub(crate) fn try_predict_cv_ours_with_workers(
    workers: usize,
    data: &SuiteData,
    folds: usize,
    seed: u64,
    search: &SearchConfig,
) -> Result<OursResult, PipelineError> {
    let examples = data.training_examples();
    let ys = labels(&data.loops);
    let (factors, outcomes) =
        run_folds(examples.len(), folds, seed, workers, |fold, train, test| {
            let train_examples: Vec<_> = train.iter().map(|&i| examples[i].clone()).collect();
            let mut cfg = search.clone();
            cfg.seed = seed ^ (fold as u64).wrapping_mul(0x9e37);
            let fs = FeatureSearch::from_examples(&train_examples, cfg.clone());
            let outcome = fs
                .try_run(&train_examples)
                .map_err(|source| PipelineError::Search { fold, source })?;

            // Deploy: train the final tree over the found features on the
            // training loops, predict the held-out loops. The feature matrix is
            // rectangular by construction; a degenerate one falls back to the
            // majority predictor rather than aborting the evaluation.
            let matrix_train = fs.feature_matrix(&outcome.features, &train_examples);
            let ys_train: Vec<usize> = train.iter().map(|&i| ys[i]).collect();
            let model = if outcome.features.is_empty() {
                None
            } else {
                Dataset::new(matrix_train, ys_train.clone(), N_CLASSES)
                    .ok()
                    .map(|ds| DecisionTree::train(&ds, &cfg.tree))
            };
            // Fallback when the search found nothing: majority factor.
            let majority = majority(&ys_train);
            let test_examples: Vec<_> = test.iter().map(|&i| examples[i].clone()).collect();
            let matrix_test = fs.feature_matrix(&outcome.features, &test_examples);
            let predicted = matrix_test.iter().map(|row| match &model {
                Some(m) => m.predict(row),
                None => majority,
            });
            Ok((predicted.collect(), outcome))
        })?;
    Ok(OursResult { factors, outcomes })
}

fn majority(ys: &[usize]) -> usize {
    let mut counts = [0usize; N_CLASSES];
    for &y in ys {
        counts[y] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(i, &c)| (c, usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Per-loop mean speedup of a factor assignment (the loop-level metric the
/// feature search optimises; the figures report benchmark-level speedups).
pub fn loop_level_speedup(data: &SuiteData, factors: &[usize]) -> f64 {
    let tables: Vec<Vec<f64>> = data.loops.iter().map(|l| l.cycles.clone()).collect();
    fegen_ml::metrics::mean_speedup(&tables, factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_suite_data, ExperimentConfig};
    use fegen_suite::SuiteConfig;

    fn tiny() -> SuiteData {
        let mut config = ExperimentConfig::quick();
        config.suite = SuiteConfig::tiny();
        build_suite_data(&config)
    }

    #[test]
    fn tree_and_svm_cv_cover_every_loop() {
        let data = tiny();
        let tree = predict_cv_tree(&data, |l| l.gcc_feats.clone(), 3, 1, &TreeConfig::default());
        assert_eq!(tree.len(), data.loops.len());
        assert!(tree.iter().all(|&f| f < N_CLASSES));
        let svm = predict_cv_svm(
            &data,
            |l| l.stateml_feats.clone(),
            3,
            1,
            &SvmConfig::default(),
        );
        assert_eq!(svm.len(), data.loops.len());
    }

    #[test]
    fn oracle_dominates_loop_level() {
        let data = tiny();
        let oracle = loop_level_speedup(&data, &data.oracle_factors());
        let gcc = loop_level_speedup(&data, &data.gcc_factors());
        let zero = loop_level_speedup(&data, &vec![0; data.loops.len()]);
        assert!((zero - 1.0).abs() < 1e-12);
        assert!(oracle >= gcc, "oracle {oracle} vs gcc {gcc}");
        assert!(oracle >= 1.0);
    }

    #[test]
    fn ours_runs_and_predicts_every_loop() {
        let data = tiny();
        let mut cfg = SearchConfig::quick();
        cfg.max_features = 2;
        cfg.max_total_generations = 20;
        cfg.gp.population = 10;
        cfg.gp.max_generations = 4;
        let r = predict_cv_ours(&data, 3, 7, &cfg);
        assert_eq!(r.factors.len(), data.loops.len());
        assert_eq!(r.outcomes.len(), 3);
    }

    #[test]
    fn fold_parallel_cv_matches_serial_cv() {
        let data = tiny();
        let tree = |workers| {
            predict_cv_tree_with_workers(
                workers,
                &data,
                |l| l.gcc_feats.clone(),
                3,
                1,
                &TreeConfig::default(),
            )
        };
        assert_eq!(tree(1), tree(3));
        let svm = |workers| {
            predict_cv_svm_with_workers(
                workers,
                &data,
                |l| l.stateml_feats.clone(),
                3,
                1,
                &SvmConfig::default(),
            )
        };
        assert_eq!(svm(1), svm(3));
        let mut cfg = SearchConfig::quick();
        cfg.max_features = 2;
        cfg.max_total_generations = 20;
        cfg.gp.population = 10;
        cfg.gp.max_generations = 4;
        let ours = |workers| try_predict_cv_ours_with_workers(workers, &data, 3, 7, &cfg).unwrap();
        let (serial, parallel) = (ours(1), ours(3));
        assert_eq!(serial.factors, parallel.factors);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert!(
            serial.outcomes.iter().any(|o| !o.features.is_empty()),
            "some fold must find features for the comparison to mean anything"
        );
    }
}
