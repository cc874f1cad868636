//! Golden values of the tiny preset (`--tiny`: the 3-program suite at 2
//! folds), pinned exactly.
//!
//! The figure binaries print their summaries at one decimal, which hides
//! drift; this test recomputes the Figure 13 and Figure 15 pipelines
//! in-process and pins every "% of max" summary number to the last bit,
//! along with the per-loop factors of our method and each fold's feature
//! strings. A change that claims to keep results identical (a faster tree,
//! a different fold schedule) must leave this test passing unchanged.

use fegen::bench::methods::{predict_cv_ours, predict_cv_svm, predict_cv_tree};
use fegen::bench::pipeline::{build_suite_data, mean, ExperimentConfig, SuiteData};
use fegen::ml::metrics::percent_of_max;
use fegen::ml::svm::SvmConfig;
use fegen::suite::SuiteConfig;

/// The `--tiny` preset of the figure binaries.
fn tiny_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.suite = SuiteConfig::tiny();
    config.folds = 2;
    config
}

/// Percent of the maximum available speedup, as the figure summaries
/// compute it.
fn pct(data: &SuiteData, config: &ExperimentConfig, oracle_mean: f64, factors: &[usize]) -> f64 {
    let speedups = data.all_benchmark_speedups(factors, &config.oracle.sim);
    percent_of_max(mean(&speedups), oracle_mean) * 100.0
}

#[test]
fn tiny_preset_figures_are_pinned() {
    let config = tiny_config();
    let data = build_suite_data(&config);
    let oracle_mean =
        mean(&data.all_benchmark_speedups(&data.oracle_factors(), &config.oracle.sim));
    let tree = &config.search.tree;
    let folds = config.folds;
    let seed = config.seed;

    let ours = predict_cv_ours(&data, folds, seed, &config.search);
    let fold_features: Vec<Vec<String>> = ours
        .outcomes
        .iter()
        .map(|o| o.features.iter().map(ToString::to_string).collect())
        .collect();

    let gcc = data.gcc_factors();
    let svm = predict_cv_svm(
        &data,
        |l| l.stateml_feats.clone(),
        folds,
        seed,
        &SvmConfig::default(),
    );
    let gcc_tree = predict_cv_tree(&data, |l| l.gcc_feats.clone(), folds, seed, tree);
    let sml_tree = predict_cv_tree(&data, |l| l.stateml_feats.clone(), folds, seed, tree);
    let combined = predict_cv_tree(
        &data,
        |l| {
            let mut v = l.gcc_feats.clone();
            v.extend(l.stateml_feats.iter());
            v
        },
        folds,
        seed,
        tree,
    );

    // `{:?}` of an f64 is its shortest round-trip form: equal strings mean
    // equal bits.
    let pct_of = |f: &[usize]| format!("{:?}", pct(&data, &config, oracle_mean, f));
    assert_eq!(
        format!("{oracle_mean:?}"),
        "1.0129023552221643",
        "oracle mean"
    );
    let fig13 = [
        ("GCC", pct_of(&gcc)),
        ("stateML", pct_of(&svm)),
        ("Our", pct_of(&ours.factors)),
    ];
    assert_eq!(
        fig13,
        [
            ("GCC", "-277.7712462427645".to_owned()),
            ("stateML", "-26.940359281596642".to_owned()),
            ("Our", "-14.976849537625538".to_owned()),
        ],
        "Figure 13 summary"
    );
    let fig15 = [
        ("GCC Tree", pct_of(&gcc_tree)),
        ("stateML Tree", pct_of(&sml_tree)),
        ("GCC+stateML", pct_of(&combined)),
        ("Our", pct_of(&ours.factors)),
    ];
    assert_eq!(
        fig15,
        [
            ("GCC Tree", "-189.05195977539398".to_owned()),
            ("stateML Tree", "-7.6050884874375395".to_owned()),
            ("GCC+stateML", "-7.6050884874375395".to_owned()),
            ("Our", "-14.976849537625538".to_owned()),
        ],
        "Figure 15 summary"
    );
    assert_eq!(
        ours.factors,
        [0, 0, 3, 7, 0, 0, 3, 3, 0, 0, 0, 0, 4, 7, 0, 4, 4, 0, 0, 0],
        "our per-loop factors"
    );
    assert_eq!(
        fold_features,
        [
            vec!["max(/*, count(//*))"],
            vec![
                "count(filter(//*, is-type(eq))) + sum(filter(//*, is-type(plus)), count(//*))",
                "count(/*)",
                "count(filter(//*, is-type(symbol_ref)))",
            ],
        ],
        "each fold's features"
    );
}
