//! Byte-identity pin for JSON output: one instance of every serializable
//! type of the library crates, rendered compact and pretty, must match the
//! stored corpus exactly. Configuration fingerprints hash this text and
//! checkpoints and model artifacts are read back from it, so any drift in
//! field order, float text or escaping shows up here.
//!
//! After an intended format change, regenerate the corpus with
//! `JSON_CORPUS_BLESS=1 cargo test --test json_corpus` and review the diff.

use evoforecast::core::analysis::{CoverageMap, RuleSetStats};
use evoforecast::core::checkpoint::{ExecutionOutcome, OutcomeStatus, CHECKPOINT_VERSION};
use evoforecast::core::fitness::FitnessParams;
use evoforecast::core::init::InitStrategy;
use evoforecast::core::model::{ModelMetadata, TrainedModel};
use evoforecast::core::predict::{Combination, RuleSetPredictor};
use evoforecast::core::replacement::ReplacementStrategy;
use evoforecast::core::rule::{Condition, Gene, Rule};
use evoforecast::core::{EngineConfig, EnsembleCheckpoint, EnsembleConfig, MutationConfig};
use evoforecast::linalg::Matrix;
use evoforecast::metrics::{CoverageAccumulator, EvaluationReport, PairedErrors};
use evoforecast::neural::activation::Activation;
use evoforecast::neural::elman::ElmanConfig;
use evoforecast::neural::mlp::MlpConfig;
use evoforecast::neural::mran::MranConfig;
use evoforecast::neural::ran::RanConfig;
use evoforecast::neural::rbf::RbfUnit;
use evoforecast::neural::{Elman, Mlp, Mran, Ran, RbfNetwork};
use evoforecast::serve::protocol::{
    ArtifactKind, CombinationMode, EngineKind, ErrorKind, ErrorResponse, ForecastRequest,
    ForecastResponse, ModelInfo, ReloadRequest, ReloadResponse, WindowDetail,
};
use evoforecast::serve::StatsSnapshot;
use evoforecast::tsdata::normalize::{IdentityScaler, MinMaxScaler, ZScoreScaler};
use evoforecast::tsdata::{TimeSeries, WindowSpec};
use serde::Serialize;

/// Floats whose text is easy to get wrong: signed zero, integral values,
/// the shortest round-trip boundary cases, subnormals, both extremes.
const AWKWARD: [f64; 12] = [
    -0.0,
    3.0,
    0.1,
    1.0 / 3.0,
    1e15,
    1e16,
    123_456_789.012_345_68,
    5e-324,
    2.225_073_858_507_201e-308,
    -1e300,
    f64::MAX,
    -7.25e-7,
];

fn rule(lo: f64, hi: f64) -> Rule {
    Rule {
        condition: Condition::new(vec![Gene::bounded(lo, hi), Gene::Wildcard]),
        coefficients: vec![AWKWARD[2], AWKWARD[0]],
        intercept: AWKWARD[6],
        prediction: AWKWARD[3],
        error: AWKWARD[11],
        matched: 17,
    }
}

fn entry<T: Serialize>(corpus: &mut String, name: &str, value: &T) {
    corpus.push_str(&format!("== {name}\n"));
    corpus.push_str(&serde_json::to_string(value).unwrap());
    corpus.push('\n');
    corpus.push_str(&serde_json::to_string_pretty(value).unwrap());
    corpus.push('\n');
}

fn corpus() -> String {
    let mut c = String::new();
    let spec = WindowSpec::with_spacing(2, 3, 2).unwrap();
    let rules = vec![rule(-0.0, 0.1), rule(1e-300, 1e300)];
    let predictor = RuleSetPredictor::new(rules.clone());
    let series: Vec<f64> = (0..64)
        .map(|i| (f64::from(i) * 0.37).sin() * 12.5)
        .collect();

    // linalg, tsdata, metrics
    entry(&mut c, "Matrix", &Matrix::from_vec(3, 4, AWKWARD.to_vec()));
    entry(&mut c, "WindowSpec", &spec);
    entry(
        &mut c,
        "TimeSeries",
        &TimeSeries::new("tide \"gauge\"\n", AWKWARD.to_vec()).unwrap(),
    );
    entry(
        &mut c,
        "MinMaxScaler",
        &MinMaxScaler::fit(&AWKWARD[..4]).unwrap(),
    );
    entry(&mut c, "ZScoreScaler", &ZScoreScaler::fit(&series).unwrap());
    entry(&mut c, "IdentityScaler", &IdentityScaler);
    let mut cov = CoverageAccumulator::new();
    cov.record(Some(1.0));
    cov.record(None);
    cov.record(Some(2.0));
    entry(&mut c, "CoverageAccumulator", &cov);
    let mut pairs = PairedErrors::new();
    for (i, &x) in AWKWARD[..6].iter().enumerate() {
        pairs.record(x, (i % 3 != 0).then_some(x * 0.5 + 0.25));
    }
    entry(
        &mut c,
        "EvaluationReport",
        &EvaluationReport::from_paired("rules", 4, &pairs),
    );

    // core
    entry(&mut c, "Gene", &Gene::bounded(-0.5, 2.0));
    entry(&mut c, "Gene::Wildcard", &Gene::Wildcard);
    entry(&mut c, "Condition", &rules[0].condition);
    entry(&mut c, "Rule", &rules[1]);
    entry(&mut c, "RuleSetPredictor", &predictor);
    entry(&mut c, "Combination", &Combination::InverseErrorWeighted);
    entry(&mut c, "FitnessParams", &FitnessParams::new(AWKWARD[2]));
    entry(&mut c, "InitStrategy", &InitStrategy::Random);
    entry(
        &mut c,
        "ReplacementStrategy",
        &ReplacementStrategy::ReplaceWorst,
    );
    entry(&mut c, "MutationConfig", &MutationConfig::default());
    let engine = EngineConfig::for_series(&series, spec);
    entry(&mut c, "EngineConfig", &engine);
    let ensemble = EnsembleConfig::new(engine);
    entry(&mut c, "EnsembleConfig", &ensemble);
    c.push_str(&format!(
        "== EnsembleConfig::fingerprint\n{}\n",
        ensemble.fingerprint()
    ));
    entry(&mut c, "OutcomeStatus", &OutcomeStatus::Failed);
    let outcome = ExecutionOutcome {
        execution: 3,
        seed: u64::MAX,
        attempts: 2,
        rules: 9,
        status: OutcomeStatus::Completed,
    };
    entry(&mut c, "ExecutionOutcome", &outcome);
    entry(
        &mut c,
        "EnsembleCheckpoint",
        &EnsembleCheckpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 0xDEAD_BEEF_F00D,
            executions_done: 4,
            outcomes: vec![outcome],
            rules: rules.clone(),
            folded_rules: 1,
            coverage_len: 130,
            covered_words: vec![1, u64::MAX, 1 << 63],
        },
    );
    let metadata = ModelMetadata {
        series_name: "venice \u{e9}\u{1}".to_string(),
        train_points: 45_000,
        seed: 2007,
        executions: 8,
        training_coverage: AWKWARD[3],
    };
    entry(&mut c, "ModelMetadata", &metadata);
    entry(
        &mut c,
        "TrainedModel",
        &TrainedModel::new(spec, predictor.clone(), metadata),
    );
    entry(&mut c, "RuleSetStats", &RuleSetStats::from_rules(&rules));
    let data = WindowSpec::new(2, 1).unwrap().dataset(&series).unwrap();
    entry(
        &mut c,
        "CoverageMap",
        &CoverageMap::build(&predictor, &data, 5),
    );

    // neural
    entry(&mut c, "Activation", &Activation::Tanh);
    entry(&mut c, "MlpConfig", &MlpConfig::default());
    entry(&mut c, "Mlp", &Mlp::new(2, MlpConfig::default()).unwrap());
    entry(&mut c, "RanConfig", &RanConfig::default());
    entry(&mut c, "Ran", &Ran::new(2, RanConfig::default()).unwrap());
    entry(&mut c, "MranConfig", &MranConfig::default());
    entry(
        &mut c,
        "Mran",
        &Mran::new(2, MranConfig::default()).unwrap(),
    );
    entry(&mut c, "ElmanConfig", &ElmanConfig::default());
    entry(
        &mut c,
        "Elman",
        &Elman::new(2, ElmanConfig::default()).unwrap(),
    );
    let xs = Matrix::from_fn(6, 2, |r, k| (r * 2 + k) as f64 * 0.5);
    let ys: Vec<f64> = (0..6).map(|r| r as f64 * 1.25 - 1.0).collect();
    let rbf = RbfNetwork::from_centers(&xs, &ys, vec![vec![0.0, 0.5], vec![3.0, 3.5]]).unwrap();
    entry(&mut c, "RbfNetwork", &rbf);
    let unit: &RbfUnit = &rbf.units()[0];
    entry(&mut c, "RbfUnit", unit);

    // serve
    entry(
        &mut c,
        "ForecastRequest",
        &ForecastRequest {
            model: "default".to_string(),
            windows: vec![AWKWARD[..3].to_vec(), vec![f64::NAN, AWKWARD[9]]],
            horizon: 3,
            combination: CombinationMode::InverseErrorWeighted,
            detail: true,
            engine: EngineKind::Scan,
        },
    );
    entry(
        &mut c,
        "ForecastResponse",
        &ForecastResponse {
            model: "default".to_string(),
            model_version: 7,
            engine: EngineKind::Compiled,
            predictions: vec![Some(AWKWARD[4]), None, Some(AWKWARD[0])],
            trajectories: Some(vec![AWKWARD[5..8].to_vec(), vec![]]),
            details: Some(vec![
                Some(WindowDetail {
                    firing_rules: 3,
                    expected_error: AWKWARD[8],
                }),
                None,
            ]),
            abstained: 1,
        },
    );
    entry(&mut c, "CombinationMode", &CombinationMode::Mean);
    entry(&mut c, "EngineKind", &EngineKind::Compiled);
    entry(
        &mut c,
        "ReloadRequest",
        &ReloadRequest {
            model: "b".to_string(),
            path: "C:\\models\\b.json".to_string(),
            kind: ArtifactKind::Checkpoint,
        },
    );
    entry(
        &mut c,
        "ReloadResponse",
        &ReloadResponse {
            model: "b".to_string(),
            version: 2,
            rules: 40,
            fingerprint: u64::MAX - 1,
        },
    );
    entry(
        &mut c,
        "ModelInfo",
        &ModelInfo {
            name: "a".to_string(),
            version: 1,
            rules: 12,
            window: 24,
            horizon: 4,
            spacing: 1,
            fingerprint: 42,
        },
    );
    entry(
        &mut c,
        "ErrorResponse",
        &ErrorResponse::new(ErrorKind::NonFiniteInput, "window 3 holds NaN\t"),
    );
    entry(&mut c, "ErrorKind", &ErrorKind::DeadlineExceeded);
    entry(
        &mut c,
        "StatsSnapshot",
        &StatsSnapshot {
            requests: 10,
            ok: 7,
            errors: 2,
            shed: 1,
            reloads: 3,
            windows: 640,
            abstentions: 5,
            latency_p50_us: 512,
            latency_p99_us: 4096,
        },
    );
    c
}

#[test]
fn json_output_matches_the_stored_corpus() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/json_corpus.txt");
    let rendered = corpus();
    if std::env::var_os("JSON_CORPUS_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap();
    for (got, want) in rendered.lines().zip(stored.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(rendered, stored);
}
