//! A checkpoint written by an earlier build must still resume, and the
//! resumed campaign must equal the uninterrupted one bit for bit. The
//! fixture is the checkpoint left behind by the first wave of the campaign
//! below (one wave of four executions, then the budget stops the session).
//!
//! Regenerate it only for an intended checkpoint-format change, with
//! `CHECKPOINT_COMPAT_BLESS=1 cargo test -p evoforecast-core --test checkpoint_compat`,
//! and bump `CHECKPOINT_VERSION` with it.

use evoforecast_core::ensemble::WAVE_SIZE;
use evoforecast_core::{EngineConfig, EnsembleCheckpoint, EnsembleConfig, RunBudget, Supervisor};
use evoforecast_tsdata::gen::waves::noisy_sine;
use evoforecast_tsdata::WindowSpec;
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wave1_checkpoint.json")
}

fn campaign() -> (Vec<f64>, EnsembleConfig) {
    let series = noisy_sine(250, 20.0, 1.0, 0.3, 25).into_values();
    let (lo, hi) = series
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    // A tight EMAX keeps coverage below the target, so the campaign needs
    // more than one wave.
    let engine = EngineConfig::for_series(&series, WindowSpec::new(3, 1).unwrap())
        .with_population(15)
        .with_generations(80)
        .with_seed(300)
        .with_emax((hi - lo) * 0.08);
    let cfg = EnsembleConfig::new(engine)
        .with_max_executions(8)
        .with_coverage_target(1.0);
    (series, cfg)
}

#[test]
fn checkpoint_from_an_earlier_build_resumes_bit_identically() {
    let (series, cfg) = campaign();
    if std::env::var_os("CHECKPOINT_COMPAT_BLESS").is_some() {
        std::fs::remove_file(fixture()).ok();
        let first_wave = Supervisor::new(cfg)
            .unwrap()
            .with_budget(RunBudget::default().with_max_new_executions(WAVE_SIZE));
        first_wave.run_resumable(&series, fixture()).unwrap();
        return;
    }

    let stored = EnsembleCheckpoint::load(fixture()).expect("fixture loads");
    assert_eq!(stored.executions_done, WAVE_SIZE);
    // Loading and re-saving reproduces the stored text exactly.
    let text = std::fs::read_to_string(fixture()).unwrap();
    assert_eq!(serde_json::to_string_pretty(&stored).unwrap(), text);

    let dir = std::env::temp_dir().join(format!("evoforecast_compat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.json");
    std::fs::copy(fixture(), &path).unwrap();

    let (reference, ref_report) = Supervisor::new(cfg.clone()).unwrap().run(&series).unwrap();
    let (resumed, report) = Supervisor::new(cfg)
        .unwrap()
        .run_resumable(&series, &path)
        .unwrap();
    assert!(
        report.executions > WAVE_SIZE,
        "the resume must run more waves"
    );
    assert_eq!(resumed.rules(), reference.rules());
    assert_eq!(report.executions, ref_report.executions);
    assert_eq!(report.outcomes, ref_report.outcomes);
    assert_eq!(
        report.training_coverage.to_bits(),
        ref_report.training_coverage.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}
