//! `campaign_mackey`: repeated `Supervisor::run_resumable` campaigns on the
//! paper's Mackey-Glass recipe, and their traced replay.

use crate::measure::{self, Interference};
use crate::report::Report;
use crate::trace::Tracer;
use crate::train::{self, Replay};
use evoforecast_core::bitset::MatchBitset;
use evoforecast_core::checkpoint::{EnsembleCheckpoint, CHECKPOINT_VERSION};
use evoforecast_core::dataset::ExampleSet;
use evoforecast_core::ensemble::WAVE_SIZE;
use evoforecast_core::rule::Rule;
use evoforecast_core::supervisor::{execution_seed, RunBudget, Supervisor};
use evoforecast_core::{EngineConfig, EnsembleConfig, RuleSetPredictor};
use evoforecast_tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast_tsdata::normalize::{MinMaxScaler, Scaler};
use evoforecast_tsdata::window::WindowSpec;
use std::path::Path;
use std::time::{Duration, Instant};

/// Normalized training samples.
const TRAIN: usize = 1_000;
/// Executions per campaign, run in waves of `WAVE_SIZE`.
const EXECUTIONS: usize = 8;
/// Generations per execution.
const GENERATIONS: usize = 6_000;
/// Campaigns per run for each second of `--seconds`.
const CAMPAIGNS_PER_SECOND: f64 = 3.0;
/// Campaigns per timed slice.
const SLICE: usize = 2;

/// The paper's Mackey-Glass record, normalized to [0, 1] on the training
/// block: (training block, held-out block).
fn mackey_data() -> (Vec<f64>, Vec<f64>) {
    let series = MackeyGlass::paper_setup().paper_series();
    let scaler = MinMaxScaler::fit(&series.values()[..TRAIN]).expect("the record has a range");
    let mut normalized = scaler.transform_slice(series.values());
    let valid = normalized.split_off(TRAIN);
    (normalized, valid)
}

/// D = 4 taps spaced 6, τ = 50, population 50, 6 000 generations, up to 8
/// executions, coverage target 0.98.
fn campaign_config(train: &[f64], base_seed: u64) -> EnsembleConfig {
    let spec = WindowSpec::with_spacing(4, 50, 6).expect("D = 4, τ = 50, Δ = 6 is a valid spec");
    let engine = EngineConfig::for_series(train, spec)
        .with_population(50)
        .with_generations(GENERATIONS)
        .with_seed(base_seed);
    EnsembleConfig::new(engine)
        .with_max_executions(EXECUTIONS)
        .with_coverage_target(0.98)
}

/// Base seed of campaign `k` of a run.
fn campaign_seed(seed: u64, k: usize) -> u64 {
    measure::mix(seed, 200 + k as u64)
}

fn held_out(
    report: &mut Report,
    k: usize,
    predictor: &RuleSetPredictor,
    cov: &mut Vec<f64>,
    rmse: &mut Vec<f64>,
) {
    let spec = WindowSpec::with_spacing(4, 50, 6).expect("valid spec");
    let (_, valid) = mackey_data();
    let (c, r, hit) = train::validate(predictor, &valid, spec);
    report.check(
        format!("campaign {k} predicts held-out windows"),
        if hit > 0 && r.is_finite() {
            Ok(())
        } else {
            Err(format!("{hit} windows predicted, rmse {r}"))
        },
    );
    cov.push(c);
    rmse.push(r);
}

/// Untraced `campaign_mackey`. Campaign 0 runs as two sessions (the first
/// stops after one wave, the second resumes from its checkpoint); campaign 1
/// runs the same seed uninterrupted and must match it byte for byte.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Report {
    let mut report = Report::default();
    let campaigns =
        ((seconds as f64 * CAMPAIGNS_PER_SECOND).ceil() as usize).div_ceil(SLICE) * SLICE;
    let mut setups = Vec::new();
    let mut op_us = Vec::new();
    let (mut cov, mut rmse) = (Vec::new(), Vec::new());
    let mut resumed: Option<Vec<Rule>> = None;
    let probe = Interference::start();
    for k in 0..campaigns {
        report.attempted += 1;
        let base = campaign_seed(seed, k.max(1) - 1);
        let ckpt = dir.join(format!("campaign-{k}.ckpt"));
        let t0 = Instant::now();
        let (train_block, _) = mackey_data();
        let supervisor = match Supervisor::new(campaign_config(&train_block, base)) {
            Ok(s) => s,
            Err(e) => {
                report.failed += 1;
                report.check(format!("campaign {k} set-up"), Err(e.to_string()));
                continue;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let outcome = if k == 0 {
            supervisor
                .clone()
                .with_budget(RunBudget::default().with_max_new_executions(WAVE_SIZE))
                .run_resumable(&train_block, &ckpt)
                .and_then(|_| supervisor.run_resumable(&train_block, &ckpt))
        } else {
            supervisor.run_resumable(&train_block, &ckpt)
        };
        op_us.push(measure::us(t1.elapsed()));
        let _ = std::fs::remove_file(&ckpt);
        let (predictor, rep) = match outcome {
            Ok(done) => done,
            Err(e) => {
                report.failed += 1;
                report.check(format!("campaign {k}"), Err(e.to_string()));
                continue;
            }
        };
        if rep.executions != EXECUTIONS || rep.target_reached || rep.degradation.is_some() {
            report.failed += 1;
            report.check(
                format!("campaign {k} ran all {EXECUTIONS} executions"),
                Err(format!(
                    "{} executions, target reached {}, degradation {:?}",
                    rep.executions, rep.target_reached, rep.degradation
                )),
            );
        }
        match k {
            0 => resumed = Some(predictor.rules().to_vec()),
            1 => {
                let outcome = match &resumed {
                    Some(r) => train::identical("resumed vs uninterrupted", r, predictor.rules()),
                    None => Err("the resumed campaign did not finish".to_string()),
                };
                report.check("resumed campaign equals the uninterrupted one", outcome);
            }
            _ => {}
        }
        held_out(&mut report, k, &predictor, &mut cov, &mut rmse);
    }
    let health = probe.finish();
    if op_us.is_empty() {
        return report;
    }
    let slices: Vec<Duration> = op_us
        .chunks(SLICE)
        .map(|c| Duration::from_secs_f64(c.iter().sum::<f64>() / 1e6))
        .collect();
    let rates = measure::slice_rates(&slices, SLICE as f64);
    let (pct, tail) = measure::tail(&op_us);
    report.notes.push(format!(
        "{campaigns} campaigns of {EXECUTIONS} executions x {GENERATIONS} generations; tail_us = {tail:.1} us, p{pct} of {} campaigns (printed only: not steady enough to bound)",
        op_us.len()
    ));
    train::fill_common(
        &mut report,
        &setups,
        &rates,
        &op_us,
        tail,
        &cov,
        &rmse,
        health,
    );
    report
}

/// Traced `campaign_mackey`: the supervisor's waves replayed through
/// `execution_seed`, the engine replay, `RuleSetPredictor` merging, the
/// coverage fold and checkpoint writes; each campaign is then run untraced
/// through `Supervisor::run_resumable` for the overhead baseline and the
/// byte-identity check.
pub fn run_traced(seed: u64, seconds: u64, dir: &Path) -> Report {
    let mut report = Report::default();
    let campaigns = ((seconds as f64 * CAMPAIGNS_PER_SECOND / 8.0).ceil() as usize).max(1);
    let origin = Instant::now();
    // Keep campaign, execution and wave-level spans for the file; the
    // per-generation layers count in the breakdown only.
    let mut t = Tracer::keeping(origin, 3);
    let mut counts = train::ReplayCounts::default();
    let mut plain_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut imbalance = Vec::new();
    let mut retries = 0u64;
    let mut ckpt_bytes = Vec::new();
    let probe = Interference::start();
    for k in 0..campaigns {
        report.attempted += 1;
        t.set_op(k as u64);
        let base = campaign_seed(seed, k);
        let ckpt = dir.join(format!("traced-{k}.ckpt"));
        let root = t.begin("campaign");
        let s = t.begin("tsdata.generate");
        let (train_block, _) = mackey_data();
        t.end(s);
        let config = campaign_config(&train_block, base);
        let data = config
            .engine
            .window
            .dataset(&train_block)
            .expect("spec fits");
        let n = data.len();
        let mut predictor = RuleSetPredictor::new(Vec::new());
        let mut covered = MatchBitset::new(n);
        let mut outcomes = Vec::new();
        for wave in 0..EXECUTIONS / WAVE_SIZE {
            let mut times = Vec::new();
            let mut wave_rules = Vec::new();
            for slot in wave * WAVE_SIZE..(wave + 1) * WAVE_SIZE {
                let ex = t.begin("supervisor.execution");
                let t_ex = Instant::now();
                let seed_slot = execution_seed(base, slot, 0);
                let cfg = config.engine.clone().with_seed(seed_slot);
                let mut replay = Replay::new(cfg, &train_block, &mut t);
                for _ in 0..GENERATIONS {
                    replay.step(&mut t);
                }
                wave_rules.push((slot, seed_slot, replay.rules()));
                counts.add(&replay.counts);
                times.push(t_ex.elapsed().as_secs_f64());
                t.end(ex);
            }
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            imbalance.push(times.iter().cloned().fold(0.0, f64::max) / mean);

            let s = t.begin("predict.merge");
            let folded = predictor.len();
            for (slot, seed_slot, rules) in wave_rules {
                let viable =
                    RuleSetPredictor::new(rules).filter_by_error(config.engine.fitness.emax);
                outcomes.push(evoforecast_core::ExecutionOutcome {
                    execution: slot,
                    seed: seed_slot,
                    attempts: 1,
                    rules: viable.len(),
                    status: evoforecast_core::OutcomeStatus::Completed,
                });
                predictor.merge(viable);
            }
            t.end(s);
            let s = t.begin("supervisor.cover_fold");
            for r in &predictor.rules()[folded..] {
                if covered.all_set() {
                    break;
                }
                covered.set_where_unset(|i| r.condition.matches(data.features(i)));
            }
            t.end(s);
            let s = t.begin("checkpoint.write");
            let written = EnsembleCheckpoint {
                version: CHECKPOINT_VERSION,
                config_fingerprint: config.fingerprint(),
                executions_done: (wave + 1) * WAVE_SIZE,
                outcomes: outcomes.clone(),
                rules: predictor.rules().to_vec(),
                folded_rules: predictor.len(),
                coverage_len: n,
                covered_words: covered.words().to_vec(),
            }
            .save(&ckpt);
            t.end(s);
            if let Err(e) = written {
                report.failed += 1;
                report.check(format!("campaign {k} checkpoint write"), Err(e.to_string()));
            }
            ckpt_bytes.push(std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0) as f64);
        }
        let s = t.begin("checkpoint.read");
        let read = EnsembleCheckpoint::load(&ckpt);
        t.end(s);
        t.end(root);
        traced_us.push(t.breakdown().total_us("campaign") - traced_us.iter().sum::<f64>());
        match read {
            Ok(cp) => report.check(
                format!("campaign {k}: checkpoint reads back its rules"),
                train::identical("checkpoint round trip", &cp.rules, predictor.rules()),
            ),
            Err(e) => report.check(format!("campaign {k} checkpoint read"), Err(e.to_string())),
        }
        let _ = std::fs::remove_file(&ckpt);

        // The replay runs executions one after another; so does this
        // baseline, which changes no rule (waves merge in slot order).
        let mut sequential = config;
        sequential.parallel_runs = false;
        let t_plain = Instant::now();
        let plain = Supervisor::new(sequential).and_then(|s| s.run_resumable(&train_block, &ckpt));
        plain_us.push(measure::us(t_plain.elapsed()));
        let _ = std::fs::remove_file(&ckpt);
        match plain {
            Ok((p, rep)) => {
                retries += rep
                    .outcomes
                    .iter()
                    .map(|o| u64::from(o.attempts - 1))
                    .sum::<u64>();
                report.check(
                    format!("campaign {k}: replay equals Supervisor::run_resumable"),
                    train::identical("replay vs supervisor", predictor.rules(), p.rules()),
                );
            }
            Err(e) => {
                report.failed += 1;
                report.check(format!("campaign {k} supervisor run"), Err(e.to_string()));
            }
        }
    }
    let health = probe.finish();
    let b = t.breakdown().clone();
    let n = campaigns as f64;
    train::fill_generation_layers(&mut report, &b, &counts);
    let execs = (campaigns * EXECUTIONS) as f64;
    for (metric, span) in [
        ("tsdata.generate_us", "tsdata.generate"),
        ("tsdata.window_us", "tsdata.window"),
        ("matchindex.build_us", "matchindex.build"),
        ("init.us", "init"),
        ("init.fit_us", "init.fit"),
    ] {
        // Per execution set-up (each execution builds its engine).
        report.layers.insert(metric, b.self_us(span) / execs);
    }
    report.layers.insert(
        "supervisor.execution_us",
        b.self_us("supervisor.execution") / execs,
    );
    report
        .layers
        .insert("supervisor.wave_imbalance", measure::median(&imbalance));
    report.layers.insert("supervisor.executions", execs / n);
    report
        .layers
        .insert("supervisor.retries", retries as f64 / n);
    report.layers.insert(
        "supervisor.cover_fold_us",
        b.self_us("supervisor.cover_fold") / n,
    );
    report
        .layers
        .insert("predict.merge_us", b.self_us("predict.merge") / n);
    report
        .layers
        .insert("checkpoint.write_us", b.self_us("checkpoint.write") / n);
    report
        .layers
        .insert("checkpoint.read_us", b.self_us("checkpoint.read") / n);
    report
        .layers
        .insert("checkpoint.bytes", measure::median(&ckpt_bytes));
    report
        .layers
        .insert("trace.attributed_pct", b.attributed_pct("campaign"));
    // The replay's own probes (match-set comparison, LU re-derivation) are
    // measurement work, not tracing overhead.
    let probe_per_campaign = b.total_us("trace.probe") / n;
    let traced = measure::median(&traced_us) - probe_per_campaign;
    let plain = measure::median(&plain_us);
    report.layers.insert("tail_us", measure::tail(&plain_us).1);
    report
        .layers
        .insert("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
    report.record_health(health);
    report.notes.push(format!(
        "per-generation layers are per generation, set-up layers per execution, supervisor layers per campaign; \
         traced campaign {traced:.0} us vs sequential supervisor {plain:.0} us"
    ));
    train::attribution_check(&mut report, &b, "campaign");
    train::write_trace(&mut report, dir, "campaign_mackey", seed, &t.into_spans());
    report
}
