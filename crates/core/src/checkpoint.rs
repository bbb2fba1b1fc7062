//! Versioned ensemble checkpoints for long multi-execution campaigns.
//!
//! The paper's solution is the union of rule sets from many independent
//! executions (§3.4), so a production run is a long campaign of waves — and
//! partial progress must survive a killed process. After every wave the
//! supervisor serializes the merged rule set, the coverage-bitset union, the
//! per-execution seed/outcome ledger and a fingerprint of the
//! [`crate::config::EnsembleConfig`] to a checkpoint file;
//! [`crate::supervisor::Supervisor::run_resumable`] restarts from the last
//! completed wave and produces a predictor bit-identical to an uninterrupted
//! run.
//!
//! The format is JSON with an explicit `version` field checked before the
//! full parse, so a future layout change degrades into a clear
//! [`CheckpointError::VersionMismatch`] instead of a confusing shape error.
//! Writes go through a temp file + rename so a crash mid-write never leaves
//! a truncated checkpoint behind.

use crate::bitset::MatchBitset;
use crate::rule::Rule;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Current checkpoint layout version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file exists but does not parse as a checkpoint.
    Corrupt(String),
    /// The file was written by a different checkpoint layout.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes ([`CHECKPOINT_VERSION`]).
        expected: u32,
    },
    /// The checkpoint was produced under a different ensemble configuration.
    FingerprintMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the configuration attempting to resume.
        expected: u64,
    },
    /// The checkpoint's coverage universe does not match the training data.
    UniverseMismatch {
        /// Number of training windows recorded in the file.
        found: usize,
        /// Number of training windows in the resuming run.
        expected: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O failure: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not the supported version {expected}"
            ),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint was written under a different ensemble configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::UniverseMismatch { found, expected } => write!(
                f,
                "checkpoint covers {found} training windows but this run has {expected} \
                 — was it taken on different training data?"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// How one execution slot ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeStatus {
    /// The slot produced a rule set (possibly after retries).
    Completed,
    /// The slot exhausted its retries; no rules were merged from it.
    Failed,
}

/// Ledger entry for one execution slot: which seed finally ran (or last
/// failed), how many attempts it took, and what it contributed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionOutcome {
    /// Zero-based execution slot.
    pub execution: usize,
    /// Seed of the final attempt (the successful one for completed slots).
    pub seed: u64,
    /// Attempts made (1 = succeeded first try).
    pub attempts: u32,
    /// Viable rules the slot contributed to the merged predictor.
    pub rules: usize,
    /// Terminal status.
    pub status: OutcomeStatus,
}

/// Snapshot of a supervisor run at a wave boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// FNV-1a fingerprint of the canonical [`crate::config::EnsembleConfig`]
    /// JSON — resume refuses to mix checkpoints across configurations.
    pub config_fingerprint: u64,
    /// Execution slots fully processed (a wave-size multiple unless the cap
    /// cut the last wave short).
    pub executions_done: usize,
    /// Per-slot seed/outcome ledger, in slot order.
    pub outcomes: Vec<ExecutionOutcome>,
    /// Merged viable rules so far, in slot order.
    pub rules: Vec<Rule>,
    /// Number of merged rules already folded into the coverage union.
    pub folded_rules: usize,
    /// Number of training windows (the coverage-bitset universe).
    pub coverage_len: usize,
    /// Raw words of the coverage-bitset union.
    pub covered_words: Vec<u64>,
}

impl EnsembleCheckpoint {
    /// Rebuild the coverage union bitset recorded in this checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the stored word count disagrees
    /// with `coverage_len`.
    pub fn covered_bits(&self) -> Result<MatchBitset, CheckpointError> {
        let mut bits = MatchBitset::new(self.coverage_len);
        if bits.words().len() != self.covered_words.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} coverage words stored but {} windows need {}",
                self.covered_words.len(),
                self.coverage_len,
                bits.words().len()
            )));
        }
        bits.words_mut().copy_from_slice(&self.covered_words);
        Ok(bits)
    }

    /// Check this checkpoint against the resuming run's configuration
    /// fingerprint and training-window count.
    ///
    /// # Errors
    /// [`CheckpointError::FingerprintMismatch`] / `UniverseMismatch`.
    pub fn validate(&self, fingerprint: u64, n_windows: usize) -> Result<(), CheckpointError> {
        if self.config_fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.config_fingerprint,
                expected: fingerprint,
            });
        }
        if self.coverage_len != n_windows {
            return Err(CheckpointError::UniverseMismatch {
                found: self.coverage_len,
                expected: n_windows,
            });
        }
        Ok(())
    }

    /// Atomically write the checkpoint: serialize to `<path>.tmp`, then
    /// rename over `path`, so an interrupted write never corrupts the last
    /// good checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failures, `Corrupt` if the
    /// checkpoint cannot be serialized.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CheckpointError::Corrupt(format!("serialization failed: {e:?}")))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load and version-check a checkpoint file. The `version` field is read
    /// first (a skip-scan that syntax-checks the whole file but builds
    /// nothing else), so layout drift reports as a version mismatch, not a
    /// shape error; then the file is decoded once.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the file cannot be read, `Corrupt` when
    /// it does not parse, `VersionMismatch` for foreign layouts.
    pub fn load(path: impl AsRef<Path>) -> Result<EnsembleCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        let version = serde_json::from_str_field::<serde_json::Value>(&text, "version")
            .map_err(|e| CheckpointError::Corrupt(format!("not a JSON object: {e}")))?;
        match version {
            Some(serde_json::Value::U64(v)) if v == u64::from(CHECKPOINT_VERSION) => {}
            Some(serde_json::Value::U64(v)) => {
                return Err(CheckpointError::VersionMismatch {
                    found: v as u32,
                    expected: CHECKPOINT_VERSION,
                })
            }
            _ => {
                return Err(CheckpointError::Corrupt(
                    "missing or non-integer version field".into(),
                ))
            }
        }
        serde_json::from_str(&text)
            .map_err(|e| CheckpointError::Corrupt(format!("shape mismatch: {e:?}")))
    }
}

/// FNV-1a hash of a canonical JSON rendering — the configuration fingerprint
/// stored in checkpoints. Stable across runs and platforms (the vendored
/// serializer emits deterministic field order and float text).
pub fn fingerprint_json(json: &str) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;
    let mut h = OFFSET;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene};

    fn sample() -> EnsembleCheckpoint {
        let rule = Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 1.0), Gene::Wildcard]),
            coefficients: vec![0.5, 0.0],
            intercept: 1.0,
            prediction: 1.25,
            error: 0.125,
            matched: 4,
        };
        let mut bits = MatchBitset::new(130);
        bits.set(0);
        bits.set(64);
        bits.set(129);
        EnsembleCheckpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 0xDEAD_BEEF,
            executions_done: 4,
            outcomes: vec![ExecutionOutcome {
                execution: 0,
                seed: 100,
                attempts: 2,
                rules: 1,
                status: OutcomeStatus::Completed,
            }],
            rules: vec![rule],
            folded_rules: 1,
            coverage_len: 130,
            covered_words: bits.words().to_vec(),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("evoforecast_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let path = temp_path("roundtrip.json");
        let cp = sample();
        cp.save(&path).unwrap();
        let back = EnsembleCheckpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        // Bit-exact floats through the text format.
        assert_eq!(back.rules[0].error.to_bits(), cp.rules[0].error.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_bits_reconstructs_the_union() {
        let cp = sample();
        let bits = cp.covered_bits().unwrap();
        assert_eq!(bits.to_indices(), vec![0, 64, 129]);

        let mut bad = cp;
        bad.covered_words.pop();
        assert!(matches!(
            bad.covered_bits(),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn validate_rejects_foreign_runs() {
        let cp = sample();
        assert!(cp.validate(0xDEAD_BEEF, 130).is_ok());
        assert!(matches!(
            cp.validate(1, 130),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            cp.validate(0xDEAD_BEEF, 99),
            Err(CheckpointError::UniverseMismatch { .. })
        ));
    }

    #[test]
    fn load_rejects_garbage_and_foreign_versions() {
        let garbage = temp_path("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&garbage),
            Err(CheckpointError::Corrupt(_))
        ));

        let wrong_version = temp_path("wrong_version.json");
        let mut cp = sample();
        cp.version = CHECKPOINT_VERSION + 7;
        cp.save(&wrong_version).unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&wrong_version),
            Err(CheckpointError::VersionMismatch { found, expected })
                if found == CHECKPOINT_VERSION + 7 && expected == CHECKPOINT_VERSION
        ));

        // A foreign version wins over a body of the wrong shape, wherever
        // the version key sits ...
        let foreign_shape = temp_path("foreign_shape.json");
        for text in [
            r#"{"version": 99, "rules": "not a list"}"#,
            r#"{"rules": 3, "version": 99, "extra": [1, {"a": null}]}"#,
            r#"{"version": 99, "version": 1}"#,
        ] {
            std::fs::write(&foreign_shape, text).unwrap();
            assert!(
                matches!(
                    EnsembleCheckpoint::load(&foreign_shape),
                    Err(CheckpointError::VersionMismatch { found: 99, .. })
                ),
                "{text}"
            );
        }
        // ... but not over broken JSON, a missing or non-integer version, a
        // non-object, or nesting past the decoder's depth cap.
        for text in [
            r#"{"version": 99, "rules": [1,}"#,
            r#"{"version": 99} trailing"#,
            r#"{"rules": []}"#,
            r#"{"version": "1"}"#,
            r#"{"version": 1.0}"#,
            r#"{"version": -0}"#,
            "[1]",
            &format!(r#"{{"version": 99, "rules": {}"#, "[".repeat(100_000)),
            &"[".repeat(100_000),
            &format!("{}{}", "[".repeat(129), "]".repeat(129)),
        ] {
            std::fs::write(&foreign_shape, text).unwrap();
            assert!(
                matches!(
                    EnsembleCheckpoint::load(&foreign_shape),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{}",
                &text[..text.len().min(40)]
            );
        }
        // The current version with a wrong shape is a shape error.
        std::fs::write(
            &foreign_shape,
            format!(r#"{{"version": {CHECKPOINT_VERSION}, "rules": 3}}"#),
        )
        .unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&foreign_shape),
            Err(CheckpointError::Corrupt(_))
        ));

        assert!(matches!(
            EnsembleCheckpoint::load("/nonexistent/definitely/missing.json"),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_file(&garbage).ok();
        std::fs::remove_file(&wrong_version).ok();
        std::fs::remove_file(&foreign_shape).ok();
    }

    /// A finite float from raw bits: any sign, subnormals, both extremes.
    fn finite(bits: u64) -> f64 {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & !(1 << 62))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        #[test]
        fn checkpoint_round_trips_bit_for_bit(
            genes in proptest::collection::vec(proptest::option::of((0u64..u64::MAX, 0u64..u64::MAX)), 1..5),
            floats in proptest::collection::vec(0u64..u64::MAX, 4..9),
            words in proptest::collection::vec(0u64..u64::MAX, 0..4),
            counts in (0usize..1 << 20, 0u64..u64::MAX, 0u32..u32::MAX, 0usize..3),
        ) {
            let (n, seed, attempts, status) = counts;
            let rule = Rule {
                condition: Condition::new(
                    genes
                        .iter()
                        .map(|g| match g {
                            Some((a, b)) => {
                                let (a, b) = (finite(*a), finite(*b));
                                Gene::Bounded { lo: a.min(b), hi: a.max(b) }
                            }
                            None => Gene::Wildcard,
                        })
                        .collect(),
                ),
                coefficients: floats[3..].iter().map(|&b| finite(b)).collect(),
                intercept: finite(floats[0]),
                prediction: finite(floats[1]),
                error: finite(floats[2]),
                matched: n,
            };
            let cp = EnsembleCheckpoint {
                version: CHECKPOINT_VERSION,
                config_fingerprint: seed,
                executions_done: n,
                outcomes: (0..status)
                    .map(|i| ExecutionOutcome {
                        execution: i,
                        seed: seed ^ i as u64,
                        attempts,
                        rules: n,
                        status: [OutcomeStatus::Completed, OutcomeStatus::Failed][i % 2],
                    })
                    .collect(),
                rules: vec![rule.clone(), rule],
                folded_rules: status,
                coverage_len: words.len() * 64,
                covered_words: words,
            };
            for text in [
                serde_json::to_string(&cp).unwrap(),
                serde_json::to_string_pretty(&cp).unwrap(),
            ] {
                let back: EnsembleCheckpoint = serde_json::from_str(&text).unwrap();
                proptest::prop_assert_eq!(&back, &cp);
                proptest::prop_assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&cp).unwrap());
            }
        }
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let path = temp_path("atomic.json");
        sample().save(&path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = fingerprint_json(r#"{"seed":1}"#);
        let b = fingerprint_json(r#"{"seed":1}"#);
        let c = fingerprint_json(r#"{"seed":2}"#);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn error_display_names_the_problem() {
        let io: CheckpointError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(CheckpointError::Corrupt("bad".into())
            .to_string()
            .contains("bad"));
        let v = CheckpointError::VersionMismatch {
            found: 3,
            expected: 1,
        };
        assert!(v.to_string().contains('3') && v.to_string().contains('1'));
        assert!(CheckpointError::FingerprintMismatch {
            found: 0,
            expected: 1
        }
        .to_string()
        .contains("configuration"));
        assert!(CheckpointError::UniverseMismatch {
            found: 5,
            expected: 9
        }
        .to_string()
        .contains("training data"));
    }
}
