//! Experiment configuration and command-line parsing shared by all harness
//! binaries.

use std::path::PathBuf;

use dpc_core::ExecPolicy;

/// Configuration common to every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset size multiplier relative to the paper (1.0 = paper scale).
    pub scale: f64,
    /// Seed for every dataset generator.
    pub seed: u64,
    /// Repetitions per timing measurement (median is reported).
    pub repetitions: usize,
    /// Worker threads for the ρ/δ queries (1 = sequential, the
    /// paper-faithful default).
    pub threads: usize,
    /// Directory where result CSVs are written (`None` = don't persist).
    pub output_dir: Option<PathBuf>,
}

/// Default output directory of every experiment binary (`--out-dir`
/// overrides it, `--no-out` disables persistence).
pub const DEFAULT_OUTPUT_DIR: &str = "target/experiments";

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.02,
            seed: 42,
            repetitions: 3,
            threads: 1,
            output_dir: Some(PathBuf::from(DEFAULT_OUTPUT_DIR)),
        }
    }
}

impl ExperimentConfig {
    /// A very small configuration for tests and CI smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            scale: 0.002,
            seed: 42,
            repetitions: 1,
            threads: 1,
            output_dir: None,
        }
    }

    /// The execution policy the configured thread count maps to.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy::from_threads(self.threads)
    }

    /// Parses `--scale`, `--seed`, `--reps`, `--threads`, `--out-dir` (alias
    /// `--out`) and `--no-out` from an argument list (unrecognised arguments
    /// are returned for the caller to handle).
    ///
    /// Returns the parsed configuration together with the leftover
    /// arguments.
    pub fn from_args<I>(args: I) -> Result<(Self, Vec<String>), String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut config = ExperimentConfig::default();
        let mut rest = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = iter.next().ok_or("--scale needs a value")?;
                    config.scale = v
                        .parse()
                        .map_err(|_| format!("invalid --scale value {v:?}"))?;
                    if !(config.scale.is_finite() && config.scale > 0.0) {
                        return Err(format!(
                            "--scale must be a positive finite number \
                             (valid range: 0 < scale < inf), got {}",
                            config.scale
                        ));
                    }
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    config.seed = v
                        .parse()
                        .map_err(|_| format!("invalid --seed value {v:?}"))?;
                }
                "--reps" => {
                    let v = iter.next().ok_or("--reps needs a value")?;
                    config.repetitions = v
                        .parse()
                        .map_err(|_| format!("invalid --reps value {v:?}"))?;
                    if config.repetitions == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                }
                "--threads" => {
                    let v = iter.next().ok_or("--threads needs a value")?;
                    config.threads = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value {v:?}"))?;
                    if config.threads == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                }
                "--out-dir" | "--out" => {
                    let v = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    config.output_dir = Some(PathBuf::from(v));
                }
                "--no-out" => config.output_dir = None,
                other => rest.push(other.to_string()),
            }
        }
        Ok((config, rest))
    }

    /// Path for one result CSV, or `None` when persistence is disabled.
    pub fn csv_path(&self, name: &str) -> Option<PathBuf> {
        self.output_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.csv")))
    }

    /// Ensures the output directory exists before any experiment runs.
    ///
    /// Returns a clear, actionable error (instead of letting every table
    /// write fail later) when the directory cannot be created — e.g. a
    /// read-only working directory. A `None` output directory is fine: it
    /// means persistence is disabled.
    pub fn ensure_output_dir(&self) -> Result<(), String> {
        if let Some(dir) = &self.output_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                format!(
                    "cannot create output directory {}: {e}\n\
                     (pass --out-dir DIR to choose a writable directory, or \
                     --no-out to skip writing CSVs)",
                    dir.display()
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_sensible() {
        let c = ExperimentConfig::default();
        assert!(c.scale > 0.0 && c.scale < 1.0);
        assert!(c.repetitions >= 1);
        assert!(c.output_dir.is_some());
    }

    #[test]
    fn parses_all_flags() {
        let (c, rest) = ExperimentConfig::from_args(args(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--reps",
            "5",
            "--out",
            "/tmp/results",
            "extra",
        ]))
        .unwrap();
        assert_eq!(c.scale, 0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.repetitions, 5);
        assert_eq!(c.output_dir, Some(PathBuf::from("/tmp/results")));
        assert_eq!(rest, vec!["extra".to_string()]);
    }

    #[test]
    fn no_out_disables_persistence() {
        let (c, _) = ExperimentConfig::from_args(args(&["--no-out"])).unwrap();
        assert_eq!(c.output_dir, None);
        assert_eq!(c.csv_path("t"), None);
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(ExperimentConfig::from_args(args(&["--scale", "zero"])).is_err());
        for bad in ["-1", "nan", "inf"] {
            let err = ExperimentConfig::from_args(args(&["--scale", bad])).unwrap_err();
            assert!(
                err.contains("--scale") && err.contains("valid range"),
                "{err}"
            );
        }
        assert!(ExperimentConfig::from_args(args(&["--reps", "0"])).is_err());
        assert!(ExperimentConfig::from_args(args(&["--seed"])).is_err());
        assert!(ExperimentConfig::from_args(args(&["--threads", "0"])).is_err());
        assert!(ExperimentConfig::from_args(args(&["--threads", "x"])).is_err());
    }

    #[test]
    fn threads_flag_maps_to_an_exec_policy() {
        let (c, _) = ExperimentConfig::from_args(args(&[])).unwrap();
        assert_eq!(c.threads, 1);
        assert_eq!(c.exec_policy(), ExecPolicy::Sequential);
        let (c, _) = ExperimentConfig::from_args(args(&["--threads", "4"])).unwrap();
        assert_eq!(c.threads, 4);
        assert_eq!(c.exec_policy(), ExecPolicy::Threads(4));
    }

    #[test]
    fn csv_path_joins_name() {
        let c = ExperimentConfig::default();
        let p = c.csv_path("fig05_running_time").unwrap();
        assert!(p.ends_with("fig05_running_time.csv"));
    }

    #[test]
    fn default_output_dir_is_under_target() {
        let c = ExperimentConfig::default();
        assert_eq!(c.output_dir, Some(PathBuf::from(DEFAULT_OUTPUT_DIR)));
        assert_eq!(DEFAULT_OUTPUT_DIR, "target/experiments");
    }

    #[test]
    fn out_dir_flag_and_out_alias_agree() {
        let (a, _) = ExperimentConfig::from_args(args(&["--out-dir", "/tmp/dpc-out"])).unwrap();
        let (b, _) = ExperimentConfig::from_args(args(&["--out", "/tmp/dpc-out"])).unwrap();
        assert_eq!(a.output_dir, Some(PathBuf::from("/tmp/dpc-out")));
        assert_eq!(a.output_dir, b.output_dir);
        assert!(ExperimentConfig::from_args(args(&["--out-dir"])).is_err());
    }

    #[test]
    fn ensure_output_dir_reports_a_clear_error() {
        // A directory path whose parent is a regular file cannot be created
        // on any platform.
        let blocker = std::env::temp_dir().join(format!("dpc-config-test-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let c = ExperimentConfig {
            output_dir: Some(blocker.join("nested/out")),
            ..ExperimentConfig::smoke()
        };
        let err = c.ensure_output_dir().unwrap_err();
        std::fs::remove_file(&blocker).unwrap();
        assert!(err.contains("--no-out"), "error must be actionable: {err}");
        assert!(
            err.contains("dpc-config-test"),
            "error names the dir: {err}"
        );
        // Disabled persistence never touches the filesystem.
        assert!(ExperimentConfig::smoke().ensure_output_dir().is_ok());
    }
}
