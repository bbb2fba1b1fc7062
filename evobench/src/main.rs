//! evobench: the evoforecast benchmark.
//!
//! ```text
//! evobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train_venice`, `campaign_mackey`, `serve_single`,
//! `serve_batch`. The seed alone fixes every input; `--seconds` fixes the
//! amount of work (each workload converts it to a fixed operation count,
//! never to a time limit). The last line of standard output is the JSON
//! result. See `README.md` beside this crate.

mod campaign;
mod measure;
mod report;
mod serve;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The workloads, by their final names.
const WORKLOADS: &[&str] = &[
    "train_venice",
    "campaign_mackey",
    "serve_single",
    "serve_batch",
];

/// Parsed command line of one run.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs leave artifacts (model files, checkpoints, traces): under
/// `target/`, never over a committed file.
fn artifact_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from("target")
        .join("evobench")
        .join(format!("{workload}-seed{seed}-pid{}", std::process::id()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evobench: {e}");
            eprintln!(
                "usage: evobench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let dir = artifact_dir(&args.workload, args.seed);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("evobench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let report = match (args.workload.as_str(), args.trace) {
        ("train_venice", false) => train::run(args.seed, args.seconds),
        ("train_venice", true) => train::run_traced(args.seed, args.seconds, &dir),
        ("campaign_mackey", false) => campaign::run(args.seed, args.seconds, &dir),
        ("campaign_mackey", true) => campaign::run_traced(args.seed, args.seconds, &dir),
        ("serve_single", traced) => {
            serve::run(serve::Mode::Single, args.seed, args.seconds, traced, &dir)
        }
        ("serve_batch", traced) => {
            serve::run(serve::Mode::Batch, args.seed, args.seconds, traced, &dir)
        }
        _ => unreachable!("workload validated by parse"),
    };
    // Model files and checkpoints are per-run scratch; trace CSVs stay.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().starts_with("trace-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(&dir);
    report.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload serve_batch --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_batch");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_flags() {
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload train_venice --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload train_venice")).is_err());
    }

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn names(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let section = &text[start..];
        let end = section.find(']').expect("list end");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&text, "end_to_end"), listed(report::END_TO_END));
        assert_eq!(names(&text, "per_layer"), listed(report::PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names(&text, "workloads"), workloads);
    }
}
