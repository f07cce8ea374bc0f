//! `lingua-e2e` — the repo's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! lingua-e2e --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result
//! lingua-e2e [--seed N] [--seconds S] [--out FILE]           every workload, both runs, one document
//! lingua-e2e --sets A --runs B [--out FILE]                  the noise protocol
//! lingua-e2e --smoke                                         the full run, a few hundred ms per phase
//! ```

mod adapters;
mod catalog;
mod drive;
mod inputs;
mod layers;
mod quiet;
mod report;
mod run;
mod spans;
mod stack;
mod stats;
mod workload;

use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, DEFAULT_SEED, RUN_SECONDS};

/// Phase length of `--smoke`, in seconds.
const SMOKE_SECONDS: f64 = 0.1;

/// Command line, checked where it enters.
pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub detail: Option<PathBuf>,
    pub out: Option<PathBuf>,
    pub sets: usize,
    pub runs: usize,
    pub build_mode: String,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        detail: None,
        out: None,
        sets: 0,
        runs: 0,
        build_mode: std::env::var("LINGUA_E2E_BUILD_MODE").unwrap_or_else(|_| "unknown".into()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cli.seconds = SMOKE_SECONDS;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("`{flag} {value}`: not a whole number"));
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => {
                cli.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|seconds| (0.05..=60.0).contains(seconds))
                    .ok_or_else(|| format!("`--seconds {value}`: expected 0.05 to 60"))?;
            }
            "--trace" => cli.traced = number()? != 0,
            "--detail" => cli.detail = Some(PathBuf::from(value)),
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--sets" => cli.sets = number()?.clamp(1, 16) as usize,
            "--runs" => cli.runs = number()?.clamp(1, 64) as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Scratch space for journals, inside the checkout: run.sh names its build
/// directory in `LINGUA_E2E_WORK`. Removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn base() -> PathBuf {
        std::env::var_os("LINGUA_E2E_WORK")
            .map_or_else(|| PathBuf::from(".bench_build/work"), PathBuf::from)
    }

    pub fn create() -> std::io::Result<WorkDir> {
        let dir = WorkDir::base().join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("lingua-e2e: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.workload {
        Some(workload) => {
            let work = match WorkDir::create() {
                Ok(work) => work,
                Err(err) => {
                    eprintln!("lingua-e2e: cannot create the work directory: {err}");
                    return ExitCode::from(2);
                }
            };
            let args = RunArgs {
                work_base: WorkDir::base(),
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                traced: cli.traced,
                work_dir: work.0.clone(),
            };
            let outcome = run::run(&args);
            report::print_run(&cli, &outcome)
        }
        None if cli.sets > 0 || cli.runs > 0 => report::noise(&cli),
        None => report::full_run(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
