//! Host steal time: the benchmark runs in a VM whose vCPUs the host can
//! take away for minutes at a time (one such episode tripled every
//! CPU-bound phase while the sizes were being fixed). The guest kernel
//! accounts it in `/proc/stat`, so a measured phase can wait for a quiet
//! host first and say how much was stolen while it ran. The waiting is
//! budgeted across all runs of a build directory, so a host that is never
//! quiet costs a bounded amount of time.

use std::path::Path;
use std::time::{Duration, Instant};

/// A window counts as quiet below this stolen share of all CPU time.
const QUIET_SHARE: f64 = 0.02;
const WINDOW: Duration = Duration::from_millis(200);
const QUIET_WINDOWS: usize = 3;
/// Seconds one run may spend waiting, and all runs of a build directory
/// together.
const RUN_BUDGET_S: f64 = 60.0;
const TOTAL_BUDGET_S: f64 = 480.0;

/// `(stolen, total)` jiffies since boot, summed over CPUs.
fn jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Stolen share of CPU time since `start`; 0 where the kernel does not say.
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    pub fn start() -> StealClock {
        StealClock(jiffies())
    }

    pub fn share(&self) -> f64 {
        match (self.0, jiffies()) {
            (Some((stolen0, total0)), Some((stolen1, total1))) if total1 > total0 => {
                (stolen1 - stolen0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Block until the host has been quiet for a few windows in a row, or the
/// budget — kept in a file beside the work directories, so that every run
/// of one build directory draws on the same one — is gone. Returns the
/// seconds waited beyond the windows it takes to look.
pub fn wait_for_quiet(work_base: &Path) -> f64 {
    let ledger = work_base.join("quiet-budget-spent");
    let spent: f64 = std::fs::read_to_string(&ledger)
        .ok()
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(0.0);
    let budget = RUN_BUDGET_S.min(TOTAL_BUDGET_S - spent);
    let start = Instant::now();
    let mut quiet = 0;
    while quiet < QUIET_WINDOWS && start.elapsed().as_secs_f64() < budget {
        let clock = StealClock::start();
        std::thread::sleep(WINDOW);
        quiet = if clock.share() < QUIET_SHARE { quiet + 1 } else { 0 };
    }
    let looking = WINDOW.as_secs_f64() * QUIET_WINDOWS as f64;
    let waited = (start.elapsed().as_secs_f64() - looking).max(0.0);
    if waited > 0.0 {
        let _ = std::fs::write(&ledger, format!("{}\n", spent + waited));
    }
    waited
}
