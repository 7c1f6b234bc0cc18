//! Process plumbing: running a workload child under a wall-clock
//! deadline, peak RSS, and the provenance every record carries.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Lines of a child's stderr kept for the record.
const STDERR_TAIL_LINES: usize = 40;

/// The benchmark's package directory, holding `expected.json` and
/// `records/`.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A per-run directory under `run/`, relative to the working directory
/// when it lies below it: Unix socket paths must stay short.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = bench_dir().join("run").join(name);
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// One `kB` field of `/proc/self/status`, in KiB (0 where `/proc` is
/// unavailable).
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kib| kib.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// `VmHWM` of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM")
}

pub fn peak_rss_mib() -> f64 {
    peak_rss_kib() as f64 / 1024.0
}

/// `VmRSS` of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS") as f64 / 1024.0
}

/// Lowers `VmHWM` to the current RSS, so that a later reading is the
/// peak of what ran since. False where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// How a child run ended.
#[derive(Debug)]
pub struct ChildRun {
    pub status: Option<ExitStatus>,
    pub timed_out: bool,
    pub stdout: String,
    pub stderr_tail: String,
}

/// Runs `command` to completion or until `deadline`, whichever comes
/// first; a child still running at the deadline is killed and reaped.
/// Its stderr is passed through line by line and the tail kept.
pub fn run_with_deadline(command: &mut Command, deadline: Duration) -> io::Result<ChildRun> {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let out_reader = thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let err_reader = thread::spawn(move || {
        let mut tail = VecDeque::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = writeln!(io::stderr(), "{line}");
            if tail.len() == STDERR_TAIL_LINES {
                tail.pop_front();
            }
            tail.push_back(line);
        }
        Vec::from(tail).join("\n")
    });
    let start = Instant::now();
    let (status, timed_out) = loop {
        if let Some(status) = child.try_wait()? {
            break (Some(status), false);
        }
        if start.elapsed() >= deadline {
            let _ = child.kill();
            break (child.wait().ok(), true);
        }
        thread::sleep(Duration::from_millis(20));
    };
    Ok(ChildRun {
        status,
        timed_out,
        stdout: out_reader.join().unwrap_or_default(),
        stderr_tail: err_reader.join().unwrap_or_default(),
    })
}

/// The checkout's git revision and whether tracked files differ from it;
/// `("unknown", None)` outside a git checkout. Git never looks above the
/// working directory for a repository.
pub fn revision() -> (String, Option<bool>) {
    let git = |args: &[&str]| -> Option<String> {
        let cwd = std::env::current_dir().ok()?;
        let out = Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let status = ["--no-optional-locks", "status", "--porcelain", "-uno"];
            (rev, git(&status).map(|s| !s.is_empty()))
        }
        None => ("unknown".to_owned(), None),
    }
}

pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_past_its_deadline_is_killed_and_reaped() {
        let start = Instant::now();
        let run = run_with_deadline(
            Command::new("sh").args(["-c", "echo partial; echo oops >&2; exec sleep 30"]),
            Duration::from_millis(300),
        )
        .expect("sh runs");
        assert!(run.timed_out);
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(!run.status.expect("reaped").success());
        assert_eq!(run.stdout, "partial\n");
        assert_eq!(run.stderr_tail, "oops");
    }

    #[test]
    fn utc_dates_are_civil() {
        assert!(utc_now().starts_with("20"));
        assert_eq!(utc_now().len(), "2026-01-01T00:00:00Z".len());
    }
}
