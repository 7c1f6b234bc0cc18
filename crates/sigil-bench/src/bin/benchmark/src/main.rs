//! One-command benchmark for sigil-rs: five workloads, end-to-end
//! metrics with tracing off, and a traced per-layer ladder.
//!
//! ```text
//! M=crates/sigil-bench/src/bin/benchmark/Cargo.toml
//! cargo run --release --manifest-path $M [-- --seed N] [--traced]
//! cargo run --release --manifest-path $M -- --workload suite_serial --seconds 15
//! cargo run --release --manifest-path $M -- compare A.json B.json
//! ```
//!
//! Each workload runs in its own child process, one at a time, under a
//! wall-clock deadline. The command prints every metric with its unit,
//! writes a record under `records/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod batch;
mod checks;
mod compare;
mod harness;
mod json;
mod ladder;
mod metrics;
mod serve;
mod speed;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use batch::Batch;
use checks::{Checks, Expected};
use json::Json;
use metrics::{PER_LAYER, WORKLOAD_LAYERS};
use serve::{DaemonMode, Serve};
use speed::RefClock;
use workload::{Budget, Kind, Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced]
                 [--out RECORD.json]
       benchmark compare A.json[,A2.json...] B.json[,B2.json...]
       benchmark bless

workloads: suite_serial suite_sharded2 dedup_vips_full serve_two_lanes vm_guest
           (default: all five, one child process each)";

/// Times each workload is set up; the median is reported.
const SETUPS: usize = 5;

/// Wall-clock limit of one workload child: a run must end within 180 s,
/// so a hung child is killed in time to report it.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Notes every record carries about what its numbers mean.
const NOTES: &[&str] = &[
    "setup_s, events_per_s and sigil_added_ns_per_event are in reference \
     seconds: each timed operation's wall time divided by the host's \
     slowdown around it, measured by a calibration kernel run between \
     operations against its time on an idle core of the reference host. \
     details.host_slowdown is that slowdown; details.wall_events_per_s and \
     details.setup_wall_s are the wall-clock readings.",
    "Driven into a plain counting observer, direct-tracing generation folds \
     away and costs about 0, so Fig. 4's native baseline measures nothing. \
     trace.generate_s (and the set-up's event counts) drive every generator \
     into a floor observer reached through a call the optimizer may not \
     inline, so the generator really runs and pays a real observer's call.",
    "The VM is the native baseline: vm.interp_s is guest interpretation into \
     the floor observer, with no profiler attached.",
    "The ladder floor replays each recorded input into the same observer, so \
     the optimizer cannot elide it either.",
    "core.classify_s is not timed by a rung of its own: it is the remainder \
     of the Sigil default rung's replay over Callgrind's once shadow.walk_s \
     is taken out. ladder.residual_frac therefore checks that the replayed \
     rungs add up to the arms timed by direct generation; it does not check \
     how Sigil's cost over Callgrind splits between classification and the \
     shadow walk.",
    "peak_rss_mib of a batch workload is VmHWM over one extra, checked pass \
     run after the first pass's reference outputs are dropped and the peak \
     is reset; details.whole_run_peak_rss_mib keeps the peak with them held.",
];

#[derive(Debug)]
struct Options {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        traced: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                options.workloads.push(kind);
            }
            "--seed" => options.seed = parse(flag, value()?)?,
            "--seconds" => {
                options.seconds = parse(flag, value()?)?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                options.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => options.traced = true,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if options.workloads.is_empty() {
        options.workloads = Kind::ALL.to_vec();
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("daemon") => return serve::daemon_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("bless") => bless(),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// `benchmark child --workload NAME ...`: runs one workload in this
/// process and prints its result as one JSON line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let [kind] = options.workloads[..] else {
        return Err("a child runs exactly one workload".to_owned());
    };
    let result = run_workload(
        kind,
        options.seed,
        options.seconds,
        options.traced,
        Scale::FULL,
        DaemonMode::Child,
    )?;
    println!("{}", result.compact());
    Ok(ExitCode::SUCCESS)
}

fn set_up(
    kind: Kind,
    seed: u64,
    scale: Scale,
    mode: DaemonMode,
) -> Result<Box<dyn Workload>, String> {
    let expected = if scale == Scale::FULL {
        Some(Expected::load(&harness::bench_dir().join("expected.json"))?)
    } else {
        None
    };
    Ok(match kind {
        Kind::ServeTwoLanes => Box::new(Serve::setup(scale, mode, expected)?),
        _ => Box::new(Batch::setup(kind, seed, scale, expected)),
    })
}

/// Runs one workload: set-up (several times), a cold warm-up pass,
/// closed-loop timed passes, then the untimed output checks. A traced
/// run also times passes with spans on and climbs the ladder.
fn run_workload(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    mode: DaemonMode,
) -> Result<Json, String> {
    let name = kind.name();
    let mut checks = Checks::new(name);
    let mut clock = RefClock::new();
    let mut setup_spans = Vec::new();
    let mut instance = None;
    while setup_spans.len() < SETUPS {
        // The previous instance (and any daemon it runs) goes first.
        drop(instance.take());
        clock.calibrate();
        let (set, span) = clock.time(|| set_up(kind, seed, scale, mode));
        instance = Some(set?);
        setup_spans.push(span);
    }
    clock.calibrate();
    let setup_s: Vec<f64> = setup_spans.iter().map(|&span| clock.ref_s(span)).collect();
    let setup_wall_s: Vec<f64> = setup_spans.iter().map(|span| span.wall_s()).collect();
    let mut workload = instance.expect("set up at least once");
    eprintln!(
        "{name}: set up in {:.4} s (median, {:.4} s by wall time)",
        stats::median(&setup_s),
        stats::median(&setup_wall_s)
    );
    let first_pass_s = workload.first_pass(&mut checks);
    eprintln!("{name}: warm-up pass {first_pass_s:.3} s");

    let mut result = Json::obj()
        .with("workload", name)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("traced", traced);
    let min = kind.min_samples();
    if traced {
        let untraced = workload.timed(
            Budget {
                seconds: seconds / 2.0,
                min,
            },
            &mut clock,
            &mut checks,
        );
        sigil_obs::set_enabled(true);
        sigil_obs::span::clear();
        let traced_phase = workload.timed(
            Budget {
                seconds: seconds / 4.0,
                min: 1,
            },
            &mut clock,
            &mut checks,
        );
        sigil_obs::set_enabled(false);
        let spans = ladder::span_table(&sigil_obs::span::snapshot(), traced_phase.wall_s.len());
        sigil_obs::span::clear();
        eprintln!("{name}: climbing the ladder");
        let layers = ladder::layers(
            &workload.ladder(),
            &untraced,
            &traced_phase,
            &spans,
            &mut clock,
        );
        workload.verify(&mut checks);
        workload.peak_rss_mib(&mut checks);
        let listed = |list: &[metrics::Metric]| {
            let mut json = Json::obj();
            for metric in list {
                let value = layers.metrics.get(metric.name).copied().unwrap_or(0.0);
                json.set(metric.name, metrics::entry(metric.name, value, &[value]));
            }
            json
        };
        let per_layer = listed(PER_LAYER);
        result.set("workload_layers", listed(WORKLOAD_LAYERS));
        let mut span_json = Json::obj();
        for (span, (count, total, own)) in &spans {
            span_json.set(
                span,
                Json::obj()
                    .with("count", *count)
                    .with("total_s", *total)
                    .with("self_s", *own),
            );
        }
        result.set("per_layer", per_layer);
        result.set(
            "samples",
            Json::obj()
                .with("setups", setup_s.len())
                .with("untraced", untraced.wall_s.len())
                .with("traced", traced_phase.wall_s.len()),
        );
        result.set("spans_per_pass", span_json);
        result.set("ladder", layers.ladder);
        let mut details = traced_phase.details;
        details.set("host_slowdown", stats::median(&untraced.slowdown));
        result.set("details", details);
    } else {
        let timed = workload.timed(Budget { seconds, min }, &mut clock, &mut checks);
        eprintln!(
            "{name}: {} timed samples, host slowdown {:.3} (median)",
            timed.wall_s.len(),
            stats::median(&timed.slowdown)
        );
        workload.verify(&mut checks);
        let (rss, rss_details) = workload.peak_rss_mib(&mut checks);
        result.set("metrics", metrics::end_to_end(&setup_s, &timed, rss));
        result.set(
            "samples",
            Json::obj()
                .with("setups", setup_s.len())
                .with("timed", timed.wall_s.len()),
        );
        // Latency of one profile (or session): the median, and p90 where
        // at least ten operations lie beyond it.
        let ops = &timed.op_ms;
        let mut details = timed.details;
        for (key, value) in rss_details.entries() {
            details.set(key, value.clone());
        }
        details.set("first_pass_s", first_pass_s);
        details.set("setup_wall_s", stats::median(&setup_wall_s));
        details.set("wall_events_per_s", stats::median(&timed.wall_events_per_s));
        details.set("host_slowdown", stats::median(&timed.slowdown));
        details.set("operations_timed", ops.len());
        details.set("op_p50_ms", stats::median(ops));
        if ops.len() >= 100 {
            details.set("op_p90_ms", stats::percentile(ops, 0.9));
        }
        result.set("details", details);
    }
    drop(workload);
    result.set("attempted", checks.attempted);
    result.set("failed", checks.failed());
    let failures: Vec<Json> = checks
        .failures
        .iter()
        .take(50)
        .map(|f| f.to_json())
        .collect();
    result.set("failures", failures);
    Ok(result)
}

/// Runs each requested workload in its own child process, prints every
/// metric, writes the record, and ends with the one-line JSON result.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (revision, dirty) = harness::revision();
    let mut workloads = Json::obj();
    let mut complete = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut summary = Json::obj();
    for &kind in &options.workloads {
        let mut command = Command::new(&exe);
        command.args(["child", "--workload", kind.name()]);
        command.args(["--seed", &options.seed.to_string()]);
        command.args(["--seconds", &options.seconds.to_string()]);
        command.args(["--trace", if options.traced { "1" } else { "0" }]);
        let run = harness::run_with_deadline(&mut command, CHILD_DEADLINE)
            .map_err(|e| format!("cannot run the {} child: {e}", kind.name()))?;
        let parsed = run
            .stdout
            .lines()
            .last()
            .and_then(|line| Json::parse(line).ok())
            .filter(|_| run.status.is_some_and(|s| s.success()));
        let result = match parsed {
            Some(result) => result,
            None => {
                complete = false;
                let why = if run.timed_out {
                    format!("timed out after {CHILD_DEADLINE:?}")
                } else {
                    format!("exited with {:?}", run.status)
                };
                eprintln!("{}: FAILED: {why}", kind.name());
                Json::obj()
                    .with("workload", kind.name())
                    .with("attempted", 1u64)
                    .with("failed", 1u64)
                    .with("error", why)
                    .with("stderr_tail", run.stderr_tail)
            }
        };
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(1);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
        let key = if options.traced {
            "per_layer"
        } else {
            "metrics"
        };
        print_metrics(kind.name(), &result, key);
        if options.traced {
            print_metrics(kind.name(), &result, "workload_layers");
        }
        print_failures(kind.name(), &result);
        for (metric, entry) in result.get(key).map_or(&[][..], Json::entries) {
            let name = if options.workloads.len() == 1 {
                metric.clone()
            } else {
                format!("{}/{metric}", kind.name())
            };
            let value = entry.get("value").cloned().unwrap_or(Json::Null);
            let unit = entry.get("unit").cloned().unwrap_or(Json::Null);
            summary.set(&name, Json::obj().with("value", value).with("unit", unit));
        }
        workloads.set(kind.name(), result);
    }

    let record = Json::obj()
        .with("benchmark", "sigil-rs one-command benchmark")
        .with(
            "argv",
            std::env::args().map(Json::from).collect::<Vec<Json>>(),
        )
        .with("revision", revision)
        .with("dirty", dirty)
        .with("nproc", harness::nproc())
        .with("date", harness::utc_now())
        .with("seed", options.seed)
        .with("seconds", options.seconds)
        .with("traced", options.traced)
        .with(
            "notes",
            NOTES.iter().map(|&n| Json::from(n)).collect::<Vec<_>>(),
        )
        .with("workloads", workloads);
    let path = options.out.clone().unwrap_or_else(|| {
        let stamp = harness::utc_now().replace([':', '-'], "");
        harness::bench_dir()
            .join("records")
            .join(format!("run-{stamp}-{}.json", std::process::id()))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("record: {}", path.display());

    let line = Json::obj()
        .with("correct", complete && failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", summary);
    println!("{}", line.compact());
    Ok(if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_metrics(workload: &str, result: &Json, key: &str) {
    println!("== {workload}: {key} ==");
    for (name, entry) in result.get(key).map_or(&[][..], Json::entries) {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        let samples = entry.get("samples").map_or(0, |s| s.as_array().len());
        let better = metrics::find(name).map_or("", |metric| metric.better);
        println!(
            "{workload:16} {name:30} {value:>16.6} {unit:<14} ({better} is better, n={samples})"
        );
    }
}

fn print_failures(workload: &str, result: &Json) {
    let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{workload:16} {:30} {:>16.6} {:<14} ({failed} of {attempted} operations)",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac"
    );
    for failure in result.get("failures").map_or(&[][..], Json::as_array) {
        println!("{workload:16} FAILED {}", failure.compact());
    }
}

/// `benchmark bless`: recomputes `expected.json` from the current code.
fn bless() -> Result<ExitCode, String> {
    let mut digests = Vec::new();
    for kind in Kind::ALL {
        eprintln!("{}: computing digests", kind.name());
        let inputs = match kind {
            Kind::ServeTwoLanes => {
                Serve::setup(Scale::FULL, DaemonMode::InProcess, None)?.digests()
            }
            _ => Batch::setup(kind, DEFAULT_SEED, Scale::FULL, None).digests(),
        };
        digests.push((kind.name(), inputs));
    }
    let path = harness::bench_dir().join("expected.json");
    let text = Expected::to_json(&digests, DEFAULT_SEED).pretty();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    #[test]
    fn every_workload_passes_once_at_smoke_scale() {
        for kind in Kind::ALL {
            let result = run_workload(
                kind,
                DEFAULT_SEED,
                0.001,
                false,
                Scale::SMOKE,
                DaemonMode::InProcess,
            )
            .expect("workload runs");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{}",
                result.pretty()
            );
            let metrics = result.get("metrics").expect("metrics");
            for metric in END_TO_END {
                let value = metrics
                    .get(metric.name)
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                assert!(value > 0.0, "{}: {} = {value}", kind.name(), metric.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_in_order() {
        let path = harness::bench_dir().join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<[String; 3]> {
            json.get(key)
                .map_or(&[][..], Json::as_array)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    [field("name"), field("unit"), field("better")]
                })
                .collect()
        };
        let ours = |list: &[metrics::Metric]| -> Vec<[String; 3]> {
            list.iter()
                .map(|m| [m.name, m.unit, m.better].map(str::to_owned))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .map_or(&[][..], Json::as_array)
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);
    }

    #[test]
    fn options_reject_bad_input() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let parsed = parse_options(&args("--workload vm_guest --seed 7 --trace 1")).expect("ok");
        assert_eq!(parsed.workloads, vec![Kind::VmGuest]);
        assert_eq!(parsed.seed, 7);
        assert!(parsed.traced);
        for bad in [
            "--workload nope",
            "--seed",
            "--trace 2",
            "--seconds 0",
            "--bogus",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
