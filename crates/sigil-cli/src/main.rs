//! `sigil` — command-line driver.
//!
//! ```text
//! sigil profile <benchmark> [--size S] [--reuse] [--lines N] [--events] [--limit N] [--json]
//! sigil partition <benchmark> [--size S]        # accelerator candidates (Tables II/III)
//! sigil reuse <benchmark> [--size S]            # reuse breakdown + top functions
//! sigil critpath <benchmark> [--size S]         # critical path & parallelism limit
//! sigil critpath --from-events <file>           # streaming summary off an event file
//! sigil phases <benchmark> [--bucket-ops N]     # phase-sliced communication profile
//! sigil phases --from-events <file> [--json]    # same, streamed off an event file
//! sigil events dump <benchmark> -o <file>       # record the event file (.evb = binary)
//! sigil events pack <in.txt> -o <out.evb>       # text -> chunk-indexed binary
//! sigil events unpack <in.evb> [-o <out.txt>]   # binary -> text, one chunk at a time
//! sigil events stat <in.evb|in.sgtr> [--verify] # trailer-index stats (no record decode)
//! sigil schedule <benchmark> [--cores N]        # map dependency chains onto cores
//! sigil calltree <benchmark> [--size S]         # callgrind-style context tree
//! sigil dot <benchmark> [--size S]              # control data-flow graph (Graphviz)
//! sigil run <file.svm> [--reuse] [--lines N]    # assemble + profile a guest program
//! sigil trace <benchmark> -o <file.sgtr>        # record a platform-independent trace
//! sigil replay <file.sgtr> [--reuse] [...]      # profile a recorded trace, chunk by chunk
//! sigil sweep <all|b1,b2,..> [--jobs N] [--json] # profile many workloads, optionally in parallel
//! sigil scaling <all|b1,b2,..> [--json] [-o F]  # communication-vs-input-size curves (a·N^b fits)
//! sigil diff [random] [--seeds N] [--seed-base N] [--limit N] [--shards N] [--threads N]
//!                                               # differential oracle conformance on random programs
//! sigil diff golden [--golden-dir D] [--shards N] [--connect A]
//!                                               # check the golden corpus against oracle + production
//! sigil diff bless [--golden-dir D]             # regenerate the golden corpus (also: --bless)
//! sigil diff serve [--seeds N] [--shards N]     # online == batch conformance over a real socket
//! sigil serve [--listen <addr|path>] [--credits N] [--idle-timeout-ms N]
//!                                               # concurrent trace-ingestion daemon
//! sigil client <benchmark|file.evb|shutdown> --connect <addr> [--check]
//!                                               # replay a workload or event file into a server
//! sigil list                                    # available benchmarks
//! ```
//!
//! Every command additionally accepts the observability flags
//! `--log-level <off|warn|info|debug>`, `--trace-out <file>` (Chrome
//! trace-event JSON of the run's phase spans), `--metrics-out <file>`
//! (metrics snapshot JSON), and `--metrics-stream <file>` with
//! `--metrics-interval-ms <n>` (live JSONL delta snapshots appended by a
//! background thread while the command runs); any output flag switches
//! `sigil-obs` collection on for the process. `-h`/`--help` and
//! `-V`/`--version` short-circuit before any command runs.

use std::process::ExitCode;

use sigil_analysis::critical_path::CriticalPath;
use sigil_analysis::dot::to_dot;
use sigil_analysis::partition::{
    rank_functions_prepared, trim_calltree_prepared, PartitionConfig, PreparedCdfg,
};
use sigil_analysis::reuse_analysis;
use sigil_analysis::schedule::schedule;
use sigil_analysis::streaming::{CriticalPathFold, PhaseFold};
use sigil_analysis::Cdfg;
use sigil_core::events_bin::{
    BinError, BinReader, BinTotals, BinWriter, ChunkRecord, ChunkStream, RecordKind,
    DEFAULT_CHUNK_RECORDS,
};
use sigil_core::{
    report, EventFile, EventRecord, Profile, SigilConfig, SigilProfiler, TraceRecord,
};
use sigil_obs::log::Level;
use sigil_obs::{obs_debug, obs_info};
use sigil_trace::observer::RecordingObserver;
use sigil_trace::{Engine, ExecutionObserver, SymbolTable};
use sigil_workloads::{Benchmark, InputSize};

fn usage() -> &'static str {
    "usage: sigil <profile|partition|reuse|critpath|phases|schedule|calltree|dot|run|trace|replay|sweep|scaling|diff|events|serve|client|list> [target] [options]\n\
     events:  sigil events <dump|pack|unpack|stat> <target> [-o <file>] [--chunk-records <n>] [--verify]\n\
     phases:  sigil phases <benchmark|--from-events <file>> [--bucket-ops <n>] [--json]\n\
     scaling: sigil scaling <all|b1,b2,..> [--json] [-o <file>]   fit bytes ~ a*N^b per function\n\
     serve:   sigil serve [--listen <addr|path>] [--credits <n>] [--idle-timeout-ms <n>]\n\
     client:  sigil client <benchmark|file.evb|shutdown> --connect <addr|path> [--check]\n\
     options: --size <simsmall|simmedium|simlarge> (alias: --scale) --reuse --lines <bytes> --events\n\
              --limit <chunks> --cores <n> --jobs <n> --shards <n> -o <file> --json\n\
              --seeds <n> --seed-base <n> --threads <n> --golden-dir <dir> --bless\n\
              --from-events <file> --chunk-records <n> --verify\n\
              --listen <addr|path> --connect <addr|path> --credits <n> --idle-timeout-ms <n> --check\n\
              --bucket-ops <n> (alias: --bucket-us) phase bucket width in retired ops\n\
              --log-level <off|warn|info|debug> --trace-out <file> --metrics-out <file>\n\
              --metrics-stream <file> --metrics-interval-ms <n>\n\
              -h | --help    print this help\n\
              -V | --version print the version"
}

#[derive(Debug, Clone)]
struct Options {
    /// Benchmark name or file path, depending on the command.
    target: String,
    size: InputSize,
    reuse: bool,
    lines: Option<u32>,
    events: bool,
    limit: Option<usize>,
    cores: usize,
    jobs: usize,
    /// Shadow-memory shard count (parallel intra-workload replay).
    /// `None` keeps the serial profiler; `sigil diff` reads `None` as
    /// "sweep the full shard axis".
    shards: Option<usize>,
    output: Option<String>,
    json: bool,
    /// Log verbosity for the `obs_*` macros (stderr).
    log_level: Level,
    /// Write a Chrome trace-event JSON file of the run's spans here.
    trace_out: Option<String>,
    /// Write a metrics snapshot JSON file here.
    metrics_out: Option<String>,
    /// Append live JSONL metric delta snapshots to this file while the
    /// command runs.
    metrics_stream: Option<String>,
    /// Interval between streamed snapshots, in milliseconds.
    metrics_interval_ms: u64,
    /// Phase bucket width in retired ops (`sigil phases`, or any
    /// profiling command to add `phases` to its JSON output).
    bucket_ops: Option<u64>,
    /// Random-program seed count for `sigil diff`.
    seeds: u64,
    /// First seed for `sigil diff`.
    seed_base: u64,
    /// Golden-corpus directory for `sigil diff golden|bless`.
    golden_dir: String,
    /// Regenerate the golden corpus instead of checking it.
    bless: bool,
    /// Run analyses off an event file instead of profiling a benchmark.
    from_events: Option<String>,
    /// Records per chunk when writing binary event files.
    chunk_records: Option<usize>,
    /// Fully scan binary event files and cross-check the trailer index.
    verify: bool,
    /// Listen address for `sigil serve` (a path containing `/` means a
    /// Unix-domain socket).
    listen: String,
    /// Server address for `sigil client` / `sigil diff golden|serve`.
    connect: Option<String>,
    /// Per-session credit window for `sigil serve`.
    credits: u32,
    /// Idle-session timeout for `sigil serve`, in milliseconds.
    idle_timeout_ms: u64,
    /// `sigil client --check`: also profile locally and require the
    /// server's result to be byte-identical.
    check: bool,
    /// Guest threads for `sigil diff` random-program generation.
    threads: u32,
}

impl Options {
    fn bench(&self) -> Result<Benchmark, String> {
        self.target.parse().map_err(|e| format!("{e}"))
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let target = args
        .first()
        .ok_or("missing benchmark or file name")?
        .clone();
    let mut opts = Options {
        target,
        size: InputSize::SimSmall,
        reuse: false,
        lines: None,
        events: false,
        limit: None,
        cores: 4,
        jobs: 1,
        shards: None,
        output: None,
        json: false,
        log_level: Level::Info,
        trace_out: None,
        metrics_out: None,
        metrics_stream: None,
        metrics_interval_ms: 200,
        bucket_ops: None,
        seeds: 500,
        seed_base: 0,
        golden_dir: "tests/golden".to_owned(),
        bless: false,
        from_events: None,
        chunk_records: None,
        verify: false,
        listen: "127.0.0.1:7077".to_owned(),
        connect: None,
        credits: 8,
        idle_timeout_ms: 30_000,
        check: false,
        threads: 1,
    };
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" | "--scale" => {
                let value = it.next().ok_or("--size needs a value")?;
                opts.size = match value.as_str() {
                    "simsmall" => InputSize::SimSmall,
                    "simmedium" => InputSize::SimMedium,
                    "simlarge" => InputSize::SimLarge,
                    other => return Err(format!("unknown size `{other}`")),
                };
            }
            "--reuse" => opts.reuse = true,
            "--events" => opts.events = true,
            "--json" => opts.json = true,
            "--lines" => {
                let value = it.next().ok_or("--lines needs a value")?;
                opts.lines = Some(value.parse().map_err(|_| "bad --lines value")?);
            }
            "--limit" => {
                let value = it.next().ok_or("--limit needs a value")?;
                opts.limit = Some(value.parse().map_err(|_| "bad --limit value")?);
            }
            "--cores" => {
                let value = it.next().ok_or("--cores needs a value")?;
                opts.cores = value.parse().map_err(|_| "bad --cores value")?;
                if opts.cores == 0 {
                    return Err("--cores must be at least 1".to_owned());
                }
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = value.parse().map_err(|_| "bad --jobs value")?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--shards" => {
                let value = it.next().ok_or("--shards needs a value")?;
                let shards: usize = value.parse().map_err(|_| "bad --shards value")?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                opts.shards = Some(shards);
            }
            "-o" | "--output" => {
                let value = it.next().ok_or("-o needs a file name")?;
                opts.output = Some(value.clone());
            }
            "--log-level" => {
                let value = it.next().ok_or("--log-level needs a value")?;
                opts.log_level = value
                    .parse()
                    .map_err(|_| format!("unknown log level `{value}` (off|warn|info|debug)"))?;
            }
            "--trace-out" => {
                let value = it.next().ok_or("--trace-out needs a file name")?;
                opts.trace_out = Some(value.clone());
            }
            "--metrics-out" => {
                let value = it.next().ok_or("--metrics-out needs a file name")?;
                opts.metrics_out = Some(value.clone());
            }
            "--metrics-stream" => {
                let value = it.next().ok_or("--metrics-stream needs a file name")?;
                opts.metrics_stream = Some(value.clone());
            }
            "--metrics-interval-ms" => {
                let value = it.next().ok_or("--metrics-interval-ms needs a value")?;
                opts.metrics_interval_ms = value
                    .parse()
                    .map_err(|_| "bad --metrics-interval-ms value")?;
                if opts.metrics_interval_ms == 0 {
                    return Err("--metrics-interval-ms must be at least 1".to_owned());
                }
            }
            // `--bucket-us` is accepted as an alias: on the platform-
            // independent event clock, a "microsecond" is a retired op.
            "--bucket-ops" | "--bucket-us" => {
                let value = it.next().ok_or("--bucket-ops needs a value")?;
                let n: u64 = value.parse().map_err(|_| "bad --bucket-ops value")?;
                if n == 0 {
                    return Err("--bucket-ops must be at least 1".to_owned());
                }
                opts.bucket_ops = Some(n);
            }
            "--seeds" => {
                let value = it.next().ok_or("--seeds needs a value")?;
                opts.seeds = value.parse().map_err(|_| "bad --seeds value")?;
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".to_owned());
                }
            }
            "--seed-base" => {
                let value = it.next().ok_or("--seed-base needs a value")?;
                opts.seed_base = value.parse().map_err(|_| "bad --seed-base value")?;
            }
            "--threads" => {
                let value = it.next().ok_or("--threads needs a value")?;
                opts.threads = value.parse().map_err(|_| "bad --threads value")?;
                if opts.threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
            }
            "--golden-dir" => {
                let value = it.next().ok_or("--golden-dir needs a directory")?;
                opts.golden_dir = value.clone();
            }
            "--bless" => opts.bless = true,
            "--from-events" => {
                let value = it.next().ok_or("--from-events needs a file name")?;
                opts.from_events = Some(value.clone());
            }
            "--chunk-records" => {
                let value = it.next().ok_or("--chunk-records needs a value")?;
                let n: usize = value.parse().map_err(|_| "bad --chunk-records value")?;
                if n == 0 {
                    return Err("--chunk-records must be at least 1".to_owned());
                }
                opts.chunk_records = Some(n);
            }
            "--verify" => opts.verify = true,
            "--listen" => {
                let value = it
                    .next()
                    .ok_or("--listen needs an address or socket path")?;
                opts.listen = value.clone();
            }
            "--connect" => {
                let value = it
                    .next()
                    .ok_or("--connect needs an address or socket path")?;
                opts.connect = Some(value.clone());
            }
            "--credits" => {
                let value = it.next().ok_or("--credits needs a value")?;
                opts.credits = value.parse().map_err(|_| "bad --credits value")?;
                if opts.credits == 0 {
                    return Err("--credits must be at least 1".to_owned());
                }
            }
            "--idle-timeout-ms" => {
                let value = it.next().ok_or("--idle-timeout-ms needs a value")?;
                opts.idle_timeout_ms = value.parse().map_err(|_| "bad --idle-timeout-ms value")?;
                if opts.idle_timeout_ms == 0 {
                    return Err("--idle-timeout-ms must be at least 1".to_owned());
                }
            }
            "--check" => opts.check = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    sigil_config(&opts).validate()?;
    Ok(opts)
}

fn sigil_config(opts: &Options) -> SigilConfig {
    let mut config = SigilConfig::default();
    if opts.reuse {
        config = config.with_reuse_mode();
    }
    if let Some(lines) = opts.lines {
        config = config.with_line_mode(lines);
    }
    if opts.events {
        config = config.with_events();
    }
    if let Some(limit) = opts.limit {
        config = config.with_shadow_limit(limit);
    }
    if let Some(shards) = opts.shards {
        config = config.with_shards(shards);
    }
    if let Some(bucket_ops) = opts.bucket_ops {
        config = config.with_phases(bucket_ops);
    }
    config
}

fn collect(opts: &Options) -> Result<Profile, String> {
    let bench = opts.bench()?;
    let _profile_span = sigil_obs::span_with(|| format!("profile:{}", opts.target));
    obs_debug!("profiling {} at {}", opts.target, opts.size);
    let mut engine = Engine::new(SigilProfiler::new(sigil_config(opts)));
    {
        let _trace_span = sigil_obs::span("trace");
        bench.run(opts.size, &mut engine);
    }
    let (profiler, symbols) = engine.finish_with_symbols();
    Ok(profiler.into_profile(symbols))
}

/// Writes the Chrome trace and/or metrics snapshot after a successful
/// command, when the corresponding output flags were given.
fn write_observability(opts: &Options) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        sigil_obs::write_chrome_trace(path)
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
        obs_info!(
            "wrote chrome trace ({} spans) to {path}",
            sigil_obs::span::count()
        );
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, sigil_obs::metrics::snapshot_json())
            .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
        obs_info!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_profile(opts: &Options) -> Result<(), String> {
    let profile = collect(opts)?;
    if opts.json {
        let json = serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!("# {} ({})", opts.target, opts.size);
        print!("{}", report::full_report(&profile));
    }
    Ok(())
}

fn cmd_partition(opts: &Options) -> Result<(), String> {
    let profile = collect(opts)?;
    let config = PartitionConfig::default();
    // Trim and rank share one CDFG + inclusive-table build.
    let prepared = PreparedCdfg::from_profile(&profile);
    let trimmed = trim_calltree_prepared(&prepared, &profile, &config);
    println!(
        "# {} ({}): trimmed calltree, coverage {:.1}%",
        opts.target,
        opts.size,
        trimmed.coverage * 100.0
    );
    println!(
        "{:>10} {:>12} {:>9} {:>12} {:>12}  candidate",
        "S(be)", "t_sw(cyc)", "cover%", "in(uniq B)", "out(uniq B)"
    );
    for leaf in &trimmed.leaves {
        println!(
            "{:>10.3} {:>12} {:>8.1}% {:>12} {:>12}  {}",
            leaf.breakeven,
            leaf.inclusive_cycles,
            leaf.coverage * 100.0,
            leaf.comm_in_unique,
            leaf.comm_out_unique,
            leaf.name
        );
    }
    println!("\n# all functions ranked by breakeven (best and worst 5)");
    let ranked = rank_functions_prepared(&prepared, &profile, &config);
    for row in ranked.iter().take(5) {
        println!("  best  {:<32} {:.3}", row.name, row.breakeven);
    }
    for row in ranked.iter().rev().take(5).rev() {
        println!("  worst {:<32} {:.3}", row.name, row.breakeven);
    }
    Ok(())
}

fn cmd_reuse(opts: &Options) -> Result<(), String> {
    let profile = collect(&Options {
        reuse: true,
        lines: opts.lines.or(Some(64)),
        events: false,
        json: false,
        ..opts.clone()
    })?;
    println!("# {} ({}): data reuse", opts.target, opts.size);
    if let Some(pct) = reuse_analysis::reuse_breakdown_percent(&profile) {
        println!(
            "byte records:  0 reuses {:.1}% | 1-9 {:.1}% | >9 {:.1}%",
            pct[0], pct[1], pct[2]
        );
    }
    if let Some(pct) = reuse_analysis::line_breakdown_percent(&profile) {
        println!(
            "lines:  <10 {:.1}% | <100 {:.1}% | <1k {:.1}% | <10k {:.1}% | >10k {:.1}%",
            pct[0], pct[1], pct[2], pct[3], pct[4]
        );
    }
    if let Some(rows) = reuse_analysis::function_reuse_rows(&profile) {
        println!(
            "\n{:>12} {:>12} {:>14}  function",
            "reused B", "total B", "avg lifetime"
        );
        for row in rows.iter().take(15) {
            println!(
                "{:>12} {:>12} {:>14.0}  {}",
                row.reused_bytes, row.total_bytes, row.avg_lifetime, row.label
            );
        }
    }
    Ok(())
}

fn events_profile(opts: &Options) -> Result<Profile, String> {
    collect(&Options {
        events: true,
        reuse: false,
        lines: None,
        json: false,
        ..opts.clone()
    })
}

/// Feeds every record of an event file to `f`: a binary (`.evb`) file one
/// chunk at a time, so memory stays bounded by one chunk plus what `f`
/// keeps; a text file is parsed whole first.
fn for_each_event(path: &str, f: impl FnMut(&EventRecord)) -> Result<(), String> {
    let _span = sigil_obs::span("events:fold");
    if path.ends_with(".evb") {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
        ChunkStream::new(std::io::BufReader::new(file))
            .and_then(|stream| stream.for_each(f))
            .map(drop)
            .map_err(|e| e.to_string())
    } else {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let events =
            EventFile::from_text(&text).map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
        events.records().iter().for_each(f);
        Ok(())
    }
}

fn cmd_critpath(opts: &Options) -> Result<(), String> {
    if let Some(path) = &opts.from_events {
        let mut fold = CriticalPathFold::new();
        for_each_event(path, |record| fold.push(record))?;
        let summary = fold.finish().map_err(|e| e.to_string())?;
        println!("# {path}: critical path (streaming)");
        println!("serial length  : {} ops", summary.serial_ops);
        println!("critical path  : {} ops", summary.length_ops);
        println!("max parallelism: {:.2}x", summary.max_parallelism());
        return Ok(());
    }
    let profile = events_profile(opts)?;
    let cp = CriticalPath::from_profile(&profile).map_err(|e| e.to_string())?;
    println!("# {} ({}): critical path", opts.target, opts.size);
    println!("serial length  : {} ops", cp.serial_ops);
    println!("critical path  : {} ops", cp.length_ops);
    println!("max parallelism: {:.2}x", cp.max_parallelism());
    println!(
        "path functions (entry -> leaf): {}",
        cp.function_names(&profile).join(" -> ")
    );
    Ok(())
}

/// Default phase bucket width in retired ops when `--bucket-ops` is not
/// given.
const DEFAULT_BUCKET_OPS: u64 = 1000;

fn cmd_phases(opts: &Options) -> Result<(), String> {
    let bucket_ops = opts.bucket_ops.unwrap_or(DEFAULT_BUCKET_OPS);
    let (label, phases) = if let Some(path) = &opts.from_events {
        let mut fold = PhaseFold::new(bucket_ops);
        for_each_event(path, |record| fold.push(record))?;
        (format!("{path} (streaming)"), fold.finish())
    } else {
        let profile = collect(&Options {
            bucket_ops: Some(bucket_ops),
            ..opts.clone()
        })?;
        let phases = profile.phases.expect("phase collection enabled");
        (format!("{} ({})", opts.target, opts.size), phases)
    };
    if opts.json {
        let json = serde_json::to_string_pretty(&phases).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!("# {label}: phase-sliced communication, bucket = {bucket_ops} ops");
    println!(
        "phases: {} | communicating context pairs: {}",
        phases.num_buckets(),
        phases.pairs.len()
    );
    println!(
        "{:>8} {:>14} {:>8} {:>8} {:>10} {:>12}",
        "phase", "ops window", "from", "to", "calls", "xfer bytes"
    );
    // Pairs are sorted by (from, to); re-key rows by phase so the table
    // reads as a timeline.
    let mut rows: Vec<(u64, u32, u32, u64, u64)> = Vec::new();
    for pair in &phases.pairs {
        for bucket in &pair.buckets {
            rows.push((
                bucket.index,
                pair.from.0,
                pair.to.0,
                bucket.calls,
                bucket.xfer_bytes,
            ));
        }
    }
    rows.sort_unstable();
    for (index, from, to, calls, bytes) in rows {
        let window = format!("{}..{}", index * bucket_ops, (index + 1) * bucket_ops);
        println!("{index:>8} {window:>14} {from:>8} {to:>8} {calls:>10} {bytes:>12}");
    }
    Ok(())
}

fn cmd_schedule(opts: &Options) -> Result<(), String> {
    let profile = events_profile(opts)?;
    let sched = schedule(&profile, opts.cores).map_err(|e| e.to_string())?;
    println!(
        "# {} ({}): list schedule on {} cores",
        opts.target, opts.size, sched.cores
    );
    println!("work      : {} ops", sched.serial_ops);
    println!("makespan  : {} ops", sched.makespan);
    println!("speedup   : {:.2}x", sched.speedup());
    println!("utilization: {:.1}%", sched.utilization() * 100.0);
    for (core, load) in sched.per_core_load().iter().enumerate() {
        println!(
            "  core {core}: {load} busy ops ({:.1}%)",
            100.0 * *load as f64 / sched.makespan.max(1) as f64
        );
    }
    Ok(())
}

fn cmd_calltree(opts: &Options) -> Result<(), String> {
    let profile = collect(opts)?;
    print!(
        "{}",
        sigil_callgrind::output::context_tree(&profile.callgrind)
    );
    Ok(())
}

fn cmd_dot(opts: &Options) -> Result<(), String> {
    let profile = collect(opts)?;
    print!("{}", to_dot(&Cdfg::from_profile(&profile)));
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let source = std::fs::read_to_string(&opts.target)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
    let program = sigil_vm::assemble(&source).map_err(|e| e.to_string())?;
    let mut engine = Engine::new(SigilProfiler::new(sigil_config(opts)));
    let result = sigil_vm::Interpreter::new(&program)
        .run(&mut engine)
        .map_err(|e| e.to_string())?;
    println!("guest returned: {result:?}\n");
    let (profiler, symbols) = engine.finish_with_symbols();
    let profile = profiler.into_profile(symbols);
    print!("{}", report::full_report(&profile));
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let benches =
        sigil_workloads::Benchmark::parse_selection(&opts.target).map_err(|e| e.to_string())?;
    let names: Vec<(String, String)> = benches
        .iter()
        .map(|b| (b.name().to_string(), opts.size.to_string()))
        .collect();
    let config = sigil_config(opts);
    // Each sharded profiler spins up `shards` worker threads of its own,
    // so cap the job count to keep jobs × shards within the machine.
    let jobs = sigil_core::clamp_jobs(opts.jobs, config.shards);
    let entries = sigil_core::sweep::sweep(jobs, &names, |name| {
        let bench: Benchmark = name.parse().expect("sweep names come from parse_selection");
        let mut engine = Engine::new(SigilProfiler::new(config));
        bench.run(opts.size, &mut engine);
        let (profiler, symbols) = engine.finish_with_symbols();
        profiler.into_profile(symbols)
    });
    if opts.json {
        let json = serde_json::to_string_pretty(&entries).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "# sweep of {} workload(s) at {} with --jobs {jobs}",
        entries.len(),
        opts.size,
    );
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>9} {:>7} {:>8}  workload",
        "wall(ms)", "ops", "edges", "accesses", "mru%", "b/run", "evict"
    );
    for entry in &entries {
        println!(
            "{:>14.2} {:>10} {:>12} {:>12} {:>8.1}% {:>7.1} {:>8}  {}",
            entry.wall_ms,
            entry.profile.callgrind.total_ops,
            entry.profile.edges.len(),
            entry.memory.accesses,
            entry.memory.mru_hit_rate() * 100.0,
            entry.memory.bytes_per_run(),
            entry.memory.evicted_chunks,
            entry.name
        );
    }
    let total_ms: f64 = entries.iter().map(|e| e.wall_ms).sum();
    println!("# sum of per-workload wall times: {total_ms:.2} ms");
    if sigil_obs::is_enabled() {
        print_sweep_telemetry(config.shards);
    }
    Ok(())
}

/// Appends the observability-derived sweep summary lines: wall-time
/// percentiles estimated from the `sweep.wall_ms` histogram, and — for
/// sharded sweeps — aggregate shard-worker utilization from the
/// busy/idle counters.
fn print_sweep_telemetry(shards: usize) {
    use sigil_obs::metrics::{percentile_from_buckets, MetricValue};
    let snapshot = sigil_obs::metrics::snapshot();
    if let Some(MetricValue::Histogram {
        bounds,
        counts,
        total,
        ..
    }) = snapshot.get("sweep.wall_ms")
    {
        if *total > 0 {
            let p = |q: f64| percentile_from_buckets(bounds, counts, q).unwrap_or(0.0);
            println!(
                "# wall_ms percentiles (histogram estimate): p50 {:.1} | p95 {:.1} | p99 {:.1}",
                p(50.0),
                p(95.0),
                p(99.0)
            );
        }
    }
    if shards > 1 {
        let counter = |name: &str| match snapshot.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        let busy = counter("shadow.shards.busy_ns");
        let idle = counter("shadow.shards.idle_ns");
        if busy + idle > 0 {
            println!(
                "# shard utilization: {:.1}% busy ({:.2} ms busy / {:.2} ms idle, {shards} shards/job)",
                100.0 * busy as f64 / (busy + idle) as f64,
                busy as f64 / 1e6,
                idle as f64 / 1e6
            );
        }
        let dispatch_busy = counter("dispatch.busy_ns");
        let accesses = counter("dispatch.accesses");
        let records = counter("dispatch.records");
        if accesses > 0 {
            println!(
                "# dispatch: {:.0} ns/access busy, {:.3} records/access",
                dispatch_busy as f64 / accesses as f64,
                records as f64 / accesses as f64
            );
        }
    }
}

/// Profiles each selected workload at every input size and fits
/// per-function communication-vs-input-size power laws (`a·N^b`); the
/// paper's stability argument (§IV) is that these exponents are
/// properties of the algorithm, so they should hold as inputs grow.
fn cmd_scaling(opts: &Options) -> Result<(), String> {
    use sigil_analysis::scaling::{scaling_report, ScalingReport};
    let benches = Benchmark::parse_selection(&opts.target).map_err(|e| e.to_string())?;
    let factors: Vec<u64> = InputSize::ALL.iter().map(|s| s.factor()).collect();
    let reports: Vec<ScalingReport> = benches
        .iter()
        .map(|bench| {
            let profiles: Vec<Profile> = InputSize::ALL
                .iter()
                .map(|&size| {
                    let mut engine = Engine::new(SigilProfiler::new(sigil_config(opts)));
                    bench.run(size, &mut engine);
                    let (profiler, symbols) = engine.finish_with_symbols();
                    profiler.into_profile(symbols)
                })
                .collect();
            scaling_report(bench.name(), &factors, &profiles)
        })
        .collect();
    // JSON goes to `-o <file>` when given, stdout with `--json`; the
    // human-readable table renders unless `--json` asked for JSON only.
    if opts.json || opts.output.is_some() {
        let json = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
        if let Some(path) = &opts.output {
            std::fs::write(path, json + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!(
                "wrote scaling curves for {} workload(s) to {path}",
                reports.len()
            );
        } else {
            println!("{json}");
        }
        if opts.json {
            return Ok(());
        }
    }
    let fmt_fit = |fit: &Option<sigil_analysis::scaling::PowerFit>| match fit {
        Some(f) => format!("N^{:.2} (r2 {:.3})", f.exponent, f.r_squared),
        None => "-".to_owned(),
    };
    for report in &reports {
        println!(
            "# {} scaling over factors {:?} (unique bytes per function)",
            report.workload, report.factors
        );
        println!(
            "{:>12} {:>12} {:>12} {:>18} {:>18}  function",
            "input@max", "inter@max", "read@max", "input fit", "inter fit"
        );
        let last = report.factors.len() - 1;
        for f in report.functions.iter().take(12) {
            println!(
                "{:>12} {:>12} {:>12} {:>18} {:>18}  {}",
                f.input_unique_bytes[last],
                f.inter_thread_unique_bytes[last],
                f.bytes_read[last],
                fmt_fit(&f.input_fit),
                fmt_fit(&f.inter_thread_fit),
                f.name
            );
        }
        println!(
            "# totals: inter-thread {:?} [{}], bytes read {:?} [{}]",
            report.total_inter_thread_bytes,
            fmt_fit(&report.total_inter_thread_fit),
            report.total_bytes_read,
            fmt_fit(&report.total_read_fit)
        );
    }
    Ok(())
}

/// `sigil trace <benchmark> -o <file.sgtr>`: record the run's runtime
/// events and write them, symbols first, as a trace-kind container.
fn cmd_trace(opts: &Options) -> Result<(), String> {
    let bench = opts.bench()?;
    let output = opts.output.as_deref().ok_or("trace needs -o <file>")?;
    let mut engine = Engine::new(RecordingObserver::new());
    bench.run(opts.size, &mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    let events = recorder.into_events();
    let write_error = |e: std::io::Error| format!("cannot write `{output}`: {e}");
    let file =
        std::fs::File::create(output).map_err(|e| format!("cannot create `{output}`: {e}"))?;
    let mut writer = BinWriter::new(std::io::BufWriter::new(file)).map_err(write_error)?;
    for record in TraceRecord::of_trace(&symbols, &events) {
        writer.push(&record).map_err(write_error)?;
    }
    writer.finish().map_err(write_error)?;
    println!("wrote {} events to {output}", events.len());
    Ok(())
}

/// `sigil replay <file.sgtr>`: profile a recorded trace, streaming it one
/// chunk at a time.
fn cmd_replay(opts: &Options) -> Result<(), String> {
    let file = std::fs::File::open(&opts.target)
        .map_err(|e| format!("cannot open `{}`: {e}", opts.target))?;
    let located = |e: BinError| format!("{}: {e}", opts.target);
    let mut stream =
        ChunkStream::<_, TraceRecord>::new(std::io::BufReader::new(file)).map_err(located)?;
    let mut symbols = SymbolTable::new();
    let mut profiler = SigilProfiler::new(sigil_config(opts));
    let mut events = 0u64;
    while let Some(records) = stream.next_chunk().map_err(located)? {
        events += TraceRecord::apply(records, &mut symbols, &mut profiler)
            .map_err(|e| format!("{}: chunk {}: {e}", opts.target, stream.totals().chunks - 1))?;
    }
    profiler.on_finish();
    let profile = profiler.into_profile(symbols);
    println!("# replayed {events} events from {}", opts.target);
    print!("{}", report::full_report(&profile));
    Ok(())
}

/// Streams `events` into a chunk-indexed binary file at `path`.
fn write_events_binary(
    events: &EventFile,
    path: &str,
    chunk_records: usize,
) -> Result<BinTotals, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
    let mut writer = BinWriter::with_chunk_records(std::io::BufWriter::new(file), chunk_records)
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    writer
        .push_file(events)
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    let (totals, _) = writer
        .finish()
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    Ok(totals)
}

/// `sigil events dump <benchmark> -o <file>`: record the event file and
/// write it out — chunk-indexed binary for `.evb` targets, text otherwise
/// (stdout when no `-o`).
fn cmd_events_dump(opts: &Options) -> Result<(), String> {
    let profile = events_profile(opts)?;
    let events = profile
        .events
        .as_ref()
        .expect("events_profile enables recording");
    match opts.output.as_deref() {
        Some(path) if path.ends_with(".evb") => {
            let chunk = opts.chunk_records.unwrap_or(DEFAULT_CHUNK_RECORDS);
            let totals = write_events_binary(events, path, chunk)?;
            println!(
                "wrote {} records ({} chunks) to {path}",
                totals.records, totals.chunks
            );
        }
        Some(path) => {
            std::fs::write(path, events.to_text())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {} records to {path}", events.len());
        }
        None => print!("{}", events.to_text()),
    }
    Ok(())
}

/// `sigil events pack <in.txt> -o <out.evb>`: text → binary.
fn cmd_events_pack(opts: &Options) -> Result<(), String> {
    let out = opts.output.as_deref().ok_or("pack needs -o <file.evb>")?;
    let text = std::fs::read_to_string(&opts.target)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
    let events = EventFile::from_text(&text)
        .map_err(|(line, msg)| format!("{}:{line}: {msg}", opts.target))?;
    let chunk = opts.chunk_records.unwrap_or(DEFAULT_CHUNK_RECORDS);
    let totals = write_events_binary(&events, out, chunk)?;
    let bin_len = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let ratio = text.len() as f64 / bin_len.max(1) as f64;
    println!(
        "packed {} records ({} chunks): {} -> {bin_len} bytes ({ratio:.2}x smaller)",
        totals.records,
        totals.chunks,
        text.len()
    );
    Ok(())
}

/// `sigil events unpack <in.evb> [-o <out.txt>]`: binary → text, decoding
/// one chunk at a time so memory stays bounded by one chunk.
fn cmd_events_unpack(opts: &Options) -> Result<(), String> {
    use std::io::Write as _;
    let file = std::fs::File::open(&opts.target)
        .map_err(|e| format!("cannot open `{}`: {e}", opts.target))?;
    let mut stream = ChunkStream::new(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", opts.target))?;
    let mut sink: Box<dyn std::io::Write> = match opts.output.as_deref() {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    while let Some(records) = stream
        .next_chunk()
        .map_err(|e| format!("{}: {e}", opts.target))?
    {
        let text = EventFile::from_records(records.to_vec()).to_text();
        sink.write_all(text.as_bytes())
            .map_err(|e| format!("cannot write output: {e}"))?;
    }
    sink.flush()
        .map_err(|e| format!("cannot write output: {e}"))?;
    if let Some(path) = opts.output.as_deref() {
        let totals = stream.totals();
        println!(
            "unpacked {} records ({} chunks) to {path}",
            totals.records, totals.chunks
        );
    }
    Ok(())
}

/// `sigil events stat <file> [--verify]`: answer from the trailer index
/// alone, for either record kind; `--verify` additionally streams every
/// chunk, which checks the index and footer against the records.
fn cmd_events_stat(opts: &Options) -> Result<(), String> {
    fn stream_totals<T: ChunkRecord>(data: &[u8]) -> Result<BinTotals, BinError> {
        ChunkStream::<_, T>::new(data)?.for_each(|_| {})
    }
    let data =
        std::fs::read(&opts.target).map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
    let reader = BinReader::parse(&data).map_err(|e| format!("{}: {e}", opts.target))?;
    let totals = reader.totals();
    println!("# {} ({} bytes)", opts.target, data.len());
    println!("record kind    : {}", reader.kind().name());
    println!("chunk target   : {} records", reader.chunk_target());
    println!("chunks         : {}", totals.chunks);
    println!("records        : {}", totals.records);
    if reader.kind() == RecordKind::Event {
        println!("call records   : {}", totals.call_records);
        println!("compute ops    : {}", totals.compute_ops);
        println!("transfer bytes : {}", totals.transfer_bytes);
    }
    if totals.records > 0 {
        println!(
            "bytes/record   : {:.2}",
            data.len() as f64 / totals.records as f64
        );
    }
    if opts.verify {
        match reader.kind() {
            RecordKind::Event => stream_totals::<EventRecord>(&data),
            RecordKind::Trace => stream_totals::<TraceRecord>(&data),
        }
        .map_err(|e| format!("{}: {e}", opts.target))?;
        println!("verified       : full scan matches the trailer index");
    }
    Ok(())
}

fn cmd_diff(opts: &Options) -> Result<(), String> {
    if opts.bless || opts.target == "bless" {
        return cmd_diff_bless(opts);
    }
    match opts.target.as_str() {
        "random" => cmd_diff_random(opts),
        "golden" => cmd_diff_golden(opts),
        "serve" => cmd_diff_serve(opts),
        other => Err(format!(
            "unknown diff target `{other}` (expected random, golden, serve, or bless)"
        )),
    }
}

/// Replays seeded random programs through the production profiler and the
/// oracle under the full config matrix (crossed with the shard axis, or
/// with `--shards N` pinned); any divergence is shrunk to a minimized
/// repro and reported as an error.
fn cmd_diff_random(opts: &Options) -> Result<(), String> {
    use sigil_oracle::harness;
    let limit = opts.limit;
    let end = opts.seed_base + opts.seeds;
    let mut configs_checked = 0usize;
    for seed in opts.seed_base..end {
        let failures = harness::diff_seed_mt(seed, opts.threads, limit, opts.shards);
        configs_checked += harness::differential_configs(seed, limit, opts.shards).len();
        if let Some(failure) = failures.first() {
            let program = sigil_vm::GenProgram::generate_mt(seed, opts.threads);
            let minimized = harness::shrink(&program, failure.config, None);
            return Err(format!(
                "seed {seed} ({} guest thread(s)) diverged under config `{}` ({} field(s))\n\n{}",
                opts.threads,
                failure.label,
                failure.divergences.len(),
                harness::render_repro(&minimized, failure.config, None)
            ));
        }
        let done = seed - opts.seed_base + 1;
        if done.is_multiple_of(100) {
            println!("# {done}/{} seeds conformant", opts.seeds);
        }
    }
    println!(
        "{} seeds x {} guest thread(s) ({} seed/config replays): zero divergences",
        opts.seeds, opts.threads, configs_checked
    );
    Ok(())
}

fn golden_path(dir: &str, bench: Benchmark) -> std::path::PathBuf {
    std::path::Path::new(dir).join(format!("{bench}.json"))
}

/// Checks every committed golden profile against a fresh oracle replay of
/// its workload, and checks that the production profiler still conforms.
/// With `--shards N` the production side replays through the sharded
/// profiler, pinning the fan-out/merge path to the same golden corpus.
fn cmd_diff_golden(opts: &Options) -> Result<(), String> {
    use sigil_oracle::harness;
    let config = harness::golden_config();
    let production_config = config.with_shards(opts.shards.unwrap_or(1));
    for bench in Benchmark::ALL {
        let path = golden_path(&opts.golden_dir, bench);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read `{}`: {e} (run `sigil diff bless`?)",
                path.display()
            )
        })?;
        let golden: sigil_oracle::OracleReport = serde_json::from_str(&text)
            .map_err(|e| format!("bad golden `{}`: {e}", path.display()))?;
        let bundle = harness::record_benchmark(bench, opts.size);
        let oracle = harness::oracle_report(&bundle, config, None);
        let drift = sigil_oracle::diff_reports(&golden, &oracle);
        if !drift.is_empty() {
            let mut message = format!(
                "golden profile for `{bench}` drifted from the oracle ({} field(s)):\n",
                drift.len()
            );
            for d in drift.iter().take(16) {
                message.push_str(&format!("  {d}\n"));
            }
            message.push_str("re-bless only if the change is intentional: sigil diff bless");
            return Err(message);
        }
        // With `--connect`, the production side replays through a live
        // `sigil-serve` daemon instead of in-process — and the online
        // profile must additionally be byte-identical to the batch one.
        let production = match opts.connect.as_deref() {
            None => harness::production_report(&bundle, production_config),
            Some(address) => {
                use sigil_oracle::serve_axis;
                let batch = serve_axis::batch_outcome(&bundle, production_config);
                let online = serve_axis::online_outcome(
                    address,
                    &format!("golden-{bench}"),
                    &bundle,
                    production_config,
                    opts.chunk_records.unwrap_or(DEFAULT_CHUNK_RECORDS),
                )
                .map_err(|e| format!("`{bench}` via {address}: {e}"))?;
                let profile = online
                    .profile
                    .ok_or_else(|| format!("`{bench}` via {address}: no profile returned"))?;
                let online_json = serde_json::to_string(&profile).map_err(|e| e.to_string())?;
                let batch_json =
                    serde_json::to_string(&batch.profile).map_err(|e| e.to_string())?;
                if online_json != batch_json {
                    return Err(format!(
                        "`{bench}` via {address}: online profile is not byte-identical to batch \
                         ({} vs {} JSON bytes)",
                        online_json.len(),
                        batch_json.len()
                    ));
                }
                sigil_oracle::project_profile(&profile)
            }
        };
        let conformance = sigil_oracle::diff_reports(&production, &oracle);
        if !conformance.is_empty() {
            let mut message = format!(
                "production profiler (shards={}) diverged from the oracle on `{bench}` ({} field(s)):\n",
                production_config.shards,
                conformance.len()
            );
            for d in conformance.iter().take(16) {
                message.push_str(&format!("  {d}\n"));
            }
            return Err(message);
        }
        println!(
            "# {bench}: golden == oracle == production ({} events, shards={})",
            bundle.events.len(),
            production_config.shards
        );
    }
    println!(
        "golden corpus conformant ({} workloads, shards={})",
        Benchmark::ALL.len(),
        production_config.shards
    );
    Ok(())
}

/// Regenerates the golden corpus from the oracle.
fn cmd_diff_bless(opts: &Options) -> Result<(), String> {
    use sigil_oracle::harness;
    let config = harness::golden_config();
    std::fs::create_dir_all(&opts.golden_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", opts.golden_dir))?;
    for bench in Benchmark::ALL {
        let bundle = harness::record_benchmark(bench, opts.size);
        let oracle = harness::oracle_report(&bundle, config, None);
        let conformance =
            sigil_oracle::diff_reports(&harness::production_report(&bundle, config), &oracle);
        if !conformance.is_empty() {
            return Err(format!(
                "refusing to bless `{bench}`: production diverges from the oracle ({} field(s), first: {})",
                conformance.len(),
                conformance[0]
            ));
        }
        let path = golden_path(&opts.golden_dir, bench);
        let json = serde_json::to_string_pretty(&oracle).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        println!("# blessed {}", path.display());
    }
    println!(
        "blessed {} golden profiles into {}",
        Benchmark::ALL.len(),
        opts.golden_dir
    );
    Ok(())
}

/// `sigil serve`: run the concurrent trace-ingestion daemon until a
/// SHUTDOWN frame arrives (`sigil client shutdown --connect <addr>`).
fn cmd_serve(opts: &Options) -> Result<(), String> {
    use sigil_serve::{Listen, ServeConfig, Server};
    let config = ServeConfig {
        credits: opts.credits,
        idle_timeout: std::time::Duration::from_millis(opts.idle_timeout_ms),
    };
    let server = Server::bind(Listen::parse(&opts.listen), config)
        .map_err(|e| format!("cannot listen on `{}`: {e}", opts.listen))?;
    let address = server.address();
    println!(
        "serving on {address} (credits {}, idle timeout {} ms)",
        opts.credits, opts.idle_timeout_ms
    );
    println!("stop with: sigil client shutdown --connect {address}");
    server.wait();
    println!("server stopped");
    Ok(())
}

/// `sigil client <benchmark|file.evb|shutdown> --connect <addr>`:
/// replay a workload (trace session) or a binary event file (events
/// session) into a running server; `--check` additionally profiles
/// locally and requires the server's profile to be byte-identical.
fn cmd_client(opts: &Options) -> Result<(), String> {
    use sigil_core::events_bin::encode_chunk_payload;
    use sigil_serve::{shutdown_server, Client, SessionSpec};
    let address = opts
        .connect
        .as_deref()
        .ok_or("client needs --connect <addr|path>")?;
    if opts.target == "shutdown" {
        let summary = shutdown_server(address).map_err(|e| e.to_string())?;
        println!(
            "server shut down (drained: {}, sessions served: {})",
            summary.drained, summary.opened
        );
        return Ok(());
    }
    if opts.target.ends_with(".evb") {
        let file = std::fs::File::open(&opts.target)
            .map_err(|e| format!("cannot open `{}`: {e}", opts.target))?;
        let mut stream = ChunkStream::<_, EventRecord>::new(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", opts.target))?;
        let bucket_ops = opts.bucket_ops.unwrap_or(DEFAULT_BUCKET_OPS);
        let spec = SessionSpec::events(opts.target.clone(), Some(bucket_ops));
        let mut client = Client::connect(address, &spec).map_err(|e| e.to_string())?;
        while let Some(records) = stream
            .next_chunk()
            .map_err(|e| format!("{}: {e}", opts.target))?
        {
            client
                .send_chunk(encode_chunk_payload(records), records.len() as u32)
                .map_err(|e| e.to_string())?;
        }
        let result = client.finish().map_err(|e| e.to_string())?;
        println!(
            "# {} streamed to {address}: {} records",
            opts.target, result.records
        );
        if let Some(cp) = &result.critpath {
            println!(
                "critical path  : {} ops (max parallelism {:.2}x)",
                cp.length_ops,
                cp.max_parallelism()
            );
        }
        println!(
            "cdfg           : {} contexts, {} edges | compute {} ops | transfers {} bytes",
            result.cdfg_contexts.unwrap_or(0),
            result.cdfg_edges.unwrap_or(0),
            result.compute_ops.unwrap_or(0),
            result.transfer_bytes.unwrap_or(0)
        );
        return Ok(());
    }
    let bench = opts.bench()?;
    let mut engine = Engine::new(RecordingObserver::new());
    bench.run(opts.size, &mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    let events = recorder.into_events();
    let config = sigil_config(opts);
    let mut client = Client::connect(address, &SessionSpec::trace(opts.target.clone(), config))
        .map_err(|e| e.to_string())?;
    if let Some(chunk) = opts.chunk_records {
        client.set_chunk_records(chunk);
    }
    client
        .stream_trace(&symbols, &events)
        .map_err(|e| e.to_string())?;
    let waits = client.credit_waits();
    let result = client.finish().map_err(|e| e.to_string())?;
    let profile = result
        .profile
        .ok_or("server returned no profile for a trace session")?;
    println!(
        "# {} ({}) streamed to {address}: {} events, {} credit wait(s)",
        opts.target, opts.size, result.records, waits
    );
    if opts.check {
        let mut profiler = SigilProfiler::new(config);
        sigil_trace::io::replay(&events, &mut profiler);
        let batch = profiler.into_profile(symbols);
        let online_json = serde_json::to_string(&profile).map_err(|e| e.to_string())?;
        let batch_json = serde_json::to_string(&batch).map_err(|e| e.to_string())?;
        if online_json != batch_json {
            return Err(format!(
                "online profile diverges from local batch profile ({} vs {} JSON bytes)",
                online_json.len(),
                batch_json.len()
            ));
        }
        println!("check: online profile byte-identical to local batch profile");
    }
    if opts.json {
        let json = serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        print!("{}", report::full_report(&profile));
    }
    Ok(())
}

/// Wire-chunking axis for `sigil diff serve`: conformance must not
/// depend on where chunk boundaries fall, so seeds rotate through
/// tiny, small, and default chunk sizes.
const SERVE_CHUNK_AXIS: [usize; 4] = [3, 64, 1024, DEFAULT_CHUNK_RECORDS];

/// `sigil diff serve`: replay seeded random programs both through the
/// in-process batch pipeline and through a real socket into a
/// `sigil-serve` daemon (an in-process one unless `--connect` points at
/// an external server); every Profile, phase profile, and critical path
/// must be byte-identical. Divergences are ddmin-shrunk online.
fn cmd_diff_serve(opts: &Options) -> Result<(), String> {
    use sigil_oracle::{harness, serve_axis};
    let local_server = match &opts.connect {
        Some(_) => None,
        None => Some(
            sigil_serve::Server::bind(
                sigil_serve::Listen::parse("127.0.0.1:0"),
                sigil_serve::ServeConfig::default(),
            )
            .map_err(|e| format!("cannot start in-process server: {e}"))?,
        ),
    };
    let address = match &opts.connect {
        Some(addr) => addr.clone(),
        None => local_server.as_ref().expect("bound above").address(),
    };
    let mut config = serve_axis::serve_config();
    if let Some(shards) = opts.shards {
        config = config.with_shards(shards);
    }
    let end = opts.seed_base + opts.seeds;
    for seed in opts.seed_base..end {
        let program = sigil_vm::GenProgram::generate(seed);
        let bundle = harness::record_program(&program);
        let chunk_records = SERVE_CHUNK_AXIS[(seed % 4) as usize];
        let divergences = serve_axis::diff_online(
            &address,
            &format!("diff-serve-{seed}"),
            &bundle,
            config,
            chunk_records,
        )
        .map_err(|e| format!("seed {seed}: {e}"))?;
        if !divergences.is_empty() {
            let minimized = serve_axis::shrink_online(&address, &program, config);
            let mut message = format!(
                "seed {seed} (chunk_records={chunk_records}, shards={}): online diverged from batch ({} field(s)):\n",
                config.shards,
                divergences.len()
            );
            for d in divergences.iter().take(8) {
                message.push_str(&format!("  {d}\n"));
            }
            message.push_str(&format!(
                "minimized repro: {} instructions (from {})",
                minimized.inst_count(),
                program.inst_count()
            ));
            return Err(message);
        }
        let done = seed - opts.seed_base + 1;
        if done.is_multiple_of(100) {
            println!("# {done}/{} seeds online == batch", opts.seeds);
        }
    }
    if let Some(server) = local_server {
        sigil_serve::shutdown_server(&address).map_err(|e| e.to_string())?;
        server.wait();
    }
    println!(
        "{} seeds replayed over {}: online == batch, byte-identical",
        opts.seeds,
        if opts.connect.is_some() {
            "an external socket"
        } else {
            "a local socket"
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help")
        || args.first().map(String::as_str) == Some("help")
    {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "-V" || a == "--version")
        || args.first().map(String::as_str) == Some("version")
    {
        println!("sigil {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let Some(command) = args.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if command == "list" {
        for bench in Benchmark::ALL {
            println!("{bench}");
        }
        return ExitCode::SUCCESS;
    }
    // `sigil diff` and `sigil diff --seeds N ...` imply the `random` target.
    if command == "diff" && args.get(1).is_none_or(|a| a.starts_with('-')) {
        args.insert(1, "random".to_owned());
    }
    // `sigil serve` takes no target; insert a dummy so options parse.
    if command == "serve" && args.get(1).is_none_or(|a| a.starts_with('-')) {
        args.insert(1, "daemon".to_owned());
    }
    // `sigil critpath --from-events <file>` and `sigil phases
    // --from-events <file>` need no benchmark target.
    if (command == "critpath" || command == "phases")
        && args.get(1).is_some_and(|a| a.starts_with('-'))
    {
        args.insert(1, "random".to_owned());
    }
    // `sigil events <dump|pack|unpack|stat> <target> ...` folds its
    // subcommand into the command name so `<target>` parses as usual.
    let command = if command == "events" {
        let Some(sub) = args.get(1).cloned() else {
            eprintln!("error: `events` needs a subcommand: dump, pack, unpack or stat");
            return ExitCode::FAILURE;
        };
        if !matches!(sub.as_str(), "dump" | "pack" | "unpack" | "stat") {
            eprintln!("error: unknown events subcommand `{sub}`\n{}", usage());
            return ExitCode::FAILURE;
        }
        args.remove(1);
        format!("events-{sub}")
    } else {
        command
    };
    let result = parse_options(&args[1..]).and_then(|opts| {
        sigil_obs::log::set_level(opts.log_level);
        if opts.trace_out.is_some() || opts.metrics_out.is_some() || opts.metrics_stream.is_some() {
            sigil_obs::set_enabled(true);
        }
        // Live metrics stream: a background thread appends JSONL delta
        // snapshots while the command runs; stopped (with a final line)
        // whether the command succeeds or fails.
        let streamer = match &opts.metrics_stream {
            Some(path) => Some(
                sigil_obs::MetricsStreamer::start(
                    path,
                    std::time::Duration::from_millis(opts.metrics_interval_ms),
                )
                .map_err(|e| format!("cannot start metrics stream `{path}`: {e}"))?,
            ),
            None => None,
        };
        let outcome = match command.as_str() {
            "profile" => cmd_profile(&opts),
            "partition" => cmd_partition(&opts),
            "reuse" => cmd_reuse(&opts),
            "critpath" => cmd_critpath(&opts),
            "phases" => cmd_phases(&opts),
            "schedule" => cmd_schedule(&opts),
            "calltree" => cmd_calltree(&opts),
            "dot" => cmd_dot(&opts),
            "run" => cmd_run(&opts),
            "trace" => cmd_trace(&opts),
            "replay" => cmd_replay(&opts),
            "sweep" => cmd_sweep(&opts),
            "scaling" => cmd_scaling(&opts),
            "diff" => cmd_diff(&opts),
            "serve" => cmd_serve(&opts),
            "client" => cmd_client(&opts),
            "events-dump" => cmd_events_dump(&opts),
            "events-pack" => cmd_events_pack(&opts),
            "events-unpack" => cmd_events_unpack(&opts),
            "events-stat" => cmd_events_stat(&opts),
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        };
        let stream_outcome = match streamer {
            Some(streamer) => streamer
                .stop()
                .map_err(|e| format!("metrics stream failed: {e}")),
            None => Ok(()),
        };
        outcome
            .and(stream_outcome)
            .and_then(|()| write_observability(&opts))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let opts = parse_options(&args(&["vips"])).expect("parses");
        assert_eq!(opts.target, "vips");
        assert_eq!(opts.size, InputSize::SimSmall);
        assert!(!opts.reuse && !opts.events && !opts.json);
        assert_eq!(opts.cores, 4);
        assert_eq!(opts.jobs, 1);
        assert!(opts.bench().is_ok());
    }

    #[test]
    fn parse_events_flags() {
        let opts = parse_options(&args(&[
            "events.txt",
            "--chunk-records",
            "128",
            "-o",
            "events.evb",
            "--verify",
        ]))
        .expect("parses");
        assert_eq!(opts.target, "events.txt");
        assert_eq!(opts.chunk_records, Some(128));
        assert_eq!(opts.output.as_deref(), Some("events.evb"));
        assert!(opts.verify);
        assert!(parse_options(&args(&["events.txt", "--chunk-records", "0"])).is_err());
    }

    #[test]
    fn parse_from_events_flag() {
        let opts = parse_options(&args(&["random", "--from-events", "ev.evb"])).expect("parses");
        assert_eq!(opts.from_events.as_deref(), Some("ev.evb"));
        assert!(parse_options(&args(&["random", "--from-events"])).is_err());
    }

    #[test]
    fn parse_jobs_flag() {
        let opts = parse_options(&args(&["all", "--jobs", "6"])).expect("parses");
        assert_eq!(opts.jobs, 6);
        assert!(parse_options(&args(&["all", "--jobs", "0"])).is_err());
        assert!(parse_options(&args(&["all", "--jobs", "x"])).is_err());
    }

    #[test]
    fn parse_shards_flag() {
        let opts = parse_options(&args(&["vips"])).expect("parses");
        assert_eq!(opts.shards, None);
        assert_eq!(sigil_config(&opts).shards, 1);

        let opts = parse_options(&args(&["vips", "--shards", "4"])).expect("parses");
        assert_eq!(opts.shards, Some(4));
        assert_eq!(sigil_config(&opts).shards, 4);

        assert!(parse_options(&args(&["vips", "--shards", "0"])).is_err());
        assert!(parse_options(&args(&["vips", "--shards", "x"])).is_err());
        assert!(parse_options(&args(&["vips", "--shards"])).is_err());
    }

    #[test]
    fn parse_rejects_out_of_range_profiler_settings() {
        let err = parse_options(&args(&["vips", "--limit", "0"])).expect_err("limit 0");
        assert!(err.contains("shadow limit"), "{err}");
        let err = parse_options(&args(&["vips", "--lines", "3"])).expect_err("lines 3");
        assert!(err.contains("line size"), "{err}");
        let huge = usize::MAX.to_string();
        let err = parse_options(&args(&["vips", "--shards", &huge])).expect_err("huge shards");
        assert!(err.contains("shard count"), "{err}");
        assert!(parse_options(&args(&["vips", "--limit", "1", "--lines", "8"])).is_ok());
    }

    #[test]
    fn parse_all_flags() {
        let opts = parse_options(&args(&[
            "dedup",
            "--size",
            "simmedium",
            "--reuse",
            "--lines",
            "128",
            "--events",
            "--limit",
            "32",
            "--cores",
            "8",
            "-o",
            "out.sgtr",
            "--json",
        ]))
        .expect("parses");
        assert_eq!(opts.size, InputSize::SimMedium);
        assert!(opts.reuse && opts.events && opts.json);
        assert_eq!(opts.lines, Some(128));
        assert_eq!(opts.limit, Some(32));
        assert_eq!(opts.cores, 8);
        assert_eq!(opts.output.as_deref(), Some("out.sgtr"));
    }

    #[test]
    fn parse_observability_flags() {
        let opts = parse_options(&args(&[
            "vips",
            "--log-level",
            "debug",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .expect("parses");
        assert_eq!(opts.log_level, Level::Debug);
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(opts.metrics_out.as_deref(), Some("metrics.json"));
    }

    #[test]
    fn parse_log_level_defaults_to_info_and_rejects_junk() {
        let opts = parse_options(&args(&["vips"])).expect("parses");
        assert_eq!(opts.log_level, Level::Info);
        let off = parse_options(&args(&["vips", "--log-level", "off"])).expect("parses");
        assert_eq!(off.log_level, Level::Off);
        assert!(parse_options(&args(&["vips", "--log-level", "loud"])).is_err());
        assert!(parse_options(&args(&["vips", "--log-level"])).is_err());
        assert!(parse_options(&args(&["vips", "--trace-out"])).is_err());
    }

    #[test]
    fn parse_phase_flags() {
        let opts = parse_options(&args(&["vips"])).expect("parses");
        assert_eq!(opts.bucket_ops, None);
        assert!(sigil_config(&opts).phase_bucket_ops.is_none());

        let opts = parse_options(&args(&["vips", "--bucket-ops", "250"])).expect("ok");
        assert_eq!(opts.bucket_ops, Some(250));
        assert_eq!(sigil_config(&opts).phase_bucket_ops, Some(250));

        // `--bucket-us` is an alias for the same knob.
        let opts = parse_options(&args(&["vips", "--bucket-us", "64"])).expect("parses");
        assert_eq!(opts.bucket_ops, Some(64));

        assert!(parse_options(&args(&["vips", "--bucket-ops", "0"])).is_err());
        assert!(parse_options(&args(&["vips", "--bucket-ops", "x"])).is_err());
        assert!(parse_options(&args(&["vips", "--bucket-ops"])).is_err());
    }

    #[test]
    fn parse_metrics_stream_flags() {
        let opts = parse_options(&args(&["vips"])).expect("parses");
        assert_eq!(opts.metrics_stream, None);
        assert_eq!(opts.metrics_interval_ms, 200);

        let opts = parse_options(&args(&[
            "vips",
            "--metrics-stream",
            "live.jsonl",
            "--metrics-interval-ms",
            "50",
        ]))
        .expect("parses");
        assert_eq!(opts.metrics_stream.as_deref(), Some("live.jsonl"));
        assert_eq!(opts.metrics_interval_ms, 50);

        assert!(parse_options(&args(&["vips", "--metrics-stream"])).is_err());
        assert!(parse_options(&args(&["vips", "--metrics-interval-ms", "0"])).is_err());
        assert!(parse_options(&args(&["vips", "--metrics-interval-ms", "x"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_options(&args(&[])).is_err());
        assert!(parse_options(&args(&["vips", "--size", "huge"])).is_err());
        assert!(parse_options(&args(&["vips", "--bogus"])).is_err());
        assert!(parse_options(&args(&["vips", "--cores", "0"])).is_err());
        assert!(parse_options(&args(&["vips", "--lines"])).is_err());
    }

    #[test]
    fn parse_diff_flags() {
        let opts = parse_options(&args(&["random"])).expect("parses");
        assert_eq!(opts.seeds, 500);
        assert_eq!(opts.seed_base, 0);
        assert_eq!(opts.golden_dir, "tests/golden");
        assert!(!opts.bless);

        let opts = parse_options(&args(&[
            "random",
            "--seeds",
            "32",
            "--seed-base",
            "1000",
            "--golden-dir",
            "other/golden",
            "--bless",
        ]))
        .expect("parses");
        assert_eq!(opts.seeds, 32);
        assert_eq!(opts.seed_base, 1000);
        assert_eq!(opts.golden_dir, "other/golden");
        assert!(opts.bless);

        assert!(parse_options(&args(&["random", "--seeds", "0"])).is_err());
        assert!(parse_options(&args(&["random", "--seeds", "x"])).is_err());
        assert!(parse_options(&args(&["random", "--seed-base"])).is_err());
        assert!(parse_options(&args(&["random", "--golden-dir"])).is_err());
    }

    #[test]
    fn parse_thread_flags() {
        let opts = parse_options(&args(&["random"])).expect("parses");
        assert_eq!(opts.threads, 1);

        let opts = parse_options(&args(&["random", "--threads", "4"])).expect("parses");
        assert_eq!(opts.threads, 4);

        assert!(parse_options(&args(&["random", "--threads", "0"])).is_err());
        assert!(parse_options(&args(&["random", "--threads", "x"])).is_err());
        assert!(parse_options(&args(&["random", "--threads"])).is_err());
    }

    #[test]
    fn parse_scale_is_an_alias_for_size() {
        let opts = parse_options(&args(&["mtpipe", "--scale", "simlarge"])).expect("parses");
        assert_eq!(opts.size, InputSize::SimLarge);
        assert!(parse_options(&args(&["mtpipe", "--scale", "huge"])).is_err());
    }

    #[test]
    fn parse_serve_flags() {
        let opts = parse_options(&args(&["daemon"])).expect("parses");
        assert_eq!(opts.listen, "127.0.0.1:7077");
        assert_eq!(opts.credits, 8);
        assert_eq!(opts.idle_timeout_ms, 30_000);
        assert_eq!(opts.connect, None);
        assert!(!opts.check);

        let opts = parse_options(&args(&[
            "daemon",
            "--listen",
            "/tmp/sigil.sock",
            "--credits",
            "2",
            "--idle-timeout-ms",
            "500",
        ]))
        .expect("parses");
        assert_eq!(opts.listen, "/tmp/sigil.sock");
        assert_eq!(opts.credits, 2);
        assert_eq!(opts.idle_timeout_ms, 500);

        assert!(parse_options(&args(&["daemon", "--credits", "0"])).is_err());
        assert!(parse_options(&args(&["daemon", "--credits", "x"])).is_err());
        assert!(parse_options(&args(&["daemon", "--idle-timeout-ms", "0"])).is_err());
        assert!(parse_options(&args(&["daemon", "--listen"])).is_err());
    }

    #[test]
    fn parse_client_flags() {
        let opts = parse_options(&args(&[
            "vips",
            "--connect",
            "127.0.0.1:7077",
            "--check",
            "--chunk-records",
            "256",
        ]))
        .expect("parses");
        assert_eq!(opts.connect.as_deref(), Some("127.0.0.1:7077"));
        assert!(opts.check);
        assert_eq!(opts.chunk_records, Some(256));
        assert!(parse_options(&args(&["vips", "--connect"])).is_err());
    }

    #[test]
    fn unknown_benchmark_surfaces_in_bench_lookup() {
        let opts = parse_options(&args(&["not-a-benchmark"])).expect("parse is lazy");
        assert!(opts.bench().is_err());
    }
}
