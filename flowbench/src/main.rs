//! flowbench: the live-pipeline benchmark of the temporal-flow workspace.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Generates the workload's input from the seed, runs it in a closed loop
//! from one thread for a pass count sized to `--seconds`, checks every
//! output against an oracle off the clock, and prints each metric as
//! `name value unit`, then one JSON object as the last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reruns the workload with a
//! span around every call into a library crate and reports the per-layer
//! metrics instead. See README.md for the workloads and metrics.

mod alloc;
mod input;
mod live;
mod measured;
mod restart;
mod stats;
mod subgraphs;
mod trace;

use measured::{Budget, Measured};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::{Call, Tracer};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups per run, `setup_s` being their median: at least `SETUP_MIN`,
/// then more until `SETUP_SECONDS` are spent, at most `SETUP_MAX`.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

/// Passes every measured phase makes at least.
const MIN_PASSES: usize = 2;

/// Spans a traced run can hold (32 bytes each).
const TRACE_CAPACITY: usize = 1 << 20;

/// Latency percentiles reported end to end.
const P_HIGH: f64 = 99.0;

const USAGE: &str =
    "usage: flowbench --workload <window-flow|window-tables|subgraph-flow|restart> \
                     --seed <u64> --seconds <n> --trace <0|1> [--trace-file <path>]";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WindowFlow,
    WindowTables,
    SubgraphFlow,
    Restart,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::WindowFlow,
        Workload::WindowTables,
        Workload::SubgraphFlow,
        Workload::Restart,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::WindowFlow => "window-flow",
            Workload::WindowTables => "window-tables",
            Workload::SubgraphFlow => "subgraph-flow",
            Workload::Restart => "restart",
        }
    }

    /// Seconds one pass of the full-size input took on the reference host
    /// (README.md): `--seconds` divided by this is the pass count. For
    /// `restart` a pass is 1,024 recoveries.
    fn pass_s(self) -> f64 {
        match self {
            Workload::WindowFlow => 4.0,
            Workload::WindowTables => 4.2,
            Workload::SubgraphFlow => 0.6,
            Workload::Restart => 1.3,
        }
    }
}

/// How big the inputs are: the benchmark's sizes, or a tiny variant for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

fn live_spec(workload: Workload, size: Size) -> live::LiveSpec {
    let tiny = size == Size::Tiny;
    match workload {
        // 48 Bitcoin feeds of 1,500 records, 12-record batches: 6,000
        // batches a pass, flow-bound.
        Workload::WindowFlow => live::LiveSpec {
            kind: tin_datasets::DatasetKind::Bitcoin,
            scale: if tiny { 0.02 } else { 0.0625 },
            feeds: if tiny { 2 } else { 48 },
            batch_records: if tiny { 4 } else { 12 },
            flow: true,
        },
        // 8 CTU-13 feeds of 7,000 records (6 hubs each), 28-record
        // batches: 2,000 batches a pass, table-bound.
        _ => live::LiveSpec {
            kind: tin_datasets::DatasetKind::Ctu13,
            scale: if tiny { 0.04 } else { 0.5 },
            feeds: if tiny { 2 } else { 8 },
            batch_records: if tiny { 4 } else { 28 },
            flow: false,
        },
    }
}

/// 256 Prosper stores of 480 records in 480 frames, snapshot at 90%: each
/// recovery decodes a snapshot and replays a 48-frame tail. A pass
/// recovers every store four times, so the ten operations beyond
/// `op_p99_ms` span at least three stores: no single store sets it.
fn restart_spec(size: Size) -> restart::RestartSpec {
    let tiny = size == Size::Tiny;
    restart::RestartSpec {
        scale: if tiny { 0.02 } else { 0.04 },
        stores: if tiny { 1 } else { 256 },
        batch_records: if tiny { 4 } else { 1 },
        snapshot_at: 0.9,
    }
}

/// Two instances of each generator at full size: about 5,400 subgraphs.
fn subgraph_spec(size: Size) -> (f64, usize) {
    match size {
        Size::Tiny => (0.05, 1),
        Size::Full => (1.0, 2),
    }
}

/// A workload's generated input.
enum Input {
    Live(live::LiveInput),
    Subgraphs(subgraphs::SubgraphInput),
    Restart(restart::RestartInput),
}

fn setup(workload: Workload, size: Size, seed: u64, dir: &Path) -> Result<Input, String> {
    Ok(match workload {
        Workload::WindowFlow | Workload::WindowTables => {
            Input::Live(live::setup(&live_spec(workload, size), seed))
        }
        Workload::SubgraphFlow => {
            let (scale, sets) = subgraph_spec(size);
            Input::Subgraphs(subgraphs::setup(scale, sets, seed))
        }
        Workload::Restart => Input::Restart(restart::setup(&restart_spec(size), seed, dir)?),
    })
}

fn measure(input: &Input, budget: &Budget, work: &Path, tracer: &mut Tracer) -> Measured {
    match input {
        Input::Live(i) => live::measure(i, budget, work, tracer),
        Input::Subgraphs(i) => subgraphs::measure(i, budget, tracer),
        Input::Restart(i) => restart::measure(i, budget, tracer),
    }
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_file,
    })
}

/// A scratch directory in the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(".flowbench-work")
            .join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(setup_s: f64, m: &Measured) -> Vec<Metric> {
    let sorted = m.op_times();
    vec![
        metric("ops_per_s", m.ops_per_s(), "1/s"),
        metric(
            "op_p50_ms",
            stats::percentile(&sorted, 50.0) as f64 / 1e6,
            "ms",
        ),
        metric(
            "op_p99_ms",
            stats::percentile(&sorted, P_HIGH) as f64 / 1e6,
            "ms",
        ),
        metric("peak_alloc_mb", m.peak_bytes() / (1024.0 * 1024.0), "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(traced: &Measured, summary: &trace::TraceSummary, overhead: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for call in Call::ALL.into_iter().filter(|&c| c != Call::Op) {
        let s = summary.get(call);
        for (stat, value, unit) in [
            ("calls", s.calls as f64, "count"),
            ("busy_s", s.busy_ns as f64 / 1e9, "s"),
            ("self_s", s.self_ns as f64 / 1e9, "s"),
            ("p50_us", s.p50_ns as f64 / 1e3, "us"),
            ("p99_us", s.p99_ns as f64 / 1e3, "us"),
        ] {
            out.push(metric(format!("{}.{stat}", call.name()), value, unit));
        }
    }
    let op = summary.get(Call::Op);
    out.push(metric("loop.op.busy_s", op.busy_ns as f64 / 1e9, "s"));
    out.push(metric("loop.op.p50_us", op.p50_ns as f64 / 1e3, "us"));
    out.push(metric("loop.op.p99_us", op.p99_ns as f64 / 1e3, "us"));
    out.push(metric(
        "loop.unattributed_s",
        summary.unattributed_ns() as f64 / 1e9,
        "s",
    ));
    out.push(metric(
        "loop.unattributed_pct",
        100.0 * summary.unattributed_share(),
        "%",
    ));
    out.push(metric("trace.overhead", overhead, "ratio"));
    for (name, unit) in measured::COUNTS {
        out.push(metric(name, traced.counts.get(name), unit));
    }
    out
}

/// Runs the whole benchmark for `args`; returns whether every oracle held.
fn run(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    tin_parallel::set_threads(Some(cores.min(2)));
    let work = WorkDir::create()?;
    let budget = |seconds| {
        let min_ops = stats::min_samples(P_HIGH);
        Budget::for_seconds(seconds, args.workload.pass_s(), MIN_PASSES, min_ops)
    };

    let dir = work.0.join("input");
    let mut setup_s = Vec::new();
    let mut input = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // The previous input goes before the clock starts.
        drop(input.take());
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        input = Some(setup(args.workload, Size::Full, args.seed, &dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let setup_median = stats::median(&setup_s);
    println!(
        "# workload {} seed {} threads {}",
        args.workload.name(),
        args.seed,
        tin_parallel::effective_threads()
    );

    let (m, metrics) = if args.trace {
        // The traced and the untraced run share the time budget.
        let half = budget(args.seconds / 2.0);
        let mut tracer = Tracer::on(TRACE_CAPACITY);
        let traced = measure(&input, &half, &work.0, &mut tracer);
        let plain = measure(&input, &half, &work.0, &mut Tracer::off());
        let overhead = traced.ops_per_s() / plain.ops_per_s();
        if let Some(path) = &args.trace_file {
            tracer
                .write_json(path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let summary = tracer.summary();
        println!(
            "# traced ops/s {:.1} vs untraced {:.1}: overhead {overhead:.3}; unattributed {:.2}% of loop time",
            traced.ops_per_s(),
            plain.ops_per_s(),
            100.0 * summary.unattributed_share()
        );
        let mut merged = traced;
        merged
            .counts
            .set("parallel.threads", tin_parallel::effective_threads() as f64);
        let metrics = per_layer(&merged, &summary, overhead);
        merged.mismatches.extend(plain.mismatches);
        (merged, metrics)
    } else {
        let start = Instant::now();
        let m = measure(&input, &budget(args.seconds), &work.0, &mut Tracer::off());
        println!(
            "# measured phase took {:.1} s",
            start.elapsed().as_secs_f64()
        );
        let metrics = end_to_end(setup_median, &m);
        (m, metrics)
    };
    println!(
        "# {} ops in {} passes; p{P_HIGH} has {} samples beyond it",
        m.attempted(),
        m.passes,
        m.samples_beyond(P_HIGH)
    );
    for x in &metrics {
        println!("{} {} {}", x.name, x.value, x.unit);
    }
    println!(
        "{}",
        result_json(m.correct(), m.attempted(), m.failed, &metrics)
    );
    Ok(m.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an oracle disagreed with the program's output");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_budget() -> Budget {
        Budget {
            passes: MIN_PASSES,
            min_ops: 1,
        }
    }

    #[test]
    fn tiny_runs_of_every_workload_pass_their_oracles() {
        let start = Instant::now();
        let work = WorkDir::create().expect("scratch directory");
        for workload in Workload::ALL {
            let dir = work.0.join(workload.name());
            let input = setup(workload, Size::Tiny, 7, &dir).expect("tiny set-up");
            for mut tracer in [Tracer::off(), Tracer::on(1 << 16)] {
                let m = measure(&input, &tiny_budget(), &work.0, &mut tracer);
                let name = workload.name();
                assert!(m.correct(), "{name}: {:?}", m.mismatches);
                assert_eq!(m.failed, 0, "{name}");
                assert!(m.passes >= MIN_PASSES, "{name}");
                assert!(m.ops_per_s() > 0.0, "{name}");
                if tracer.enabled() {
                    let summary = tracer.summary();
                    assert_eq!(
                        summary.get(Call::Op).calls as usize,
                        m.attempted(),
                        "{name}"
                    );
                    assert!(summary.unattributed_share() < 0.5, "{name}");
                }
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the tiny smoke run took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_counts() {
        let work = WorkDir::create().expect("scratch directory");
        let counts = |seed| {
            let input = setup(Workload::WindowFlow, Size::Tiny, seed, &work.0).expect("set-up");
            measure(&input, &tiny_budget(), &work.0, &mut Tracer::off()).counts
        };
        let (a, b, c) = (counts(3), counts(3), counts(4));
        assert!(a.get("lp.pivots") > 0.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&args("--workload restart --seed 9 --seconds 2 --trace 1")).expect("valid");
        assert_eq!(a.workload, Workload::Restart);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload restart --seconds 1 --trace 0",
            "--workload restart --seed 1 --seconds 0 --trace 0",
            "--workload restart --seed 1 --seconds 1 --trace 2",
            "--workload restart --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
