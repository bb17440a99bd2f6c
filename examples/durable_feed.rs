//! The durable streaming pipeline: the live feed from `live_feed`, but every
//! accepted batch is journaled through [`tin_durable::DurableStore`] before
//! the path tables are patched — kill the process at any moment and a
//! restart recovers the exact prefix that reached the disk, row-identical
//! tables included.
//!
//! Three modes:
//!
//! - no arguments — self-contained demo: stream into a temp directory with a
//!   mid-stream snapshot, drop the store, reopen, and verify recovery.
//! - `run <dir>` — stream the generated feed into `<dir>` slowly (a few ms
//!   per batch), snapshotting periodically. Built to be SIGKILLed mid-stream
//!   by the crash smoke in CI.
//! - `recover <dir>` — reopen `<dir>`, print the recovery report, and verify
//!   the recovered tables are row-identical to a from-scratch build over the
//!   recovered graph. Exits nonzero if recovery or verification fails.
//!
//! Run with: `cargo run --release --example durable_feed`

use std::io::Write as _;
use tin_datasets::{generate, DatasetKind, DeltaStream, LoaderConfig};
use tin_durable::{DurableStore, JournalConfig, RecoveryReport};
use tin_patterns::{PathTables, TablesConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        None => demo(),
        Some("run") if args.len() == 3 => run_feed(std::path::Path::new(&args[2])),
        Some("recover") if args.len() == 3 => recover(std::path::Path::new(&args[2])),
        _ => {
            eprintln!("usage: durable_feed [run <dir> | recover <dir>]");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("durable_feed error: {e}");
        std::process::exit(1);
    }
}

/// The generated feed as CSV bytes — deterministic, so every mode sees the
/// same stream.
fn feed_csv() -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let full = generate(DatasetKind::Bitcoin, 7);
    let mut csv: Vec<u8> = b"sender,recipient,timestamp,amount\n".to_vec();
    for edge in full.edges() {
        let (src, dst) = (&full.node(edge.src).name, &full.node(edge.dst).name);
        for i in &edge.interactions {
            writeln!(csv, "{src},{dst},{},{}", i.time, i.quantity)?;
        }
    }
    Ok(csv)
}

fn describe(report: &RecoveryReport) {
    println!(
        "recovery: {:?}, {} frames durable ({} replayed from the journal){}",
        report.source,
        report.frames,
        report.replayed,
        if report.torn_tail.is_some() {
            " — torn tail dropped"
        } else {
            ""
        }
    );
    for d in &report.discarded {
        println!("  discarded: {d}");
    }
    match report.tables_update {
        None => println!("tables: restored as snapshotted, no catch-up"),
        Some(update) if update.rebuilt => println!(
            "tables: rebuilt once after the replay ({} kernel passes)",
            update.kernel_calls
        ),
        Some(update) => println!(
            "tables: patched once after the replay ({} row groups refreshed)",
            update.refreshed_groups
        ),
    }
}

/// `run <dir>`: stream slowly, snapshot periodically, be killable.
fn run_feed(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let csv = feed_csv()?;
    let (mut store, report) =
        DurableStore::open(dir, TablesConfig::default(), JournalConfig::default())?;
    describe(&report);
    if store.frames() > 0 {
        println!(
            "directory already holds {} frames; nothing to do",
            store.frames()
        );
        return Ok(());
    }
    let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())?;
    let mut batch_no = 0u64;
    while let Some(delta) = stream.next_delta(10)? {
        store.apply(&delta)?;
        batch_no += 1;
        if batch_no % 40 == 0 {
            store.snapshot()?;
            println!(
                "batch {batch_no}: snapshot at {:?} ({} transfers live)",
                store.position(),
                store.graph().interaction_count()
            );
        }
        // Slow the stream down so a kill reliably lands mid-run.
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    println!(
        "feed complete: {} batches, {} transfers, {} accounts",
        batch_no,
        store.graph().interaction_count(),
        store.graph().node_count()
    );
    Ok(())
}

/// `recover <dir>`: reopen and verify the recovered state is coherent.
fn recover(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let (store, report) =
        DurableStore::open(dir, TablesConfig::default(), JournalConfig::default())?;
    describe(&report);
    store.graph().validate()?;
    let rebuilt = PathTables::build(store.graph(), &TablesConfig::default());
    if let Some(divergence) = store.tables().first_row_divergence(&rebuilt) {
        return Err(
            format!("recovered tables diverge from a from-scratch build: {divergence}").into(),
        );
    }
    println!(
        "verified: {} transfers across {} accounts recovered; tables row-identical \
         to a from-scratch build",
        store.graph().interaction_count(),
        store.graph().node_count()
    );
    Ok(())
}

/// No arguments: stream → snapshot → drop → reopen → verify, in a temp dir.
fn demo() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("tin-durable-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv = feed_csv()?;
    {
        let (mut store, _) =
            DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default())?;
        let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())?;
        let mut batch_no = 0u64;
        while let Some(delta) = stream.next_delta(50)? {
            store.apply(&delta)?;
            batch_no += 1;
            if batch_no == 20 {
                let manifest = store.snapshot()?;
                println!(
                    "batch {batch_no}: snapshot committed via {}",
                    manifest.file_name().unwrap_or_default().to_string_lossy()
                );
            }
        }
        println!(
            "streamed {} batches durably: {} transfers, {} accounts, journal at {:?}",
            batch_no,
            store.graph().interaction_count(),
            store.graph().node_count(),
            store.position()
        );
        // The store drops here — exactly what a crash looks like to the
        // directory, minus the torn tail.
    }
    recover(&dir)?;
    std::fs::remove_dir_all(&dir)?;
    println!("demo complete (temp directory removed)");
    Ok(())
}
