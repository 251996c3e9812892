//! Tables in, hits out: the end-to-end benchmark of the TabBiN stack.
//!
//! Every workload runs the same fixed system: `ModelConfig::tiny`
//! pretrained at set-up, a 4-shard durable `ShardedStore` (quantized
//! scoring over the default LSH blocking, hash router, WAL group commit
//! every 10 ms), `EngineConfig::default()`, and a `tabbin-serve` `Server`
//! with one worker per core and one I/O thread. The indexed corpus is 2000
//! `tabbin-corpus` tables per dataset profile from a fixed seed; `--seed`
//! varies the traffic: held-out query tables (never indexed), revision
//! tables, the operation mix and the request order.
//!
//! Workloads:
//! * `ingest` — 64-table batches through `BatchEncoder`, one durable upsert
//!   per table, ~10% revisions, ~5% deletes, a checkpoint every 32 batches
//!   and a `wal_flush` before the clock stops. Exercises `tabbin-core` and
//!   the write side of `tabbin-index`.
//! * `search_miss` — open-loop held-out queries over one loopback
//!   connection, never repeating within the engine cache's reach: route,
//!   coarse sweep and re-rank on every request.
//! * `search_hot` — the same store and server, Zipf (s = 1) draws over 64
//!   held-out queries: the engine cache answers, on the I/O thread.
//!
//! `BENCHMARK.json` lists the two search workloads. On a 2-vCPU shared host
//! the ingest throughput swung by 30-42% (interquartile range over median,
//! ten seeds) between runs, more than the largest regression bound allows,
//! so `ingest` runs by hand only; the traced search runs still measure every
//! write-path layer, since they load the corpus stage by stage.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path tablebench/Cargo.toml -- \
//!     --workload <ingest|search_miss|search_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) records spans around the benchmark's calls into each
//! layer and prints the per-layer metrics. The last stdout line is one JSON
//! object; a results file (and, traced, the spans) go under `.bench_data/`.
//! Any failed output check makes the exit code non-zero.

mod ladder;
mod loadgen;
mod pipeline;
mod report;
mod search;
mod stats;
mod trace;
mod workloads;

use report::{Provenance, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["ingest", "search_miss", "search_hot"];
const DATA_DIR: &str = ".bench_data";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = value.parse::<u8>().map_err(|e| format!("--trace {value}: {e}"))? != 0
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The commit measured: `.git/HEAD` resolved by hand (no git binary), or
/// "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(refname)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the measured sources (`crates/` and the benchmark),
/// identifying the code when there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("tablebench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tablebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(DATA_DIR).join(format!("run-{}-{}", args.workload, std::process::id()));
    let mut rep = Report::default();
    let mut tr = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "ingest" => workloads::run_ingest(&args, &run_dir, &mut rep, &mut tr),
        "search_miss" => workloads::run_search(&search::MISS, &args, &run_dir, &mut rep, &mut tr),
        _ => workloads::run_search(&search::HOT, &args, &run_dir, &mut rep, &mut tr),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = result {
        eprintln!("tablebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    report::print_readable(&args.workload, &rep);
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let provenance = Provenance {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: commit(),
        source_digest: source_digest(),
    };
    let results = Path::new(DATA_DIR).join("results").join(format!("{tag}.json"));
    if let Err(e) = report::write_results(&results, &provenance, &rep) {
        eprintln!("tablebench: writing {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        let spans = Path::new(DATA_DIR).join("trace").join(format!("{tag}.json"));
        let written = std::fs::create_dir_all(spans.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&spans, tr.to_json()));
        if let Err(e) = written {
            eprintln!("tablebench: writing {}: {e}", spans.display());
            return ExitCode::FAILURE;
        }
    }
    let names: &[&str] = if args.trace { &workloads::PER_LAYER } else { &workloads::END_TO_END };
    println!("{}", report::result_line(&rep, names));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
