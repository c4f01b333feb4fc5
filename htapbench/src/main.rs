//! htapbench — the end-to-end benchmark of AnKerDB.
//!
//! Two workloads, each run in its own process from a seed:
//! `htap_hetero` and `htap_homo`, one commit-paced HTAP stream (see
//! [`htap`]) on heterogeneous resp. homogeneous serializable.
//!
//! ```text
//! htapbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! htapbench --self-test
//! ```
//!
//! A run prints a human-readable report, the `end_to_end` metrics as one
//! JSON line, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed output
//! check exits with code 1.

mod check;
mod htap;
mod measure;
mod olap;
mod selftest;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// TPC-H scale factor of every workload (the generator's SF 1 is 150 000
/// orders, ≈ 600 000 lineitems, 200 000 parts).
pub const SCALE_FACTOR: f64 = 1.0;

/// Where runs keep their databases and trace files, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("txn_per_s", "tx/s"),
    ("oltp_p50_us", "us"),
    ("oltp_p99_us", "us"),
    ("olap_q1_ms", "ms"),
    ("olap_q6_ms", "ms"),
    ("olap_q17_ms", "ms"),
    ("olap_scan_ms", "ms"),
    ("recover_s", "s"),
    ("disk_mb", "MB"),
    ("rss_mb", "MB"),
];

/// The query rotation of the HTAP stream and the metric suffix of each.
pub const QUERY_TAGS: [&str; 4] = ["q1", "q6", "q17", "scan"];

/// The `ScanStats` counts reported per query. A count the query's shape
/// holds at 0 on both workloads is left out: zone maps skip no block of
/// Q1's or Q17's LINEITEM scan, Q6's and Q17's predicates pass no block
/// whole, and the full scan has no predicate.
const SCAN_COUNTS: [(&str, &[&str]); 4] = [
    (
        "q1",
        &["rows", "vector_blocks", "dense_blocks", "rows_filtered"],
    ),
    (
        "q6",
        &["rows", "blocks_skipped", "vector_blocks", "rows_filtered"],
    ),
    ("q17", &["rows", "vector_blocks", "rows_filtered"]),
    ("scan", &["rows", "dense_blocks"]),
];

/// Per-layer metrics: name and unit. A metric one of the two workloads
/// does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("tpch.load_s", "s"),
        ("tpch.warmup_s", "s"),
        ("oltp_p999_us", "us"),
        ("txn.begin_us.p50", "us"),
        ("txn.body_us.p50", "us"),
        ("txn.body_us.p99", "us"),
        ("txn.commit_us.p50", "us"),
        ("txn.commit_us.p99", "us"),
        ("txn.commit_us.p999", "us"),
        ("commit.latch_us.p50", "us"),
        ("commit.validate_us.p50", "us"),
        ("commit.wal_us.p50", "us"),
        ("commit.install_us.p50", "us"),
        ("commit.install_us.p99", "us"),
        ("mvcc.versions_end", "count"),
        ("gc.pass_ms.p50", "ms"),
        ("gc.passes", "count"),
        ("gc.versions_collected", "count"),
        ("snap.olap_begin_us.p50", "us"),
        ("snap.epochs_triggered", "count"),
        ("snap.epochs_retired", "count"),
        ("snap.columns_materialized", "count"),
        ("snap.materialize_us.p50", "us"),
        ("snap.materialize_us.p99", "us"),
        ("snap.rewire_us.p50", "us"),
        ("snap.pages_rewired", "count"),
        ("vmem.snapshots", "count"),
        ("vmem.cow_copies", "count"),
        ("vmem.cow_per_commit", "copies/commit"),
        ("scan.morsel_us.p50", "us"),
        ("reader.morsels", "count"),
        ("wal.bytes_per_commit", "B/commit"),
        ("wal.mb", "MB"),
        ("ckpt.ms.p50", "ms"),
        ("ckpt.count", "count"),
        ("ckpt.mb", "MB"),
        ("recovery.commits_replayed", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (q, counts) in SCAN_COUNTS {
        m.push((format!("mvcc.chain_walks.{q}"), "count"));
        m.push((format!("mvcc.checked_rows.{q}"), "count"));
        for c in counts {
            m.push((format!("scan.{q}.{c}"), "count"));
        }
    }
    m
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HtapHetero,
    HtapHomo,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::HtapHetero, Workload::HtapHomo];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HtapHetero => "htap_hetero",
            Workload::HtapHomo => "htap_homo",
        }
    }
}

/// One run's settings, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory this run keeps its databases in (removed at exit).
    pub dir: PathBuf,
}

/// What a run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty means correct.
    pub errors: Vec<String>,
    /// Tag lines printed before the metrics (configuration, digests).
    pub notes: Vec<String>,
    pub e2e: BTreeMap<String, f64>,
    pub layer: BTreeMap<String, f64>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_string(), v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_string(), v);
    }

    /// Print the human-readable report and the result lines.
    fn print(&self, args: &RunArgs) {
        println!(
            "htapbench workload={} seed={} seconds={} trace={} rev={} host_cpus={} scale_factor={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            measure::git_rev(),
            measure::host_cpus(),
            SCALE_FACTOR
        );
        for n in &self.notes {
            println!("{n}");
        }
        println!("{:<28} {:>16}  unit", "end-to-end metric", "value");
        let e2e: Vec<(String, &str, f64)> = END_TO_END
            .iter()
            .map(|&(n, u)| {
                (
                    n.to_string(),
                    u,
                    self.e2e.get(n).copied().unwrap_or(f64::NAN),
                )
            })
            .collect();
        for (n, u, v) in &e2e {
            println!("{n:<28} {v:>16.4}  {u}");
        }
        let layer: Vec<(String, &str, f64)> = per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = self.layer.get(&n).copied().unwrap_or(0.0);
                (n, u, v)
            })
            .collect();
        if args.trace {
            println!("{:<28} {:>16}  unit", "per-layer metric", "value");
            for (n, u, v) in &layer {
                println!("{n:<28} {v:>16.4}  {u}");
            }
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        println!("attempted={} failed={}", self.attempted, self.failed);
        println!("end_to_end {}", metrics_json(&e2e));
        let shown = if args.trace { &layer } else { &e2e };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics_json(shown)
        );
    }
}

fn metrics_json(m: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

const USAGE: &str = "usage: htapbench --workload <htap_hetero|htap_homo> \
                     --seed <n> --seconds <n> --trace <0|1>\n       htapbench --self-test";

fn parse_args(argv: &[String]) -> Result<Option<RunArgs>, String> {
    if argv == ["--self-test"] {
        return Ok(None);
    }
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let v = it.next().ok_or(format!("{key} needs a value"))?;
        if kv.insert(key, v).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == get("--workload").unwrap_or_default())
        .ok_or(format!("unknown workload {:?}", get("--workload")?))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("{k} wants a whole number"))
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace wants 0 or 1".into()),
    };
    Ok(Some(RunArgs {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        dir: run_dir(workload, "run"),
    }))
}

/// A directory of this process for one workload's databases.
pub fn run_dir(workload: Workload, tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{tag}-{}-{}", workload.name(), std::process::id()))
}

/// Run `f` with `args.dir` created empty, and remove the directory after.
pub fn in_run_dir<T>(args: &RunArgs, f: impl FnOnce() -> T) -> T {
    let _ = std::fs::remove_dir_all(&args.dir);
    std::fs::create_dir_all(&args.dir).expect("cannot create the run directory");
    let out = f();
    let _ = std::fs::remove_dir_all(&args.dir);
    out
}

/// Traced runs: write the benchmark's spans as a chrome-trace file.
pub fn write_trace(args: &RunArgs, spans: &measure::SpanLog, r: &mut Report) {
    if !args.trace {
        return;
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload.name()));
    match spans.write_chrome_trace(&path) {
        Ok(()) => r.notes.push(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        )),
        Err(e) => r.errors.push(format!("writing {}: {e}", path.display())),
    }
}

/// Run one workload and report it.
pub fn run(args: &RunArgs) -> Report {
    in_run_dir(args, || htap::run(args))
}

fn main() {
    // What is measured is set by the flags alone: no engine knob may be
    // steered by the environment (`DbConfig` is spelled out field by
    // field, and the `ANKER_*` variables are dropped before any thread
    // starts).
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("ANKER_") {
            std::env::remove_var(k);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => std::process::exit(selftest::run()),
        Err(e) => {
            eprintln!("htapbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    report.print(&args);
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
