//! The commit-paced HTAP stream (`htap_hetero`, `htap_homo`).
//!
//! Load TPC-H, run the cold-start step, warm up with more OLTP commits
//! than one snapshot interval, then run `cycles` cycles. In each cycle the
//! analyst opens its handle, one client runs `K` OLTP transactions, and
//! the cycle's query runs on the handle opened `K` commits earlier. The
//! queries rotate through Q1, Q6, Q17 and the full LINEITEM scan.
//!
//! The analyst is paced by commits, not by the clock: every version,
//! epoch and copy-on-write copy a query meets is set by the commit count,
//! so two runs with one seed do identical engine work, and the scheduler
//! cannot decide how many commits land under a query (the overlap that
//! MVCC's cost hinges on).

use crate::check::{self, Digest};
use crate::measure::{self, Delta, Samples, SpanLog};
use crate::olap::{self, PerQuery, SCAN_THREADS};
use crate::{Report, RunArgs, Workload, QUERY_TAGS, SCALE_FACTOR};
use anker_core::{
    AnkerDb, BackendKind, DbConfig, DbError, DurabilityLevel, IsolationLevel, ProcessingMode,
    ScanStats, TxnKind,
};
use anker_tpch::{gen, oltp, queries, OltpKind, TpchConfig, TpchDb};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::time::{Duration, Instant};

/// The paper's snapshot trigger: a new epoch every 10 000 commits.
pub const SNAPSHOT_EVERY: u64 = 10_000;
/// Homogeneous mode: the client runs one GC pass every this many commits.
pub const GC_EVERY: u64 = 10_000;
/// OLTP commits per cycle: the commits that land under each query.
pub const K: u64 = 2_000;
/// Cycles per second of `--seconds` (≈ one run second each on a 2-CPU
/// host); rounded up to whole query rotations.
const CYCLES_PER_SECOND: u64 = 16;
/// OLTP tail percentiles are the median over this many consecutive
/// windows of equal commit count of each window's percentile.
pub const TAIL_WINDOWS: usize = 10;
/// One OLTP span in this many goes into the chrome trace (all spans feed
/// the per-layer quantiles).
const SPAN_SAMPLE: u64 = 16;

/// The fixed counts of one HTAP run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub scale_factor: f64,
    pub cycles: u64,
    pub k: u64,
    pub warmup_commits: u64,
    /// Set-ups per run; `setup_s` is their median, the last one is used.
    pub setups: usize,
    /// Recoveries of the crash image; `recover_s` is their median.
    pub recoveries: usize,
    /// Cycles `c` with `c % check_every < 4` verify their query.
    pub check_every: u64,
    /// Self-test only: corrupt every checked query answer.
    pub corrupt_answers: bool,
    /// Self-test only: cut the crash image's newest WAL segment short.
    pub truncate_image: bool,
}

impl Plan {
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            scale_factor: SCALE_FACTOR,
            cycles: (seconds * CYCLES_PER_SECOND).div_ceil(4) * 4,
            k: K,
            warmup_commits: SNAPSHOT_EVERY + SNAPSHOT_EVERY / 5,
            setups: 3,
            recoveries: 3,
            check_every: 128,
            corrupt_answers: false,
            truncate_image: false,
        }
    }
}

/// Every `DbConfig` field, spelled out.
pub fn db_config(mode: ProcessingMode, durability: DurabilityLevel, dir: &Path) -> DbConfig {
    DbConfig {
        mode,
        isolation: IsolationLevel::Serializable,
        snapshot_every_commits: SNAPSHOT_EVERY,
        gc_interval: None,
        recycle_snapshot_areas: false,
        eager_materialization: false,
        os_huge_pages: false,
        scalar_scan: false,
        kernel: anker_vmem::KernelConfig::default(),
        backend: BackendKind::Os,
        durability,
        durability_dir: Some(dir.to_path_buf()),
        checkpoint_interval: None,
    }
}

/// Per-phase OLTP times, kept only in traced runs.
#[derive(Default)]
pub struct TxnTimes {
    pub begin: Samples,
    pub body: Samples,
    pub commit: Samples,
}

/// Run one OLTP transaction of a uniformly drawn template (Fig. 6). On
/// an abort the transaction is rolled back and the error returned.
pub fn oltp_once(
    t: &TpchDb,
    rng: &mut SmallRng,
    times: &mut TxnTimes,
    spans: &mut SpanLog,
    sample_span: bool,
) -> Result<(), DbError> {
    let kind = OltpKind::sample(rng);
    if !spans.on() {
        let mut txn = t.db.begin(TxnKind::Oltp);
        return match oltp::run_oltp_in(t, &mut txn, kind, rng) {
            Ok(()) => txn.commit().map(drop),
            Err(e) => {
                txn.abort();
                Err(e)
            }
        };
    }
    let t0 = Instant::now();
    let mut txn = t.db.begin(TxnKind::Oltp);
    let t1 = Instant::now();
    let body = oltp::run_oltp_in(t, &mut txn, kind, rng);
    let t2 = Instant::now();
    times.begin.push(t1 - t0);
    times.body.push(t2 - t1);
    if sample_span {
        spans.record("oltp.begin", t0, t1);
        spans.record("oltp.body", t1, t2);
    }
    if let Err(e) = body {
        txn.abort();
        return Err(e);
    }
    let res = txn.commit();
    let t3 = Instant::now();
    times.commit.push(t3 - t2);
    if sample_span {
        spans.record("oltp.commit", t2, t3);
    }
    res.map(drop)
}

/// A loaded database with its OLTP client state.
struct Loaded {
    t: TpchDb,
    rng: SmallRng,
    commits: u64,
    homo: bool,
    times: TxnTimes,
    spans: SpanLog,
    aborts: u64,
}

impl Loaded {
    /// One OLTP transaction of the stream, plus the homogeneous GC pass
    /// every [`GC_EVERY`] commits. Returns its latency (begin → commit
    /// returned).
    fn oltp(&mut self) -> Duration {
        let sample = self.commits.is_multiple_of(SPAN_SAMPLE);
        let t0 = Instant::now();
        let res = oltp_once(
            &self.t,
            &mut self.rng,
            &mut self.times,
            &mut self.spans,
            sample,
        );
        let lat = t0.elapsed();
        match res {
            Ok(()) => {
                self.commits += 1;
                if self.homo && self.commits.is_multiple_of(GC_EVERY) {
                    let g0 = Instant::now();
                    self.t.db.run_gc_once();
                    self.spans.record("gc", g0, Instant::now());
                }
            }
            Err(e) if oltp::is_abort(&e) => self.aborts += 1,
            Err(e) => panic!("OLTP transaction failed: {e}"),
        }
        lat
    }
}

/// The cold-start step: open an OLAP handle on the fresh database, commit
/// one OLTP write, then read the written column through the handle. The
/// handle's snapshot predates the write, so the read must return the
/// loaded value. `Ok(None)` = it did; `Ok(Some(why))` = the read failed
/// (panic or error); `Err` = it returned a wrong value.
fn cold_start(t: &TpchDb) -> Result<Option<String>, String> {
    let (table, col, row) = (t.lineitem, t.li.returnflag, 0);
    let mut olap = t.db.begin(TxnKind::Olap);
    let mut probe = t.db.begin(TxnKind::Oltp);
    let loaded = probe.get(table, col, row).map_err(|e| e.to_string())?;
    probe.abort();
    let mut w = t.db.begin(TxnKind::Oltp);
    w.update(table, col, row, (loaded + 1) % 3)
        .map_err(|e| format!("cold-start write: {e}"))?;
    w.commit().map_err(|e| format!("cold-start commit: {e}"))?;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let read = std::panic::catch_unwind(AssertUnwindSafe(|| olap.get(table, col, row)));
    std::panic::set_hook(hook);
    match read {
        Ok(Ok(v)) if v == loaded => {
            olap.commit().map_err(|e| e.to_string())?;
            Ok(None)
        }
        Ok(Ok(v)) => Err(format!(
            "cold-start read saw {v}, its snapshot holds {loaded}"
        )),
        Ok(Err(e)) => Ok(Some(format!("error: {e}"))),
        Err(payload) => Ok(Some(format!(
            "panic: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        ))),
    }
}

struct SetupTimes {
    load: Samples,
    warmup: Samples,
    total: Samples,
}

/// Load, cold-start step, warm-up. Returns the loaded stream and the
/// cold-start outcome.
fn setup(
    args: &RunArgs,
    plan: &Plan,
    mode: ProcessingMode,
    dir: &Path,
    spans: SpanLog,
    times: &mut SetupTimes,
) -> Result<(Loaded, Result<Option<String>, String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let t = gen::generate(
        db_config(mode, DurabilityLevel::Buffered, dir),
        &TpchConfig {
            scale_factor: plan.scale_factor,
            seed: args.seed,
        },
    );
    let t1 = Instant::now();
    let cold = cold_start(&t);
    let mut s = Loaded {
        t,
        rng: SmallRng::seed_from_u64(args.seed ^ 0x0517_7000),
        commits: 1,
        homo: mode == ProcessingMode::Homogeneous,
        times: TxnTimes::default(),
        spans,
        aborts: 0,
    };
    let t2 = Instant::now();
    for _ in 0..plan.warmup_commits {
        s.oltp();
    }
    let t3 = Instant::now();
    s.spans.record("setup.load", t0, t1);
    s.spans.record("setup.warmup", t2, t3);
    times.load.push(t1 - t0);
    times.warmup.push(t3 - t2);
    times.total.push(t3 - t0);
    s.times = TxnTimes::default();
    Ok((s, cold))
}

pub fn run(args: &RunArgs) -> Report {
    run_plan(args, &Plan::for_seconds(args.seconds)).0
}

/// Run the stream; also returns the final digest (for the self-test).
pub fn run_plan(args: &RunArgs, plan: &Plan) -> (Report, Digest) {
    let mode = match args.workload {
        Workload::HtapHetero => ProcessingMode::Heterogeneous,
        Workload::HtapHomo => ProcessingMode::Homogeneous,
    };
    let mut r = Report::default();
    let origin = Instant::now();
    let mut setup_times = SetupTimes {
        load: Samples::default(),
        warmup: Samples::default(),
        total: Samples::default(),
    };
    let dir = args.dir.join("db");
    let mut kept: Option<(Loaded, Result<Option<String>, String>)> = None;
    let mut spans = Some(SpanLog::new(args.trace, origin, 0));
    for rep in 0..plan.setups {
        if let Some((prev, _)) = kept.take() {
            spans = Some(prev.spans);
            drop(prev.t);
        }
        let log = spans.take().expect("span log handed back");
        match setup(args, plan, mode, &dir, log, &mut setup_times) {
            Ok(s) => kept = Some(s),
            Err(e) => {
                r.errors.push(format!("set-up {rep}: {e}"));
                return (r, Vec::new());
            }
        }
    }
    let (mut s, cold) = kept.expect("at least one set-up");
    r.attempted += 1;
    match cold {
        Ok(None) => {}
        Ok(Some(why)) => {
            r.failed += 1;
            r.notes.push(format!("cold-start step failed: {why}"));
        }
        Err(e) => r.errors.push(e),
    }

    // ---- timed phase ----
    let t = &s.t;
    let cols = check::lineitem_cols(t);
    let mut qrng = SmallRng::seed_from_u64(args.seed ^ 0x0A7A_1751);
    let mut oltp_lat = Samples::default();
    let mut per_q: [PerQuery; 4] = Default::default();
    let mut begin_lat = Samples::default();
    let mut check_time = Duration::ZERO;
    let mut checks = 0u64;
    let commits_before = s.commits;
    let aborts_before = s.aborts;
    let before = t.db.metrics();
    let start = Instant::now();
    for cycle in 0..plan.cycles {
        let qi = (cycle % 4) as usize;
        let q = olap::ROTATION[qi];
        let params = queries::sample_params(q, &mut qrng);
        let h0 = Instant::now();
        let handle = olap::open_handle(&s.t.db, q);
        let h1 = Instant::now();
        begin_lat.push(h1 - h0);
        s.spans.record("olap.begin", h0, h1);
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                r.errors
                    .push(format!("cycle {cycle}: opening the OLAP handle: {e}"));
                break;
            }
        };
        for _ in 0..plan.k {
            oltp_lat.push(s.oltp());
        }
        let verify = (cycle % plan.check_every < 4).then_some(plan.corrupt_answers);
        match olap::query_on(&s.t, handle, params, &cols, verify, &mut s.spans) {
            Ok(run) => {
                checks += u64::from(verify.is_some());
                check_time += run.check;
                per_q[qi].add(&run);
            }
            Err(e) => r.errors.push(format!("cycle {cycle}: {}: {e}", q.name())),
        }
    }
    let wall = start.elapsed().saturating_sub(check_time);
    let t = &s.t;
    let after = t.db.metrics();
    let rss = measure::rss_mb();
    let versions_end = t.db.total_versions();
    let disk = measure::dir_bytes(&dir);
    let d = Delta::new(before, after);
    let commits = s.commits - commits_before;
    let aborts = s.aborts - aborts_before;
    let queries_run: usize = per_q.iter().map(|p| p.lat.len()).sum();
    r.attempted += plan.cycles * plan.k + plan.cycles;
    r.failed += aborts + (plan.cycles - queries_run as u64);
    r.check(aborts == 0, || {
        format!("a single-client stream aborted {aborts} transactions")
    });
    r.check(checks > 0 || plan.cycles == 0, || {
        "no query was checked".into()
    });
    let wal_commits = d.counter("wal_commit_records_total");
    r.check(wal_commits == commits, || {
        format!("{wal_commits} commit records logged for {commits} acknowledged commits")
    });

    // ---- end-to-end ----
    r.e2e("setup_s", setup_times.total.s(0.5));
    r.e2e(
        "txn_per_s",
        (commits + queries_run as u64) as f64 / wall.as_secs_f64(),
    );
    r.e2e("oltp_p50_us", oltp_lat.us(0.5));
    r.e2e("oltp_p99_us", oltp_lat.windowed_us(0.99, TAIL_WINDOWS));
    r.layer("oltp_p999_us", oltp_lat.windowed_us(0.999, TAIL_WINDOWS));
    for (tag, qs) in QUERY_TAGS.iter().zip(&per_q) {
        r.e2e(&format!("olap_{tag}_ms"), qs.lat.ms(0.5));
    }
    r.e2e("rss_mb", rss);
    r.e2e("disk_mb", disk as f64 / 1e6);

    // ---- per-layer ----
    r.layer("tpch.load_s", setup_times.load.s(0.5));
    r.layer("tpch.warmup_s", setup_times.warmup.s(0.5));
    layer_txn(&mut r, &s.times, &d);
    r.layer("mvcc.versions_end", versions_end as f64);
    layer_engine(&mut r, &d, commits);
    r.layer("snap.olap_begin_us.p50", begin_lat.us(0.5));
    for (tag, qs) in QUERY_TAGS.iter().zip(&per_q) {
        layer_scan(&mut r, tag, &qs.scan);
    }
    if t.db.config().mode == ProcessingMode::Heterogeneous {
        r.layer("reader.morsels", per_q[3].scan.morsels as f64);
    }

    // ---- final state: digest, crash image, recovery ----
    let digest = check::db_digest(&t.db).unwrap_or_else(|e| {
        r.errors.push(format!("digest: {e}"));
        Vec::new()
    });
    for (col, v) in &digest {
        r.notes.push(format!("digest {col} {v:016x}"));
    }
    let image = args.dir.join("crash-image");
    if let Err(e) = measure::copy_dir(&dir, &image) {
        r.errors.push(format!("crash image: {e}"));
    }
    if plan.truncate_image {
        if let Err(e) = measure::truncate_newest_segment(&image) {
            r.errors.push(format!("truncating the crash image: {e}"));
        }
    }
    if mode == ProcessingMode::Heterogeneous {
        // One checkpoint of the final state, after the image is taken:
        // the dura layer's checkpoint cost at this scale (per-layer only).
        let k0 = Instant::now();
        match t.db.checkpoint() {
            Ok(_) => {
                let k1 = Instant::now();
                s.spans.record("ckpt", k0, k1);
                r.layer("ckpt.ms.p50", (k1 - k0).as_secs_f64() * 1e3);
                r.layer("ckpt.count", 1.0);
                let size = measure::newest_file(&dir, "ckpt-").map_or(0, measure::file_bytes);
                r.layer("ckpt.mb", size as f64 / 1e6);
            }
            Err(e) => r.errors.push(format!("checkpoint: {e}")),
        }
    }
    let config = s.t.db.config().clone();
    drop(s.t);
    let mut rec = Samples::default();
    for i in 0..plan.recoveries {
        let copy = args.dir.join(format!("recovered-{i}"));
        if let Err(e) = measure::copy_dir(&image, &copy) {
            r.errors.push(format!("crash image copy: {e}"));
            break;
        }
        let r0 = Instant::now();
        let db = AnkerDb::open(
            &copy,
            DbConfig {
                durability_dir: Some(copy.clone()),
                ..config.clone()
            },
        );
        let r1 = Instant::now();
        s.spans.record("recover", r0, r1);
        rec.push(r1 - r0);
        match db {
            Ok(db) if i == 0 => {
                let replayed = db.recovery_report().map_or(0, |x| x.commits_replayed);
                r.layer("recovery.commits_replayed", replayed as f64);
                // Every acknowledged commit of the run (cold-start write,
                // warm-up, stream) is in the image, and replaying it
                // rebuilds the pre-crash state.
                r.check(replayed == s.commits, || {
                    format!("recovery replayed {replayed} commits of {}", s.commits)
                });
                match check::db_digest(&db) {
                    Ok(post) => {
                        if let Some(diff) = check::digest_diff(&digest, &post) {
                            r.errors
                                .push(format!("the crash image reopened to another state: {diff}"));
                        }
                    }
                    Err(e) => r.errors.push(format!("digest after recovery: {e}")),
                }
            }
            Ok(_) => {}
            Err(e) => r.errors.push(format!("recovery: {e}")),
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    r.e2e("recover_s", rec.s(0.5));
    r.notes.push(format!(
        "plan: cycles={} k={} warmup_commits={} snapshot_every={} gc_every={} \
         scan_threads={} backend=os durability=buffered checks={checks} timed_wall_s={:.3} \
         recovered_from={:.1}MB",
        plan.cycles,
        plan.k,
        plan.warmup_commits,
        SNAPSHOT_EVERY,
        if mode == ProcessingMode::Homogeneous {
            GC_EVERY
        } else {
            0
        },
        SCAN_THREADS,
        wall.as_secs_f64(),
        measure::dir_bytes(&image) as f64 / 1e6,
    ));
    crate::write_trace(args, &s.spans, &mut r);
    (r, digest)
}

/// `txn.*` and `commit.*` per-layer metrics.
pub fn layer_txn(r: &mut Report, times: &TxnTimes, d: &Delta) {
    r.layer("txn.begin_us.p50", times.begin.us(0.5));
    r.layer("txn.body_us.p50", times.body.us(0.5));
    r.layer("txn.body_us.p99", times.body.us(0.99));
    r.layer("txn.commit_us.p50", times.commit.us(0.5));
    r.layer("txn.commit_us.p99", times.commit.us(0.99));
    r.layer("txn.commit_us.p999", times.commit.us(0.999));
    for stage in ["latch", "validate", "wal", "install"] {
        let h = format!("commit_stage_{stage}_ns");
        r.layer(&format!("commit.{stage}_us.p50"), d.hist_us(&h, 0.5));
    }
    r.layer(
        "commit.install_us.p99",
        d.hist_us("commit_stage_install_ns", 0.99),
    );
}

/// Counter-delta per-layer metrics shared by both workloads.
pub fn layer_engine(r: &mut Report, d: &Delta, commits: u64) {
    let c = |n: &str| d.counter(n) as f64;
    r.layer("gc.pass_ms.p50", d.hist_us("gc_pass_ns", 0.5) / 1e3);
    r.layer("gc.passes", c("db_gc_passes_total"));
    r.layer("gc.versions_collected", c("db_versions_collected_total"));
    r.layer("snap.epochs_triggered", c("db_epochs_triggered_total"));
    r.layer("snap.epochs_retired", c("db_epochs_retired_total"));
    r.layer(
        "snap.columns_materialized",
        c("db_columns_materialized_total"),
    );
    r.layer(
        "snap.materialize_us.p50",
        d.hist_us("snapshot_materialize_ns", 0.5),
    );
    r.layer(
        "snap.materialize_us.p99",
        d.hist_us("snapshot_materialize_ns", 0.99),
    );
    r.layer("snap.rewire_us.p50", d.hist_us("snapshot_rewire_ns", 0.5));
    r.layer("snap.pages_rewired", c("snapshot_pages_rewired_total"));
    r.layer("vmem.snapshots", c("os_snapshots_total"));
    r.layer("vmem.cow_copies", c("os_cow_copies_total"));
    r.layer(
        "vmem.cow_per_commit",
        c("os_cow_copies_total") / commits.max(1) as f64,
    );
    r.layer("scan.morsel_us.p50", d.hist_us("scan_morsel_ns", 0.5));
    let wal_commits = c("wal_commit_records_total");
    r.layer(
        "wal.bytes_per_commit",
        c("wal_bytes_appended_total") / wal_commits.max(1.0),
    );
    r.layer("wal.mb", c("wal_bytes_appended_total") / 1e6);
}

/// `mvcc.*.<q>` and `scan.<q>.*` from the scans' own statistics.
pub fn layer_scan(r: &mut Report, tag: &str, s: &ScanStats) {
    r.layer(&format!("mvcc.chain_walks.{tag}"), s.chain_walks as f64);
    r.layer(&format!("mvcc.checked_rows.{tag}"), s.checked_rows as f64);
    r.layer(
        &format!("scan.{tag}.rows"),
        (s.tight_rows + s.checked_rows) as f64,
    );
    r.layer(
        &format!("scan.{tag}.blocks_skipped"),
        s.blocks_skipped as f64,
    );
    r.layer(&format!("scan.{tag}.vector_blocks"), s.vector_blocks as f64);
    r.layer(&format!("scan.{tag}.dense_blocks"), s.dense_blocks as f64);
    r.layer(&format!("scan.{tag}.rows_filtered"), s.rows_filtered as f64);
}
