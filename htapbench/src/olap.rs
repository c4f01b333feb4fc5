//! The analyst side: open a handle, run one query on it, check the
//! answer against the point-read reference, commit.

use crate::check::{self, Answer};
use crate::measure::{Samples, SpanLog};
use anker_core::{
    AnkerDb, ColumnId, DbError, ProcessingMode, ScanStats, SnapshotReader, Txn, TxnKind,
};
use anker_tpch::queries::{self, OlapParams};
use anker_tpch::{OlapQuery, TpchDb};
use std::time::{Duration, Instant};

/// Morsel workers of the heterogeneous full scan. One, so that every
/// query runs on one CPU like the rest of the stream: with two workers the
/// scan's time followed how many CPUs the shared host gave the process
/// (26 - 34 ms with two, 62 - 69 ms with one, changing within the hour).
pub const SCAN_THREADS: usize = 1;

/// The query rotation; metric tags are [`crate::QUERY_TAGS`] in the same
/// order.
pub const ROTATION: [OlapQuery; 4] = [
    OlapQuery::Q1,
    OlapQuery::Q6,
    OlapQuery::Q17,
    OlapQuery::ScanLineitem,
];
const QUERY_SPANS: [&str; 4] = ["olap.q1", "olap.q6", "olap.q17", "olap.scan"];

/// The analyst's handle: an OLAP transaction, or for the heterogeneous
/// full scan a detached snapshot reader.
pub enum Handle {
    Txn(Box<Txn>),
    Reader(SnapshotReader),
}

pub fn open_handle(db: &AnkerDb, q: OlapQuery) -> Result<Handle, DbError> {
    if q == OlapQuery::ScanLineitem && db.config().mode == ProcessingMode::Heterogeneous {
        db.snapshot_reader().map(Handle::Reader)
    } else {
        Ok(Handle::Txn(Box::new(db.begin(TxnKind::Olap))))
    }
}

fn scan_fold(acc: (u64, u64), row: u32, vals: &[anker_core::Value]) -> (u64, u64) {
    let mut d = acc.1;
    for (i, v) in vals.iter().enumerate() {
        d = d.wrapping_add(check::scan_term(row, i, v.encode()));
    }
    (acc.0 + 1, d)
}

fn run_query(
    t: &TpchDb,
    h: &mut Handle,
    p: OlapParams,
    cols: &[ColumnId],
) -> Result<(Answer, ScanStats), DbError> {
    let ((rows, digest), stats) = match (h, p) {
        (Handle::Reader(r), OlapParams::Scan(_)) => r
            .scan(t.lineitem)
            .project(cols)
            .parallel(SCAN_THREADS)
            .fold((0, 0), scan_fold, |a, b| (a.0 + b.0, a.1.wrapping_add(b.1)))?,
        (Handle::Txn(txn), OlapParams::Scan(_)) => txn
            .scan_on(t.lineitem)
            .project(cols)
            .fold((0, 0), scan_fold)?,
        (Handle::Txn(txn), p) => {
            let res = queries::run_olap(t, txn, p)?;
            return Ok((Answer::from_olap(res), txn.scan_stats()));
        }
        (Handle::Reader(_), _) => unreachable!("readers only serve the full scan"),
    };
    Ok((Answer::Scan { rows, digest }, stats))
}

fn reference(t: &TpchDb, h: &mut Handle, p: OlapParams) -> Result<Answer, DbError> {
    match h {
        Handle::Txn(txn) => check::reference(t, &mut **txn, p),
        Handle::Reader(r) => check::reference(t, &mut &*r, p),
    }
}

fn finish(h: Handle) -> Result<(), DbError> {
    match h {
        Handle::Txn(txn) => txn.commit().map(drop),
        Handle::Reader(r) => {
            drop(r);
            Ok(())
        }
    }
}

/// One query's measurements.
pub struct QueryRun {
    /// Query call → commit returned, the reference check excluded.
    pub lat: Duration,
    pub stats: ScanStats,
    /// Time spent on the reference check.
    pub check: Duration,
}

/// Run `params` on `handle`, optionally verify it (`verify = Some(corrupt)`;
/// `corrupt` perturbs the engine's answer first, for the self-test), and
/// commit. A full scan must also see every row of LINEITEM.
pub fn query_on(
    t: &TpchDb,
    mut handle: Handle,
    params: OlapParams,
    cols: &[ColumnId],
    verify: Option<bool>,
    spans: &mut SpanLog,
) -> Result<QueryRun, String> {
    let qi = match params {
        OlapParams::Q1 { .. } => 0,
        OlapParams::Q6 { .. } => 1,
        OlapParams::Q17 { .. } => 2,
        _ => 3,
    };
    let q0 = Instant::now();
    let res = run_query(t, &mut handle, params, cols);
    let q1 = Instant::now();
    spans.record(QUERY_SPANS[qi], q0, q1);
    let (answer, stats) = res.map_err(|e| e.to_string())?;
    if let Answer::Scan { rows, .. } = answer {
        let want = u64::from(t.db.rows(t.lineitem));
        if rows != want {
            return Err(format!("the scan saw {rows} rows of {want}"));
        }
    }
    if let Some(corrupt) = verify {
        let got = if corrupt { answer.perturbed() } else { answer };
        let want = reference(t, &mut handle, params).map_err(|e| format!("reference read: {e}"))?;
        check::compare(&got, &want)?;
    }
    let q2 = Instant::now();
    spans.record("check", q1, q2);
    let fin = finish(handle);
    let q3 = Instant::now();
    spans.record("olap.commit", q2, q3);
    fin.map_err(|e| format!("OLAP commit: {e}"))?;
    Ok(QueryRun {
        lat: (q1 - q0) + (q3 - q2),
        stats,
        check: q2 - q1,
    })
}

/// Latencies and summed scan statistics of one query type.
#[derive(Default)]
pub struct PerQuery {
    pub lat: Samples,
    pub scan: ScanStats,
}

impl PerQuery {
    pub fn add(&mut self, run: &QueryRun) {
        self.lat.push(run.lat);
        self.scan.merge(&run.stats);
    }
}
