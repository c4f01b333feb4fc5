//! Output checks that do not trust the engine.
//!
//! The reference answers here are recomputed row by row from point reads
//! through the query's own handle (`Txn::get` or `SnapshotReader::get`),
//! so they bypass the scan kernels, zone maps, morsel merge and index
//! probes the measured queries go through. The predicates are restated
//! from the TPC-H definitions, not borrowed from `anker_tpch::queries`.

use anker_core::{AnkerDb, ColumnId, Result, SnapshotReader, TableId, Txn, TxnKind, Value};
use anker_tpch::gen::days;
use anker_tpch::queries::{OlapParams, OlapResult, Q1Row};
use anker_tpch::TpchDb;
use std::collections::HashMap;

/// Relative tolerance for floating-point sums summed in another order.
pub const REL_TOL: f64 = 1e-9;

/// A handle that serves point reads at its snapshot.
pub trait PointRead {
    fn word(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<u64>;

    fn double(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<f64> {
        Ok(f64::from_bits(self.word(table, col, row)?))
    }

    fn int(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<i64> {
        Ok(self.word(table, col, row)? as i64)
    }
}

impl PointRead for Txn {
    fn word(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<u64> {
        self.get(table, col, row)
    }
}

impl PointRead for &SnapshotReader {
    fn word(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<u64> {
        self.get(table, col, row)
    }
}

/// A query's answer in a form both the engine path and the reference
/// produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Q1(Vec<Q1Row>),
    Revenue(f64),
    /// Full scan: rows seen and an order-independent digest of every word.
    Scan {
        rows: u64,
        digest: u64,
    },
}

impl Answer {
    pub fn from_olap(r: OlapResult) -> Answer {
        match r {
            OlapResult::Q1(rows) => Answer::Q1(rows),
            OlapResult::Revenue(v) => Answer::Revenue(v),
            other => panic!("the stream never runs a query answering {other:?}"),
        }
    }

    /// Perturb the answer slightly (self-test of the comparison).
    pub fn perturbed(&self) -> Answer {
        match self {
            Answer::Q1(rows) => {
                let mut rows = rows.clone();
                rows[0].sum_charge *= 1.0 + 1e-6;
                Answer::Q1(rows)
            }
            Answer::Revenue(v) => Answer::Revenue(v * (1.0 + 1e-6) + 1e-3),
            Answer::Scan { rows, digest } => Answer::Scan {
                rows: *rows,
                digest: digest ^ 1,
            },
        }
    }
}

/// Word contribution of one scanned value to [`Answer::Scan`]'s digest:
/// cheap enough to fold inside the timed scan, sensitive to the row a
/// word sits in and to its column.
#[inline]
pub fn scan_term(row: u32, col: usize, word: u64) -> u64 {
    (word ^ u64::from(row) << 8 ^ col as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15 | (col as u64) << 1)
}

/// A strong 64-bit mix (splitmix64 finaliser) for the table digests.
pub fn mix(row: u32, col: usize, word: u64) -> u64 {
    let mut z = word ^ (u64::from(row) << 20 | col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rel_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Compare an engine answer with the reference: counts exactly, float
/// sums to [`REL_TOL`].
pub fn compare(got: &Answer, want: &Answer) -> std::result::Result<(), String> {
    match (got, want) {
        (Answer::Q1(g), Answer::Q1(w)) => {
            if g.len() != w.len() {
                return Err(format!("Q1: {} groups, reference {}", g.len(), w.len()));
            }
            for (a, b) in g.iter().zip(w) {
                let keys = (a.returnflag, a.linestatus) == (b.returnflag, b.linestatus);
                let sums = [
                    (a.sum_qty, b.sum_qty),
                    (a.sum_base_price, b.sum_base_price),
                    (a.sum_disc_price, b.sum_disc_price),
                    (a.sum_charge, b.sum_charge),
                    (a.avg_qty, b.avg_qty),
                    (a.avg_price, b.avg_price),
                    (a.avg_disc, b.avg_disc),
                ];
                if !keys || a.count != b.count || !sums.iter().all(|&(x, y)| rel_eq(x, y)) {
                    return Err(format!("Q1 group differs: {a:?} vs reference {b:?}"));
                }
            }
            Ok(())
        }
        (Answer::Revenue(g), Answer::Revenue(w)) if rel_eq(*g, *w) => Ok(()),
        (Answer::Scan { .. }, Answer::Scan { .. }) if got == want => Ok(()),
        _ => Err(format!("answer {got:?} differs from reference {want:?}")),
    }
}

/// Recompute `params` from point reads through `h`.
pub fn reference(t: &TpchDb, h: &mut impl PointRead, params: OlapParams) -> Result<Answer> {
    match params {
        OlapParams::Q1 { delta_days } => ref_q1(t, h, delta_days),
        OlapParams::Q6 {
            year,
            discount,
            qty,
        } => ref_q6(t, h, year, discount, qty),
        OlapParams::Q17 { brand, container } => ref_q17(t, h, brand, container),
        OlapParams::Scan(_) => ref_scan(t, h),
        OlapParams::Q4 { .. } => unreachable!("Q4 is not in the stream's rotation"),
    }
}

/// TPC-H Q1: `l_shipdate <= 1998-12-01 - delta`, grouped by
/// (returnflag, linestatus).
fn ref_q1(t: &TpchDb, h: &mut impl PointRead, delta_days: i32) -> Result<Answer> {
    let li = &t.li;
    let cutoff = i64::from(days(1998, 12, 1) - delta_days);
    // (qty, base, disc_price, charge, disc, count) per (rf, ls).
    let mut groups = [(0.0, 0.0, 0.0, 0.0, 0.0, 0u64); 6];
    for row in 0..t.db.rows(t.lineitem) {
        if h.int(t.lineitem, li.shipdate, row)? > cutoff {
            continue;
        }
        let rf = h.word(t.lineitem, li.returnflag, row)? as usize;
        let ls = h.word(t.lineitem, li.linestatus, row)? as usize;
        let qty = h.double(t.lineitem, li.quantity, row)?;
        let price = h.double(t.lineitem, li.extendedprice, row)?;
        let disc = h.double(t.lineitem, li.discount, row)?;
        let tax = h.double(t.lineitem, li.tax, row)?;
        let g = &mut groups[rf * 2 + ls];
        g.0 += qty;
        g.1 += price;
        g.2 += price * (1.0 - disc);
        g.3 += price * (1.0 - disc) * (1.0 + tax);
        g.4 += disc;
        g.5 += 1;
    }
    let mut rows = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        if g.5 == 0 {
            continue;
        }
        let n = g.5 as f64;
        rows.push(Q1Row {
            returnflag: (i / 2) as u32,
            linestatus: (i % 2) as u32,
            sum_qty: g.0,
            sum_base_price: g.1,
            sum_disc_price: g.2,
            sum_charge: g.3,
            avg_qty: g.0 / n,
            avg_price: g.1 / n,
            avg_disc: g.4 / n,
            count: g.5,
        });
    }
    Ok(Answer::Q1(rows))
}

/// TPC-H Q6: shipdate within the year, discount within ±0.01 of
/// `discount`, quantity below `qty`; revenue = Σ price × discount.
fn ref_q6(
    t: &TpchDb,
    h: &mut impl PointRead,
    year: i32,
    discount: f64,
    qty: f64,
) -> Result<Answer> {
    let li = &t.li;
    let (lo, hi) = (i64::from(days(year, 1, 1)), i64::from(days(year + 1, 1, 1)));
    let (dlo, dhi) = (discount - 0.01 - 1e-9, discount + 0.01 + 1e-9);
    let mut revenue = 0.0;
    for row in 0..t.db.rows(t.lineitem) {
        let ship = h.int(t.lineitem, li.shipdate, row)?;
        if ship < lo || ship >= hi {
            continue;
        }
        let d = h.double(t.lineitem, li.discount, row)?;
        if d < dlo || d > dhi || h.double(t.lineitem, li.quantity, row)? >= qty {
            continue;
        }
        revenue += h.double(t.lineitem, li.extendedprice, row)? * d;
    }
    Ok(Answer::Revenue(revenue))
}

/// TPC-H Q17: for parts of one brand and container, Σ price of the
/// lineitems whose quantity is below 20 % of the part's mean quantity,
/// divided by 7. Lineitems are grouped by reading `l_partkey` row by row
/// instead of probing the partkey index.
fn ref_q17(t: &TpchDb, h: &mut impl PointRead, brand: u32, container: u32) -> Result<Answer> {
    let mut parts: HashMap<i64, Vec<(f64, f64)>> = HashMap::new();
    for row in 0..t.db.rows(t.part) {
        if h.word(t.part, t.prt.brand, row)? == u64::from(brand)
            && h.word(t.part, t.prt.container, row)? == u64::from(container)
        {
            parts.insert(h.int(t.part, t.prt.partkey, row)?, Vec::new());
        }
    }
    let li = &t.li;
    for row in 0..t.db.rows(t.lineitem) {
        let pk = h.int(t.lineitem, li.partkey, row)?;
        if let Some(lines) = parts.get_mut(&pk) {
            lines.push((
                h.double(t.lineitem, li.quantity, row)?,
                h.double(t.lineitem, li.extendedprice, row)?,
            ));
        }
    }
    let mut keys: Vec<i64> = parts.keys().copied().collect();
    keys.sort_unstable();
    let mut total = 0.0;
    for pk in keys {
        let lines = &parts[&pk];
        if lines.is_empty() {
            continue;
        }
        let mean = lines.iter().map(|l| l.0).sum::<f64>() / lines.len() as f64;
        total += lines
            .iter()
            .filter(|l| l.0 < 0.2 * mean)
            .map(|l| l.1)
            .sum::<f64>();
    }
    Ok(Answer::Revenue(total / 7.0))
}

/// Every column of LINEITEM, in schema order.
pub fn lineitem_cols(t: &TpchDb) -> Vec<ColumnId> {
    t.db.schema(t.lineitem).iter().map(|(id, _)| id).collect()
}

fn ref_scan(t: &TpchDb, h: &mut impl PointRead) -> Result<Answer> {
    let cols = lineitem_cols(t);
    let rows = t.db.rows(t.lineitem);
    let mut digest = 0u64;
    for row in 0..rows {
        for (i, &c) in cols.iter().enumerate() {
            digest = digest.wrapping_add(scan_term(row, i, h.word(t.lineitem, c, row)?));
        }
    }
    Ok(Answer::Scan {
        rows: u64::from(rows),
        digest,
    })
}

/// One digest per column of every table: `(table.column, digest)`.
pub type Digest = Vec<(String, u64)>;

/// Digest every column of every table as of now. The reads run in an
/// OLTP transaction that is rolled back: a heterogeneous OLAP transaction
/// would read the newest snapshot epoch, which may trail the last commit.
pub fn db_digest(db: &AnkerDb) -> Result<Digest> {
    let mut txn = db.begin(TxnKind::Oltp);
    let mut out = Vec::new();
    for name in ["lineitem", "orders", "part"] {
        let table = db.table_id(name).expect("TPC-H table present");
        let schema = db.schema(table);
        let cols: Vec<ColumnId> = schema.iter().map(|(id, _)| id).collect();
        let (sums, _) = txn.scan_on(table).project(&cols).fold(
            vec![0u64; cols.len()],
            |mut acc, row, vals: &[Value]| {
                for (i, v) in vals.iter().enumerate() {
                    acc[i] = acc[i].wrapping_add(mix(row, i, v.encode()));
                }
                acc
            },
        )?;
        for ((_, def), d) in schema.iter().zip(sums) {
            out.push((format!("{name}.{}", def.name), d));
        }
    }
    txn.abort();
    Ok(out)
}

/// First column whose digest differs, if any.
pub fn digest_diff(a: &Digest, b: &Digest) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} columns vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{} {:016x} vs {} {:016x}", x.0, x.1, y.0, y.1))
}
