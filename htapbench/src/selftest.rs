//! `--self-test`: run both workloads at a tiny scale, then show that
//! every output check fails when it is fed a corrupted result — a
//! perturbed query value, a flipped digest word, and a crash image whose
//! newest WAL segment is cut short past an acknowledged commit.

use crate::check::{self, Digest};
use crate::{htap, in_run_dir, Report, RunArgs, Workload};

fn args(workload: Workload) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 1,
        trace: false,
        dir: crate::run_dir(workload, "selftest"),
    }
}

fn htap_plan(corrupt_answers: bool, truncate_image: bool) -> htap::Plan {
    htap::Plan {
        scale_factor: 0.02,
        cycles: 8,
        k: 500,
        check_every: 4,
        setups: 1,
        recoveries: 1,
        corrupt_answers,
        truncate_image,
        ..htap::Plan::for_seconds(1)
    }
}

fn htap_run(w: Workload, corrupt: bool, truncate: bool) -> (Report, Digest) {
    let a = args(w);
    in_run_dir(&a, || htap::run_plan(&a, &htap_plan(corrupt, truncate)))
}

/// Print one self-test verdict; true when it holds.
fn verdict(what: &str, holds: bool, detail: &[String]) -> bool {
    println!("{} {what}", if holds { "ok  " } else { "FAIL" });
    for d in detail.iter().take(3) {
        println!("       {d}");
    }
    holds
}

pub fn run() -> i32 {
    let mut all = true;
    let (hetero, hetero_digest) = htap_run(Workload::HtapHetero, false, false);
    all &= verdict(
        "htap_hetero passes its checks",
        hetero.errors.is_empty(),
        &hetero.errors,
    );
    all &= verdict(
        "htap_hetero counts the cold-start step (1 attempted, 0 or 1 failed)",
        hetero.failed <= 1 && hetero.attempted > 1,
        &hetero.notes[..1.min(hetero.notes.len())],
    );
    let (homo, homo_digest) = htap_run(Workload::HtapHomo, false, false);
    all &= verdict(
        "htap_homo passes its checks",
        homo.errors.is_empty(),
        &homo.errors,
    );
    all &= verdict(
        "htap_homo's cold-start step succeeds",
        homo.failed == 0,
        &[],
    );
    let diff = check::digest_diff(&hetero_digest, &homo_digest);
    all &= verdict(
        "hetero and homo digests agree for one seed",
        diff.is_none() && !hetero_digest.is_empty(),
        &diff.into_iter().collect::<Vec<_>>(),
    );

    let (bad, _) = htap_run(Workload::HtapHetero, true, false);
    let caught = bad.errors.iter().any(|e| e.contains("differs"));
    all &= verdict(
        "a perturbed query value fails the reference check",
        caught,
        &bad.errors,
    );
    let mut flipped = homo_digest.clone();
    if let Some(first) = flipped.first_mut() {
        first.1 ^= 1 << 17;
    }
    let diff = check::digest_diff(&hetero_digest, &flipped);
    all &= verdict(
        "a flipped digest word fails the digest comparison",
        diff.is_some(),
        &diff.into_iter().collect::<Vec<_>>(),
    );
    let (cut, _) = htap_run(Workload::HtapHomo, false, true);
    let caught = cut.errors.iter().any(|e| e.contains("another state"));
    all &= verdict(
        "htap_homo: a truncated crash image fails the recovery check",
        caught,
        &cut.errors,
    );

    println!("self-test: {}", if all { "OK" } else { "FAILED" });
    i32::from(!all)
}
