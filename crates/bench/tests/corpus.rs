//! The corpus harness's own contracts: a fixed seed reproduces the
//! timing-free payload byte-for-byte across job counts and reruns, and
//! the quick sweep over the checked-in corpus meets the acceptance
//! floor with zero red rows.

use std::path::PathBuf;
use symbi_bench::corpus::{corpus_fingerprint, corpus_rows, CorpusOptions};

fn seed_corpus_dir() -> PathBuf {
    // The checked-in seed corpus lives at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn corpus_payload_is_identical_across_job_counts_and_reruns() {
    // Generated pool only: the determinism contract is about the
    // engine, and the smaller grid keeps four debug-mode sweeps cheap.
    let options = |jobs| CorpusOptions { quick: true, jobs, seed: 0xD15C, corpus_dir: None };
    let one = corpus_rows(&options(1)).expect("sweep runs");
    let fp = corpus_fingerprint(&one);
    for jobs in [2, 8] {
        let report = corpus_rows(&options(jobs)).expect("sweep runs");
        assert_eq!(
            corpus_fingerprint(&report),
            fp,
            "payload diverged at jobs={jobs}"
        );
    }
    let rerun = corpus_rows(&options(1)).expect("sweep runs");
    assert_eq!(corpus_fingerprint(&rerun), fp, "payload diverged across reruns");
    assert!(one.red_rows() == 0, "generated pool must sweep green");
}

#[test]
fn quick_sweep_meets_the_acceptance_floor() {
    let options = CorpusOptions {
        quick: true,
        jobs: 2,
        corpus_dir: Some(seed_corpus_dir()),
        ..Default::default()
    };
    let report = corpus_rows(&options).expect("sweep runs");
    assert!(report.rows.len() >= 30, "only {} rows", report.rows.len());
    assert!(
        report.aiger_circuits >= 5,
        "only {} parsed-AIGER circuits",
        report.aiger_circuits
    );
    assert_eq!(report.sec_mismatches(), 0);
    assert_eq!(report.backend_disagreements(), 0);
    assert_eq!(report.non_reproducible(), 0);
    assert_eq!(report.red_rows(), 0);
    // Every circuit×tier×backend cell is present exactly once.
    assert_eq!(report.rows.len(), report.circuits * 2 * 2);
}
