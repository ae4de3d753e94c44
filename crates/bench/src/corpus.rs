//! Corpus-scale differential harness (`repro corpus`, `BENCH_corpus.json`).
//!
//! The paper's claims are *quality* claims — area/depth wins over a
//! baseline flow on sequential circuits — so a perf-only benchmark can
//! green-light a regression that quietly worsens every result table.
//! This harness turns a corpus of circuits (a deterministic generator
//! pool plus any AIGER files from a corpus directory) into a grid of
//! differential cells: every circuit runs through the full symbolic
//! flow *and* a greedy baseline, across the `{bdd, sat}`
//! decomposability backends and two budget tiers, and every cell is
//! audited four ways:
//!
//! - **SEC cross-check**: both the optimized and the baseline netlist
//!   are bounded-equivalence-checked against the original. A mismatch
//!   is a soundness bug, full stop.
//! - **Backend agreement**: at the unlimited tier no decomposability
//!   check can trip its budget, so the rescue rung never fires and both
//!   backends must emit byte-identical netlists (see
//!   [`symbi_core::recursive::DecBackend`]). The tight tier has no
//!   agreement contract: the pure-BDD ladder has no rescue rung, so it
//!   may degrade where the SAT backend recovers.
//! - **Swept-arm cross-check**: every cell also runs the same flow with
//!   the FRAIG-style SAT-sweeping pre-pass on
//!   ([`SynthesisOptions::sweep`]) and records its area/depth/runtime
//!   deltas; the swept netlist is bounded-equivalence-checked directly
//!   against the *unswept* arm, so a mis-merge cannot hide behind the
//!   original-vs-optimized checks.
//! - **Reproducibility**: every optimize cell is double-run and must
//!   reproduce its netlist byte-for-byte along with its skip/rescue
//!   counters (each cell runs at `jobs = 1`, the configuration the
//!   flow documents as bit-deterministic; `--jobs` parallelism lives
//!   *across* cells, so the report payload is identical for every job
//!   count).
//!
//! A row failing any audit is a *red row*; [`CorpusReport::red_rows`]
//! drives the `repro corpus` exit code and the CI gate. Timing fields
//! are excluded from [`corpus_fingerprint`], which is the byte string
//! the determinism tests compare across job counts and reruns.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use symbi_core::recursive::{DecBackend, PartitionStrategy};
use symbi_netlist::{aiger, bench, sec, stats, Netlist};
use symbi_synth::flow::{optimize, SynthesisOptions};

use crate::two_block_cones;

/// Options for [`corpus_rows`].
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Trim the generated pool and the SEC bound for CI latency.
    pub quick: bool,
    /// Worker threads *across* cells (each cell itself runs `jobs = 1`).
    pub jobs: usize,
    /// Seed for the generated circuit pool.
    pub seed: u64,
    /// Directory of `.aag`/`.aig` files to parse into the corpus;
    /// `None` runs the generated pool alone.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions { quick: false, jobs: 1, seed: 0xC0DE_C0DE, corpus_dir: None }
    }
}

/// The per-candidate step budget of the tight tier: low enough to trip
/// the symbolic partition search on the rescue family, high enough that
/// tiny cones still finish.
const TIGHT_STEPS: u64 = 512;

/// The two budget tiers every circuit×backend pair sweeps.
const TIERS: [(&str, u64); 2] = [("unlimited", u64::MAX), ("tight", TIGHT_STEPS)];

/// The two decomposability backends.
const BACKENDS: [DecBackend; 2] = [DecBackend::Bdd, DecBackend::Sat];

/// One differential cell of the corpus grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRow {
    /// Circuit name (generator name or corpus file name).
    pub circuit: String,
    /// `"generated"` or `"aiger"`.
    pub source: String,
    /// Decomposability backend (`bdd` / `sat`).
    pub backend: String,
    /// Budget tier (`unlimited` / `tight`).
    pub budget: String,
    /// and/inv size and depth of the original circuit.
    pub orig_ands: usize,
    pub orig_depth: usize,
    /// and/inv size and depth after the greedy baseline flow.
    pub base_ands: usize,
    pub base_depth: usize,
    /// and/inv size and depth after the symbolic flow.
    pub opt_ands: usize,
    pub opt_depth: usize,
    /// and/inv size and depth after the symbolic flow with the
    /// SAT-sweeping pre-pass on.
    pub swept_ands: usize,
    pub swept_depth: usize,
    /// Equivalences the sweeping pre-pass proved and merged.
    pub sweep_merges: usize,
    /// The sweeping pre-pass ran out of resources and degraded.
    pub sweep_degraded: bool,
    /// Candidates whose budget ran out (kept their original cones).
    pub skipped: usize,
    /// Budget-tripped checks the rescue rung saved.
    pub rescued: usize,
    /// Degradation-ladder steps taken.
    pub fallbacks: usize,
    /// Bounded-SEC frames checked.
    pub sec_frames: usize,
    /// Optimized netlist bounded-equivalent to the original.
    pub sec_ok: bool,
    /// Baseline netlist bounded-equivalent to the original.
    pub base_sec_ok: bool,
    /// Swept netlist bounded-equivalent to the *unswept* optimized
    /// netlist — the direct swept-vs-unswept cross-check.
    pub swept_sec_ok: bool,
    /// Double-run emitted identical bytes and counters.
    pub reproducible: bool,
    /// Backend-agreement verdict (always `true` where the contract
    /// does not apply; see the module docs for where it does).
    pub backend_agrees: bool,
    /// FNV-1a of the optimized netlist's `.bench` serialization — the
    /// cross-backend/longitudinal identity of the result.
    pub opt_hash: u64,
    /// Wall-clock seconds for the cell (excluded from the fingerprint).
    pub seconds: f64,
    /// Wall-clock seconds of the unswept and swept optimize arms
    /// (excluded from the fingerprint); their difference is the cell's
    /// sweep runtime delta.
    pub opt_seconds: f64,
    pub swept_seconds: f64,
}

impl CorpusRow {
    /// Optimized area over baseline area (< 1 = the paper's win).
    pub fn area_ratio(&self) -> f64 {
        self.opt_ands as f64 / (self.base_ands as f64).max(1.0)
    }

    /// Optimized depth over baseline depth.
    pub fn depth_ratio(&self) -> f64 {
        self.opt_depth as f64 / (self.base_depth as f64).max(1.0)
    }

    /// Swept area over unswept area (< 1 = the pre-pass's win).
    pub fn sweep_area_ratio(&self) -> f64 {
        self.swept_ands as f64 / (self.opt_ands as f64).max(1.0)
    }

    /// Does this row fail any audit?
    pub fn red(&self) -> bool {
        !self.sec_ok
            || !self.base_sec_ok
            || !self.swept_sec_ok
            || !self.reproducible
            || !self.backend_agrees
    }
}

/// The whole corpus sweep: rows plus summary counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusReport {
    /// Seed the generated pool used.
    pub seed: u64,
    /// Whether the quick trim was applied.
    pub quick: bool,
    /// Circuits in the corpus, and how many came from AIGER files.
    pub circuits: usize,
    pub aiger_circuits: usize,
    /// One row per circuit × tier × backend cell.
    pub rows: Vec<CorpusRow>,
    /// Total wall-clock seconds (excluded from the fingerprint).
    pub seconds: f64,
}

impl CorpusReport {
    /// Rows with a failed SEC verdict (any arm, including the
    /// swept-vs-unswept cross-check).
    pub fn sec_mismatches(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| !r.sec_ok || !r.base_sec_ok || !r.swept_sec_ok)
            .count()
    }

    /// Total equivalences the sweeping pre-pass merged across the grid.
    pub fn sweep_merges(&self) -> usize {
        self.rows.iter().map(|r| r.sweep_merges).sum()
    }

    /// Rows breaking the backend-agreement contract.
    pub fn backend_disagreements(&self) -> usize {
        self.rows.iter().filter(|r| !r.backend_agrees).count()
    }

    /// Rows whose double-run diverged.
    pub fn non_reproducible(&self) -> usize {
        self.rows.iter().filter(|r| !r.reproducible).count()
    }

    /// Rows failing any audit — the exit-code driver.
    pub fn red_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.red()).count()
    }
}

// ---------------------------------------------------------------------
// Deterministic generator pool
// ---------------------------------------------------------------------

/// xorshift64* — the workspace vendors `rand` only as a dev-dependency,
/// and the pool must be reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixpoint.
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

/// A random sequential netlist in the style of the determinism suite's
/// generator: a growing signal pool, two-input gates drawn from it, and
/// latch next-states closed over the pool at the end.
fn random_netlist(name: &str, seed: u64, inputs: usize, latches: usize, gates: usize) -> Netlist {
    use symbi_netlist::{GateKind, SignalId};
    let mut rng = Rng::new(seed);
    let mut n = Netlist::new(name);
    let mut pool: Vec<SignalId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
    let qs: Vec<SignalId> =
        (0..latches).map(|i| n.add_latch(format!("q{i}"), rng.bool())).collect();
    pool.extend(&qs);
    for g in 0..gates {
        let kind = match rng.below(5) {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Xor,
            3 => GateKind::Nand,
            _ => GateKind::Not,
        };
        let arity = if kind.is_unary() { 1 } else { 2 };
        let fanins: Vec<SignalId> = (0..arity).map(|_| pool[rng.below(pool.len())]).collect();
        pool.push(n.add_gate(format!("g{g}"), kind, fanins));
    }
    for &q in &qs {
        n.set_latch_next(q, pool[rng.below(pool.len())]);
    }
    n.add_output("o0", pool[pool.len() - 1]);
    n.add_output("o1", pool[pool.len() / 2]);
    n
}

/// Size of the full generated pool (excluding the two-block anchor).
/// The parameter grid below cycles inputs, latches and gate counts at
/// mutually-prime periods, so all 200 circuits are structurally
/// distinct even before the per-index seed perturbation.
const GENERATED_POOL_SIZE: usize = 200;

/// Circuits the `--quick` run samples from the full pool.
const QUICK_SAMPLE: usize = 10;

/// The generated arm of the corpus: the two-block rescue family (whose
/// tight-tier behaviour separates the backends) plus [`GENERATED_POOL_SIZE`]
/// seeded random sequential netlists spanning 2–8 inputs, 1–6 latches
/// and 8–120 gates.
///
/// `quick` keeps a [`QUICK_SAMPLE`]-circuit subset: a fixed-stride slice
/// of the full pool whose starting offset is derived from `seed`, so a
/// quick run is a deterministic function of the seed alone (same seed ⇒
/// same circuits, byte for byte) while still ranging over the whole
/// grid rather than its smallest corner.
fn generated_pool(seed: u64, quick: bool) -> Vec<(String, Netlist)> {
    let mut pool = vec![("two_block2".to_string(), two_block_cones(2))];
    let mut indices: Vec<usize> = (0..GENERATED_POOL_SIZE).collect();
    if quick {
        let stride = GENERATED_POOL_SIZE / QUICK_SAMPLE;
        let offset = Rng::new(seed ^ 0x5a3e_51ab_5a3e_51ab).below(stride);
        indices = indices.into_iter().skip(offset).step_by(stride).take(QUICK_SAMPLE).collect();
    }
    for i in indices {
        let name = format!("rnd{i}");
        let netlist = random_netlist(
            &name,
            seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            2 + i % 7,
            1 + i % 6,
            8 + (i * 7) % 113,
        );
        pool.push((name, netlist));
    }
    pool
}

/// Parses every `.aag`/`.aig` file of `dir` (sorted by file name, so
/// the corpus order is platform-independent). A file that fails to
/// parse fails the sweep: the checked-in corpus must stay readable.
fn aiger_pool(dir: &Path) -> io::Result<Vec<(String, Netlist)>> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".aag") || f.ends_with(".aig"))
        .collect();
    names.sort();
    let mut pool = Vec::with_capacity(names.len());
    for file in names {
        let bytes = std::fs::read(dir.join(&file))?;
        let netlist = aiger::parse_bytes(&bytes).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", dir.join(&file).display()))
        })?;
        pool.push((file, netlist));
    }
    Ok(pool)
}

// ---------------------------------------------------------------------
// The differential cell
// ---------------------------------------------------------------------

fn flow_options(
    strategy: PartitionStrategy,
    backend: DecBackend,
    candidate_steps: u64,
) -> SynthesisOptions {
    // No reachability arm: the corpus audits the decomposition flow's
    // quality and soundness; the state-analysis ablation is Table 3.1's
    // job. Every cell runs `jobs = 1` — see the module docs.
    let mut options = SynthesisOptions { reach: None, jobs: 1, ..Default::default() };
    options.decompose.strategy = strategy;
    options.decompose.backend = backend;
    options.budget.candidate_steps = candidate_steps;
    options
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs one circuit × tier × backend cell (without the agreement
/// verdict, which needs the sibling cells and is filled in afterwards).
fn run_cell(
    circuit: &str,
    source: &str,
    netlist: &Netlist,
    tier: &str,
    candidate_steps: u64,
    backend: DecBackend,
    sec_frames: usize,
) -> CorpusRow {
    let start = Instant::now();
    let orig = stats::stats(netlist);

    let base_options = flow_options(PartitionStrategy::Greedy, DecBackend::Bdd, candidate_steps);
    let (base_net, _) = optimize(netlist, &base_options);
    let base = stats::stats(&base_net);

    let options = flow_options(PartitionStrategy::Auto(14), backend, candidate_steps);
    let opt_start = Instant::now();
    let (opt_a, rep_a) = optimize(netlist, &options);
    let opt_seconds = opt_start.elapsed().as_secs_f64();
    let (opt_b, rep_b) = optimize(netlist, &options);
    let bytes_a = bench::write(&opt_a);
    let reproducible = bytes_a == bench::write(&opt_b)
        && rep_a.steps.rescued_checks == rep_b.steps.rescued_checks
        && rep_a.candidates_skipped == rep_b.candidates_skipped;
    let opt = stats::stats(&opt_a);

    // The swept arm: the same flow with the SAT-sweeping pre-pass on.
    let swept_options = SynthesisOptions { sweep: true, ..options };
    let swept_start = Instant::now();
    let (swept_net, swept_rep) = optimize(netlist, &swept_options);
    let swept_seconds = swept_start.elapsed().as_secs_f64();
    let swept = stats::stats(&swept_net);

    let sec_ok = sec::bounded_check(netlist, &opt_a, sec_frames).is_equivalent();
    let base_sec_ok = sec::bounded_check(netlist, &base_net, sec_frames).is_equivalent();
    let swept_sec_ok = sec::bounded_check(&opt_a, &swept_net, sec_frames).is_equivalent();

    CorpusRow {
        circuit: circuit.to_string(),
        source: source.to_string(),
        backend: backend.to_string(),
        budget: tier.to_string(),
        orig_ands: orig.aig_ands,
        orig_depth: orig.depth,
        base_ands: base.aig_ands,
        base_depth: base.depth,
        opt_ands: opt.aig_ands,
        opt_depth: opt.depth,
        swept_ands: swept.aig_ands,
        swept_depth: swept.depth,
        sweep_merges: swept_rep.sweep.merges,
        sweep_degraded: swept_rep.sweep.degraded,
        skipped: rep_a.candidates_skipped,
        rescued: rep_a.steps.rescued_checks,
        fallbacks: rep_a.fallbacks_taken,
        sec_frames,
        sec_ok,
        base_sec_ok,
        swept_sec_ok,
        reproducible,
        // Filled in by the post-pass over sibling cells.
        backend_agrees: true,
        opt_hash: fnv1a(bytes_a.as_bytes()),
        seconds: start.elapsed().as_secs_f64(),
        opt_seconds,
        swept_seconds,
    }
}

/// Fills [`CorpusRow::backend_agrees`]: at the unlimited tier both
/// backends must share one hash; the tight tier is exempt.
fn mark_agreement(rows: &mut [CorpusRow]) {
    let mut i = 0;
    while i < rows.len() {
        // Rows are emitted backend-major within each circuit×tier, so
        // each group is a contiguous BACKENDS.len() slice.
        let group = &mut rows[i..i + BACKENDS.len()];
        debug_assert!(group.windows(2).all(|w| {
            w[0].circuit == w[1].circuit && w[0].budget == w[1].budget
        }));
        let h = group[0].opt_hash;
        if group[0].budget == "unlimited" && group.iter().any(|r| r.opt_hash != h) {
            for r in group.iter_mut() {
                r.backend_agrees = false;
            }
        }
        i += BACKENDS.len();
    }
}

/// Runs the corpus sweep.
///
/// # Errors
///
/// Propagates I/O errors reading `corpus_dir`, and reports an unparsable
/// corpus file as [`io::ErrorKind::InvalidData`].
pub fn corpus_rows(options: &CorpusOptions) -> io::Result<CorpusReport> {
    let start = Instant::now();
    let mut pool: Vec<(String, String, Netlist)> = generated_pool(options.seed, options.quick)
        .into_iter()
        .map(|(name, n)| (name, "generated".to_string(), n))
        .collect();
    let mut aiger_circuits = 0;
    if let Some(dir) = &options.corpus_dir {
        for (name, n) in aiger_pool(dir)? {
            aiger_circuits += 1;
            pool.push((name, "aiger".to_string(), n));
        }
    }
    let sec_frames = if options.quick { 4 } else { 6 };

    // One task per cell, ordered circuit-major / tier / backend — the
    // order `mark_agreement` and the JSON rely on. `parallel_map`
    // merges results in task order, so the report is identical for
    // every job count.
    let cells: Vec<(usize, &'static str, u64, DecBackend)> = (0..pool.len())
        .flat_map(|c| {
            TIERS.iter().flat_map(move |&(tier, steps)| {
                BACKENDS.iter().map(move |&b| (c, tier, steps, b))
            })
        })
        .collect();
    let mut rows = symbi_bdd::par::parallel_map(
        options.jobs,
        cells,
        |_, (c, tier, steps, backend)| {
            let (name, source, netlist) = &pool[c];
            run_cell(name, source, netlist, tier, steps, backend, sec_frames)
        },
    );
    mark_agreement(&mut rows);
    Ok(CorpusReport {
        seed: options.seed,
        quick: options.quick,
        circuits: pool.len(),
        aiger_circuits,
        rows,
        seconds: start.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// Serializes a [`CorpusReport`] as JSON (hand-written — no serde in
/// the workspace). `with_timing = false` omits every wall-clock field,
/// producing the payload that must be byte-identical across job counts
/// and reruns at a fixed seed.
pub fn corpus_json(report: &CorpusReport, with_timing: bool) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-corpus-bench/v1\",\n");
    out.push_str(&format!(
        "  \"seed\": {}, \"quick\": {}, \"circuits\": {}, \"aiger_circuits\": {},\n",
        report.seed, report.quick, report.circuits, report.aiger_circuits
    ));
    out.push_str(&format!(
        concat!(
            "  \"sec_mismatches\": {}, \"backend_disagreements\": {}, ",
            "\"non_reproducible\": {}, \"red_rows\": {}, \"sweep_merges\": {},\n"
        ),
        report.sec_mismatches(),
        report.backend_disagreements(),
        report.non_reproducible(),
        report.red_rows(),
        report.sweep_merges(),
    ));
    if with_timing {
        out.push_str(&format!("  \"seconds\": {:.6},\n", report.seconds));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"circuit\": \"{}\", \"source\": \"{}\", \"backend\": \"{}\", ",
                "\"budget\": \"{}\", \"orig_ands\": {}, \"orig_depth\": {}, ",
                "\"base_ands\": {}, \"base_depth\": {}, \"opt_ands\": {}, \"opt_depth\": {}, ",
                "\"swept_ands\": {}, \"swept_depth\": {}, ",
                "\"area_ratio\": {:.3}, \"depth_ratio\": {:.3}, ",
                "\"sweep_area_ratio\": {:.3}, \"sweep_merges\": {}, ",
                "\"sweep_degraded\": {}, ",
                "\"skipped\": {}, \"rescued\": {}, \"fallbacks\": {}, ",
                "\"sec_frames\": {}, \"sec_ok\": {}, \"base_sec_ok\": {}, ",
                "\"swept_sec_ok\": {}, ",
                "\"reproducible\": {}, \"backend_agrees\": {}, \"opt_hash\": \"{:016x}\""
            ),
            r.circuit,
            r.source,
            r.backend,
            r.budget,
            r.orig_ands,
            r.orig_depth,
            r.base_ands,
            r.base_depth,
            r.opt_ands,
            r.opt_depth,
            r.swept_ands,
            r.swept_depth,
            r.area_ratio(),
            r.depth_ratio(),
            r.sweep_area_ratio(),
            r.sweep_merges,
            r.sweep_degraded,
            r.skipped,
            r.rescued,
            r.fallbacks,
            r.sec_frames,
            r.sec_ok,
            r.base_sec_ok,
            r.swept_sec_ok,
            r.reproducible,
            r.backend_agrees,
            r.opt_hash,
        ));
        if with_timing {
            out.push_str(&format!(
                ", \"seconds\": {:.6}, \"opt_seconds\": {:.6}, \"swept_seconds\": {:.6}",
                r.seconds, r.opt_seconds, r.swept_seconds
            ));
        }
        out.push_str(if i + 1 == report.rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The timing-free payload whose byte identity across `--jobs` values
/// and reruns is the harness's own determinism contract.
pub fn corpus_fingerprint(report: &CorpusReport) -> String {
    corpus_json(report, false)
}

/// Runs [`corpus_rows`] and writes [`corpus_json`] (with timing) to
/// `path`.
///
/// # Errors
///
/// Propagates corpus-directory and output-file I/O errors.
pub fn write_corpus_json(path: &Path, options: &CorpusOptions) -> io::Result<CorpusReport> {
    let report = corpus_rows(options)?;
    std::fs::write(path, corpus_json(&report, true))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_pool_is_deterministic() {
        let a = generated_pool(7, true);
        let b = generated_pool(7, true);
        assert_eq!(a.len(), b.len());
        for ((na, la), (nb, lb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(bench::write(la), bench::write(lb));
        }
        let c = generated_pool(8, true);
        assert!(
            a.iter().zip(&c).any(|((_, la), (_, lc))| bench::write(la) != bench::write(lc)),
            "different seeds must vary the pool"
        );
    }

    #[test]
    fn quick_pool_is_a_sample_of_the_full_pool() {
        let full = generated_pool(7, false);
        assert!(full.len() > GENERATED_POOL_SIZE, "full pool carries 200+ circuits");
        let quick = generated_pool(7, true);
        assert_eq!(quick.len(), QUICK_SAMPLE + 1);
        for (name, n) in &quick {
            let (_, reference) = full
                .iter()
                .find(|(full_name, _)| full_name == name)
                .expect("every quick circuit exists in the full pool");
            assert_eq!(
                bench::write(n),
                bench::write(reference),
                "quick must sample, not regenerate, the pool"
            );
        }
    }

    #[test]
    fn random_netlists_validate() {
        for i in 0..8 {
            let n = random_netlist("t", 1000 + i, 3, 3, 16);
            n.validate().expect("generated netlist is well-formed");
        }
    }

    #[test]
    fn fingerprint_excludes_timing() {
        let report = CorpusReport {
            seed: 1,
            quick: true,
            circuits: 0,
            aiger_circuits: 0,
            rows: Vec::new(),
            seconds: 12.5,
        };
        let fp = corpus_fingerprint(&report);
        assert!(!fp.contains("seconds"), "{fp}");
        assert!(corpus_json(&report, true).contains("seconds"));
    }
}
