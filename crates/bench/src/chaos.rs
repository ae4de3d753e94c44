//! Deterministic chaos harness: a soundness audit of the degradation
//! ladder under injected faults.
//!
//! The sweep crosses every registered fault site
//! ([`FaultSite::ALL`]) with the first few occurrences of that site,
//! derives the fault kind from a single seed
//! ([`FaultPlan::derive_kind`]), and runs the full synthesis flow on a
//! fixed suite of small sequential circuits with exactly that one fault
//! armed. Every cell is then audited against the ladder's soundness
//! contract:
//!
//! - **No escape**: no panic unwinds past the flow's isolation
//!   boundaries and no cell hangs (each runs on a watchdog thread with
//!   a hard timeout).
//! - **Degradation is equivalence-preserving**: whatever the fault
//!   degraded, the output netlist is SAT-checked (under a *clean*
//!   governor) to be bounded-sequentially equivalent to the input.
//! - **Reachability is ⊤-monotone**: a degraded analysis may only
//!   over-approximate — the fault-free care set must be contained in
//!   the faulted one.
//! - **Cancellation drains bounded**: `cancel`-kind cells must return
//!   within the watchdog window like every other cell.
//!
//! `panic` draws are kept only for sites that sit *inside* a declared
//! isolation boundary (`par.task`, `synth.decompose`, `reach.fixpoint`);
//! everywhere else the soundness contract is the `Err` path, not
//! unwinding, so the draw is remapped to a budget trip. The whole sweep
//! is a pure function of [`ChaosOptions`], so a failing cell replays
//! exactly from its `(seed, site, occurrence)` coordinates.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use symbi_bdd::{FaultKind, FaultPlan, FaultSite, Manager, ResourceGovernor, VarId};
use symbi_circuits::blocks;
use symbi_netlist::sec::{bounded_check_sat, SecResult};
use symbi_netlist::{GateKind, Netlist, SignalId};
use symbi_reach::{Reachability, ReachabilityOptions};
use symbi_synth::flow::{optimize_governed, SynthesisOptions};

/// Sweep configuration. The default is the CI `chaos-smoke` shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Seed fixing every cell's fault kind (and recorded in the report
    /// for replay).
    pub seed: u64,
    /// Occurrences swept per site (`1..=max_occurrence`).
    pub max_occurrence: u64,
    /// Hard per-cell watchdog; a cell that does not return within it is
    /// recorded as a hang violation.
    pub cell_timeout: Duration,
    /// Restricts the circuit suite to its first member and halves the
    /// occurrence sweep — the CI smoke shape.
    pub quick: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0xC4A05,
            max_occurrence: 3,
            cell_timeout: Duration::from_secs(60),
            quick: false,
        }
    }
}

/// One `(circuit, site, occurrence)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Circuit name.
    pub circuit: String,
    /// Dotted site name (`FaultSite::as_str`).
    pub site: &'static str,
    /// 1-based crossing the rule armed.
    pub occurrence: u64,
    /// Injected kind after the isolation-boundary remap.
    pub kind: &'static str,
    /// Faults actually fired by the synthesis run (0 when the site was
    /// never crossed often enough — not a violation).
    pub fired: u64,
    /// Worker panics absorbed across synthesis and the reach audit.
    pub worker_panics: u64,
    /// Candidate cones degraded to their original implementation.
    pub candidates_skipped: usize,
    /// Reach partitions that bailed to ⊤ in the faulted audit run.
    pub bailed_out: usize,
    /// Halved-budget retries charged by the faulted reach audit run.
    pub retries: u64,
    /// Wall-clock seconds for the whole cell (flow + audits).
    pub seconds: f64,
    /// Soundness-contract violations; an empty list means the cell
    /// passed the audit.
    pub violations: Vec<String>,
}

/// Outcome of one full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Seed the sweep derived every kind from.
    pub seed: u64,
    /// All swept cells in deterministic order.
    pub cells: Vec<ChaosCell>,
    /// Wall-clock seconds for the sweep.
    pub seconds: f64,
}

impl ChaosReport {
    /// Cells whose armed fault actually fired.
    pub fn fired(&self) -> usize {
        self.cells.iter().filter(|c| c.fired > 0).count()
    }

    /// Total soundness violations across cells.
    pub fn violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations.len()).sum()
    }

    /// Cells that tripped the watchdog.
    pub fn hangs(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.violations.iter().any(|v| v.contains("watchdog")))
            .count()
    }

    /// Cells where a panic escaped every isolation boundary.
    pub fn escaped_panics(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.violations.iter().any(|v| v.contains("escaped")))
            .count()
    }
}

/// 6-bit enabled binary counter with a parity/mix output cloud — the
/// suite's combinationally rich member.
fn chaos_counter() -> Netlist {
    let mut n = Netlist::new("chaos_ctr6");
    let en = n.add_input("en");
    let q = blocks::binary_counter(&mut n, "c", 6, en);
    let x01 = n.add_gate("x01", GateKind::Xor, vec![q[0], q[1]]);
    let x23 = n.add_gate("x23", GateKind::Xor, vec![q[2], q[3]]);
    let x45 = n.add_gate("x45", GateKind::Xor, vec![q[4], q[5]]);
    let p = n.add_gate("par", GateKind::Xor, vec![x01, x23]);
    let p2 = n.add_gate("par2", GateKind::Xor, vec![p, x45]);
    let a = n.add_gate("a03", GateKind::And, vec![q[0], q[3]]);
    let o = n.add_gate("o_mix", GateKind::Or, vec![a, x23]);
    n.add_output("parity", p2);
    n.add_output("mix", o);
    n
}

/// Johnson counter + one-hot ring sharing an enable — the suite's
/// multi-partition member (sparse reachable sets in both halves).
fn chaos_rings() -> Netlist {
    let mut n = Netlist::new("chaos_rings");
    let en = n.add_input("en");
    let j = blocks::johnson_counter(&mut n, "j", 4, en);
    let r = blocks::one_hot_ring(&mut n, "r", 4, en);
    let m0 = n.add_gate("m0", GateKind::And, vec![j[0], r[0]]);
    let m1 = n.add_gate("m1", GateKind::Xor, vec![j[1], r[1]]);
    let m2 = n.add_gate("m2", GateKind::Or, vec![m0, m1]);
    let m3 = n.add_gate("m3", GateKind::Xor, vec![j[3], r[3]]);
    n.add_output("m2", m2);
    n.add_output("m3", m3);
    n
}

/// The counter's 6-bit core plus De Morgan twins of two gates, all kept
/// observable as outputs. The SAT-sweeping pre-pass crosses the
/// `netlist.sweep` site once at its entry and once per pairwise query;
/// [`chaos_counter`] has no duplicate logic to query, so its sweep cells
/// run here, where the two twin pairs make two queries and all three
/// swept occurrences are crossed.
fn chaos_counter_with_twins() -> Netlist {
    let mut n = Netlist::new("chaos_ctr6_twin");
    let en = n.add_input("en");
    let q = blocks::binary_counter(&mut n, "c", 6, en);
    let a = n.add_gate("a03", GateKind::And, vec![q[0], q[3]]);
    let n0 = n.add_gate("n0", GateKind::Not, vec![q[0]]);
    let n3 = n.add_gate("n3", GateKind::Not, vec![q[3]]);
    let a_twin = n.add_gate("a03_twin", GateKind::Nor, vec![n0, n3]);
    let o = n.add_gate("o14", GateKind::Or, vec![q[1], q[4]]);
    let n1 = n.add_gate("n1", GateKind::Not, vec![q[1]]);
    let n4 = n.add_gate("n4", GateKind::Not, vec![q[4]]);
    let o_twin = n.add_gate("o14_twin", GateKind::Nand, vec![n1, n4]);
    n.add_output("a", a);
    n.add_output("b", a_twin);
    n.add_output("c", o);
    n.add_output("d", o_twin);
    n
}

/// The fixed circuit suite (first member only in quick mode), each
/// member paired with the circuit its `netlist.sweep` cells run on.
/// `chaos_rings` has enough sweep queries of its own.
fn suite(quick: bool) -> Vec<(Netlist, Netlist)> {
    let mut members = vec![(chaos_counter(), chaos_counter_with_twins())];
    if !quick {
        members.push((chaos_rings(), chaos_rings()));
    }
    members
}

/// Sites whose soundness contract includes *unwinding* — a panic there
/// must be absorbed at a declared isolation boundary. Every other
/// site's contract is the `Err` path, so `panic` draws are remapped to
/// budget trips rather than asserting a guarantee the ladder never made.
///
/// `netlist.sweep` qualifies: the whole SAT-sweeping pre-pass runs
/// inside the flow's sweep-attempt `catch_unwind` boundary, and a crash
/// there degrades to the unswept netlist.
fn panic_is_isolated(site: FaultSite) -> bool {
    matches!(
        site,
        FaultSite::ParTask
            | FaultSite::SynthDecompose
            | FaultSite::ReachFixpoint
            | FaultSite::NetlistSweep
    )
}

/// SEC frames checked by the equivalence audit.
const AUDIT_FRAMES: usize = 4;

/// Everything a cell computes on its watchdog thread.
struct CellBody {
    fired: u64,
    worker_panics: u64,
    candidates_skipped: usize,
    bailed_out: usize,
    retries: u64,
    violations: Vec<String>,
}

fn run_cell_body(input: &Netlist, site: FaultSite, occurrence: u64, kind: FaultKind, seed: u64, jobs: usize) -> CellBody {
    let plan = Arc::new(FaultPlan::new(seed).with_rule(site, occurrence, kind));
    let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
    // `validate_frames` keeps a governed SAT solver in the loop so the
    // `sat.*` sites are actually crossed; the audit below re-checks
    // equivalence under a clean governor regardless of its verdict.
    let mut options = SynthesisOptions { jobs, validate_frames: Some(2), ..Default::default() };
    if site == FaultSite::NetlistSweep {
        // The site only exists inside the SAT-sweeping pre-pass, so
        // those cells run the flow with sweeping on. A fired fault must
        // degrade to the unswept netlist — which the SEC audit below
        // then checks against the input like every other cell.
        options.sweep = true;
    }
    let (output, report) = optimize_governed(input, &options, &gov);
    let mut violations = Vec::new();
    if output.validate().is_err() {
        violations.push("degraded output netlist fails validation".to_string());
    }
    // Equivalence-preserving degradation, judged by a clean checker.
    let (verdict, _) = bounded_check_sat(input, &output, AUDIT_FRAMES);
    if !matches!(verdict, SecResult::Equivalent) {
        violations.push(format!(
            "degraded output diverges from input within {AUDIT_FRAMES} frames"
        ));
    }
    // ⊤-monotone reachability: rerun the analysis with a *fresh* plan
    // (zeroed crossing counters) carrying the same rule, and require the
    // fault-free care set to be contained in the faulted one.
    let audit_plan = Arc::new(FaultPlan::new(seed).with_rule(site, occurrence, kind));
    let audit_gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&audit_plan));
    let reach_opts = ReachabilityOptions::default();
    let mut clean_reach = Reachability::analyze(input, reach_opts);
    let mut faulted_reach = Reachability::analyze_governed(input, reach_opts, &audit_gov);
    let latches: Vec<SignalId> = input.latches().to_vec();
    let mut dst = Manager::with_vars(latches.len());
    let var_of: HashMap<SignalId, VarId> =
        latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
    let clean_care = clean_reach.care_set(&latches, &mut dst, &var_of);
    let faulted_care = faulted_reach.care_set(&latches, &mut dst, &var_of);
    let outside = dst.not(faulted_care);
    let escaped = dst.and(clean_care, outside);
    if !escaped.is_false() {
        violations.push(
            "faulted reachability lost states the clean analysis reaches (not ⊤-monotone)"
                .to_string(),
        );
    }
    let faulted_stats = faulted_reach.stats();
    CellBody {
        fired: plan.faults_fired() + audit_plan.faults_fired(),
        worker_panics: report.worker_panics as u64 + faulted_stats.worker_panics,
        candidates_skipped: report.candidates_skipped,
        bailed_out: faulted_stats.bailed_out,
        retries: faulted_stats.retries,
        violations,
    }
}

/// Runs one cell behind a watchdog thread; a panic that escapes every
/// isolation boundary or a hang is converted into a violation instead of
/// taking the sweep down.
fn run_cell(input: &Netlist, circuit: &str, site: FaultSite, occurrence: u64, kind: FaultKind, options: &ChaosOptions) -> ChaosCell {
    let jobs = if site == FaultSite::ParTask { 2 } else { 1 };
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let thread_input = input.clone();
    let seed = options.seed;
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{}:{}:{}", circuit, site.as_str(), occurrence))
        .spawn(move || {
            let body = run_cell_body(&thread_input, site, occurrence, kind, seed, jobs);
            let _ = tx.send(body);
        })
        .expect("spawning a chaos cell thread");
    let body = match rx.recv_timeout(options.cell_timeout) {
        Ok(body) => {
            let _ = handle.join();
            body
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The cell thread died without sending: a panic escaped
            // every isolation boundary.
            let _ = handle.join();
            CellBody {
                fired: 0,
                worker_panics: 0,
                candidates_skipped: 0,
                bailed_out: 0,
                retries: 0,
                violations: vec!["a panic escaped every isolation boundary".to_string()],
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Leak the thread (it may be wedged); the violation is the
            // record, and the process exits after the sweep.
            CellBody {
                fired: 0,
                worker_panics: 0,
                candidates_skipped: 0,
                bailed_out: 0,
                retries: 0,
                violations: vec![format!(
                    "watchdog timeout after {:?} (cell did not drain)",
                    options.cell_timeout
                )],
            }
        }
    };
    ChaosCell {
        circuit: circuit.to_string(),
        site: site.as_str(),
        occurrence,
        kind: kind.as_str(),
        fired: body.fired,
        worker_panics: body.worker_panics,
        candidates_skipped: body.candidates_skipped,
        bailed_out: body.bailed_out,
        retries: body.retries,
        seconds: started.elapsed().as_secs_f64(),
        violations: body.violations,
    }
}

/// Installs (once) a panic hook that silences exactly the *injected*
/// panics — they carry the `"injected fault:"` marker and are caught at
/// an isolation boundary anyway — while chaining every real panic to
/// the previous hook so genuine bugs still print their backtrace.
fn install_quiet_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.contains("injected fault:")) {
                return;
            }
            prev(info);
        }));
    });
}

/// Runs the full sweep described by `options`.
pub fn chaos_report(options: &ChaosOptions) -> ChaosReport {
    install_quiet_hook();
    let started = Instant::now();
    let max_occ = if options.quick { options.max_occurrence.min(2) } else { options.max_occurrence };
    let mut cells = Vec::new();
    for (netlist, sweep_netlist) in suite(options.quick) {
        for &site in FaultSite::ALL.iter() {
            let input = if site == FaultSite::NetlistSweep {
                &sweep_netlist
            } else {
                &netlist
            };
            let circuit = input.name().to_string();
            for occurrence in 1..=max_occ {
                let drawn = FaultPlan::derive_kind(options.seed, site, occurrence);
                let kind = if drawn == FaultKind::Panic && !panic_is_isolated(site) {
                    FaultKind::Budget
                } else {
                    drawn
                };
                cells.push(run_cell(input, &circuit, site, occurrence, kind, options));
            }
        }
    }
    ChaosReport { seed: options.seed, cells, seconds: started.elapsed().as_secs_f64() }
}

/// Serializes a [`ChaosReport`] as JSON (hand-written — no serde in the
/// workspace) in a stable schema for longitudinal comparison.
pub fn chaos_json(report: &ChaosReport) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-chaos-bench/v1\",\n");
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"seconds\": {:.3},\n", report.seconds));
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        let violations: Vec<String> =
            c.violations.iter().map(|v| format!("\"{}\"", v.replace('"', "'"))).collect();
        out.push_str(&format!(
            concat!(
                "    {{\"circuit\": \"{}\", \"site\": \"{}\", \"occurrence\": {}, ",
                "\"kind\": \"{}\", \"fired\": {}, \"worker_panics\": {}, ",
                "\"candidates_skipped\": {}, \"bailed_out\": {}, \"retries\": {}, ",
                "\"seconds\": {:.3}, \"violations\": [{}]}}{}\n"
            ),
            c.circuit,
            c.site,
            c.occurrence,
            c.kind,
            c.fired,
            c.worker_panics,
            c.candidates_skipped,
            c.bailed_out,
            c.retries,
            c.seconds,
            violations.join(", "),
            if i + 1 == report.cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        concat!(
            "  \"summary\": {{\"cells\": {}, \"fired\": {}, \"violations\": {}, ",
            "\"hangs\": {}, \"escaped_panics\": {}}}\n"
        ),
        report.cells.len(),
        report.fired(),
        report.violations(),
        report.hangs(),
        report.escaped_panics(),
    ));
    out.push_str("}\n");
    out
}

/// Runs [`chaos_report`] and writes [`chaos_json`] to `path`.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_chaos_json(
    path: &std::path::Path,
    options: &ChaosOptions,
) -> std::io::Result<ChaosReport> {
    let report = chaos_report(options);
    std::fs::write(path, chaos_json(&report))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean_and_fires_faults() {
        let options = ChaosOptions {
            max_occurrence: 1,
            cell_timeout: Duration::from_secs(120),
            quick: true,
            ..Default::default()
        };
        let report = chaos_report(&options);
        assert_eq!(report.cells.len(), FaultSite::COUNT);
        assert_eq!(report.violations(), 0, "soundness audit must be clean: {:#?}", report.cells.iter().filter(|c| !c.violations.is_empty()).collect::<Vec<_>>());
        assert_eq!(report.hangs(), 0);
        assert_eq!(report.escaped_panics(), 0);
        assert!(report.fired() > 0, "the sweep must exercise at least some sites");
    }

    #[test]
    fn netlist_sweep_cells_fire_every_kind_and_stay_sound() {
        // The sweep site under all four fault kinds at both the
        // pass-entry crossing (occurrence 1) and the first pairwise SAT
        // query (occurrence 2). Whatever fires, the flow must hand back
        // a netlist the cell's audit can prove equivalent to the input:
        // a faulted sweep degrades, it never mis-merges.
        let options = ChaosOptions::default();
        let input = chaos_counter_with_twins();
        for kind in
            [FaultKind::Budget, FaultKind::Cancel, FaultKind::Panic, FaultKind::AllocPressure]
        {
            for occurrence in [1, 2] {
                let cell = run_cell(
                    &input,
                    "chaos_ctr6_twin",
                    FaultSite::NetlistSweep,
                    occurrence,
                    kind,
                    &options,
                );
                assert!(
                    cell.fired > 0,
                    "{} occ {occurrence}: the sweep site was never crossed",
                    kind.as_str()
                );
                assert!(
                    cell.violations.is_empty(),
                    "{} occ {occurrence}: {:?}",
                    kind.as_str(),
                    cell.violations
                );
            }
        }
    }

    #[test]
    fn every_netlist_sweep_cell_of_the_full_sweep_fires() {
        // The full sweep's `netlist.sweep` cells: every suite member's
        // sweep circuit at every swept occurrence, with the seed's kind
        // (the site is inside an isolation boundary, so panic draws are
        // kept). A cell that never fires audits nothing.
        let options = ChaosOptions::default();
        for (_, input) in suite(false) {
            for occurrence in 1..=options.max_occurrence {
                let kind =
                    FaultPlan::derive_kind(options.seed, FaultSite::NetlistSweep, occurrence);
                let cell = run_cell(
                    &input,
                    input.name(),
                    FaultSite::NetlistSweep,
                    occurrence,
                    kind,
                    &options,
                );
                assert!(
                    cell.fired > 0,
                    "{} occ {occurrence} never fired",
                    input.name()
                );
                assert!(
                    cell.violations.is_empty(),
                    "{} occ {occurrence}: {:?}",
                    input.name(),
                    cell.violations
                );
            }
        }
    }

    #[test]
    fn faulted_sweep_cell_degrades_to_the_unswept_flow() {
        // Stronger than SEC: a budget fault at the sweep's entry
        // crossing leaves the rest of the flow byte-identical to never
        // having asked for sweeping at all.
        let input = chaos_counter_with_twins();
        let opts = SynthesisOptions { sweep: true, ..Default::default() };
        let (unswept, _) =
            optimize_governed(&input, &SynthesisOptions::default(), &ResourceGovernor::unlimited());
        let plan = Arc::new(FaultPlan::new(0xC4A05).with_rule(
            FaultSite::NetlistSweep,
            1,
            FaultKind::Budget,
        ));
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let (net, report) = optimize_governed(&input, &opts, &gov);
        assert!(plan.faults_fired() >= 1);
        assert!(report.sweep.degraded);
        assert_eq!(
            symbi_netlist::bench::write(&net),
            symbi_netlist::bench::write(&unswept)
        );
    }

    #[test]
    fn sat_encode_cells_fire_and_stay_sound() {
        let options = ChaosOptions::default();
        let input = chaos_counter();
        for kind in [FaultKind::Budget, FaultKind::Cancel] {
            let cell = run_cell(&input, "chaos_ctr6", FaultSite::SatEncode, 1, kind, &options);
            assert!(cell.fired > 0, "{}: the encode site was never crossed", kind.as_str());
            assert!(
                cell.violations.is_empty(),
                "{}: {:?}",
                kind.as_str(),
                cell.violations
            );
        }
    }

    #[test]
    fn chaos_json_has_schema_and_summary() {
        let report = ChaosReport {
            seed: 7,
            cells: vec![ChaosCell {
                circuit: "c".into(),
                site: "bdd.apply",
                occurrence: 1,
                kind: "budget",
                fired: 1,
                worker_panics: 0,
                candidates_skipped: 0,
                bailed_out: 0,
                retries: 0,
                seconds: 0.1,
                violations: vec![],
            }],
            seconds: 0.1,
        };
        let json = chaos_json(&report);
        assert!(json.contains("\"schema\": \"symbi-chaos-bench/v1\""));
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\"violations\": 0"));
    }
}
