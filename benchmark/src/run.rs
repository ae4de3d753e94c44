//! One workload run: repeated set-up, the measured passes, the output
//! checks and, when asked, one traced pass.
//!
//! The measured passes time nothing but `flow::optimize` calls, one
//! circuit after another on one thread (a closed loop: the next
//! circuit starts when the previous one returns). A run makes as many
//! whole passes as end within `--seconds`, at least one, and each
//! circuit's time is the median of its passes.

use crate::heap;
use crate::json::Json;
use crate::stats::{geomean, median, percentile, ratio};
use crate::trace::Trace;
use crate::workload::{fingerprint, Workload, CIRCUITS, DEFAULT_SEED};
use std::cell::Cell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};
use symbi_netlist::clean::clean;
use symbi_netlist::sweep::{self, SweepOptions};
use symbi_netlist::{aiger, sec, sim, stats, Netlist};
use symbi_reach::Reachability;
use symbi_synth::flow::{optimize, SynthesisOptions, SynthesisReport};
use symbi_synth::genlib::Library;
use symbi_synth::map::{map, MapMode};

/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Frames of the bounded sequential equivalence check.
const SEC_FRAMES: usize = 4;
/// Cycles of random co-simulation.
const COSIM_STEPS: usize = 1024;
/// Circuits in a `--smoke` run (one pass, one set-up).
const SMOKE_CIRCUITS: usize = 5;

const PARSE: &str = "aiger.parse_bytes";
const CLEAN: &str = "clean.clean";
const SWEEP: &str = "sweep.try_sweep";
const REACH: &str = "reach.analyze_governed";
const OPTIMIZE: &str = "flow.optimize";
const MAP: &str = "map.map";
const SEC: &str = "sec.bounded_check_sat";
const COSIM: &str = "sim.random_co_simulation";

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run measured.
pub struct Outcome {
    pub circuits: usize,
    pub passes: usize,
    pub input_fingerprint: u64,
    /// `(circuit, reason)` for every circuit that failed a check.
    pub failures: Vec<(usize, String)>,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Flow counters summed over the circuits' first pass.
    pub counters: Vec<(&'static str, f64)>,
    /// Each circuit's median `optimize` time, in input order.
    pub circuit_seconds: Vec<f64>,
    /// Heap each circuit's first `optimize` needed beyond what was
    /// live before it, in MiB.
    pub circuit_peak_mb: Vec<f64>,
    /// The traced pass, with its per-layer metrics.
    pub traced: Option<(Trace, Vec<(&'static str, f64)>)>,
}

/// The inputs as the flow sees them: parsed from their AIGER bytes.
struct Inputs {
    bytes: Vec<Vec<u8>>,
    netlists: Vec<Netlist>,
    library: Library,
}

/// Generating the inputs, writing them as AIGER, parsing, building the
/// library, and one warm-up `optimize` on the smallest circuit: the
/// work `setup_s` covers.
fn set_up(workload: Workload, seed: u64, count: usize, options: &SynthesisOptions) -> Inputs {
    let bytes = workload.inputs(seed, count);
    let netlists: Vec<Netlist> = bytes
        .iter()
        .map(|b| aiger::parse_bytes(b).expect("generated AIGER parses"))
        .collect();
    let library = Library::mcnc_like();
    let smallest = (0..count)
        .min_by_key(|&i| bytes[i].len())
        .expect("at least one circuit");
    // A warm-up that fails is reported by the measured passes.
    let _ = black_box(flow_call(&netlists[smallest], options));
    Inputs {
        bytes,
        netlists,
        library,
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, turning a panic into an error message. Panics raised in
/// here are counted as failures, so the panic hook keeps them off
/// stderr; every other panic still prints.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

fn flow_call(
    input: &Netlist,
    options: &SynthesisOptions,
) -> Result<(Netlist, SynthesisReport), String> {
    quietly(|| optimize(input, options)).map_err(|m| format!("optimize panicked: {m}"))
}

fn output_hash(n: &Netlist) -> u64 {
    fingerprint(&[aiger::write_binary(n)])
}

/// Size, area and delay of one netlist, each floored at 1 so that a
/// circuit optimized down to wires cannot zero a geometric mean.
#[derive(Debug, Clone, Copy)]
struct Quality {
    ands: f64,
    area: f64,
    delay: f64,
}

fn quality(n: &Netlist, library: &Library) -> (Quality, usize) {
    let mapped = map(n, library, MapMode::Area);
    let q = Quality {
        ands: (stats::stats(n).aig_ands as f64).max(1.0),
        area: mapped.area.max(1.0),
        delay: mapped.delay.max(1.0),
    };
    (q, mapped.cells)
}

/// Checks one optimized circuit against its input — a 4-frame bounded
/// SAT equivalence check from reset and 1024 cycles of random
/// co-simulation — and maps it. Each call is a span under `parent`.
fn check_output(
    trace: &mut Trace,
    parent: usize,
    input: &Netlist,
    output: &Netlist,
    library: &Library,
    seed: u64,
) -> Result<Quality, String> {
    let ((q, cells), id) = trace.span(parent, MAP, || quality(output, library));
    trace.set_counters(id, vec![("map.cells", cells as f64)]);
    let ((verdict, solver), id) = trace.span(parent, SEC, || {
        sec::bounded_check_sat(input, output, SEC_FRAMES)
    });
    trace.set_counters(
        id,
        vec![
            ("verify.sat_conflicts", solver.conflicts as f64),
            ("verify.sat_propagations", solver.propagations as f64),
        ],
    );
    let (agree, _) = trace.span(parent, COSIM, || {
        sim::random_co_simulation(input, output, COSIM_STEPS, seed)
    });
    if !verdict.is_equivalent() {
        return Err(format!("{SEC_FRAMES}-frame bounded SEC refutes the output"));
    }
    if !agree {
        return Err(format!("{COSIM_STEPS}-step co-simulation mismatch"));
    }
    Ok(q)
}

/// The decomposition-layer counters `optimize` returns.
fn flow_counters(r: &SynthesisReport) -> Vec<(&'static str, f64)> {
    let s = &r.steps;
    [
        ("core.or_steps", s.or_steps),
        ("core.and_steps", s.and_steps),
        ("core.xor_steps", s.xor_steps),
        ("core.shannon_steps", s.shannon_steps),
        ("core.vars_abstracted", s.vars_abstracted),
        ("core.budget_exhausted_ops", s.budget_exhausted_ops),
        ("core.fallbacks_taken", s.fallbacks_taken),
        ("core.rescued_checks", s.rescued_checks),
        ("synth.candidates", r.candidates),
        ("synth.eligible", r.eligible),
        ("synth.decomposed", r.decomposed),
        ("synth.rejected", r.rejected),
        ("synth.candidates_skipped", r.candidates_skipped),
        ("synth.sharing_hits", r.sharing_hits),
        ("flow.sweep_merges", r.sweep.merges),
        ("flow.sweep_degraded", usize::from(r.sweep.degraded)),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .collect()
}

/// Sums same-named counters across rows, keeping first-seen order.
fn sum_counters(
    rows: impl IntoIterator<Item = Vec<(&'static str, f64)>>,
) -> Vec<(&'static str, f64)> {
    let mut total: Vec<(&'static str, f64)> = Vec::new();
    for (k, v) in rows.into_iter().flatten() {
        match total.iter_mut().find(|(name, _)| *name == k) {
            Some(slot) => slot.1 += v,
            None => total.push((k, v)),
        }
    }
    total
}

/// One circuit's measured passes.
#[derive(Default)]
struct Measured {
    seconds: Vec<f64>,
    first: Option<(Netlist, SynthesisReport, u64)>,
    failure: Option<String>,
}

impl Measured {
    fn record(&mut self, result: Result<(Netlist, SynthesisReport), String>) {
        match result {
            Ok((out, report)) => {
                let hash = output_hash(&out);
                match &self.first {
                    None => self.first = Some((out, report, hash)),
                    Some((.., first)) if *first != hash => {
                        self.fail("output bytes differ between passes".into())
                    }
                    Some(_) => {}
                }
            }
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, reason: String) {
        self.failure.get_or_insert(reason);
    }
}

/// Runs one workload. Fails without measuring when a default-seed run
/// finds inputs whose fingerprint differs from the checked-in one.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let options = cfg.workload.options();
    let (count, repeats, budget) = if cfg.smoke {
        (SMOKE_CIRCUITS, 1, Duration::ZERO)
    } else {
        (
            CIRCUITS,
            SETUP_REPEATS,
            Duration::from_secs_f64(cfg.seconds),
        )
    };

    // Set-up is timed several times, spread over the run (before the
    // passes, after them, after the checks), so that one busy moment on
    // the machine cannot set the median. Only the first one's inputs
    // are used.
    let timed_set_up = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let inputs = set_up(cfg.workload, cfg.seed, count, &options);
        setup_s.push(t.elapsed().as_secs_f64());
        inputs
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let inputs = timed_set_up(&mut setup_s);
    let input_fingerprint = fingerprint(&inputs.bytes);
    if cfg.seed == DEFAULT_SEED
        && !cfg.smoke
        && input_fingerprint != cfg.workload.default_fingerprint()
    {
        return Err(format!(
            "{}: input_fingerprint {input_fingerprint:#018x} differs from the checked-in {:#018x}; \
             the generators changed, so this is no longer the same workload",
            cfg.workload.name(),
            cfg.workload.default_fingerprint()
        ));
    }

    // Whole passes over the circuits, as many as end within the budget
    // and at least one. The first pass also reads the heap each call
    // needed, outside the timed region.
    let mut measured: Vec<Measured> = (0..count).map(|_| Measured::default()).collect();
    let mut peak_mb = Vec::with_capacity(count);
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let pass = Instant::now();
        for (m, input) in measured.iter_mut().zip(&inputs.netlists) {
            let live = heap::live_bytes();
            heap::reset_peak();
            let t = Instant::now();
            let result = flow_call(input, &options);
            m.seconds.push(t.elapsed().as_secs_f64());
            if passes == 0 {
                peak_mb.push((heap::peak_bytes() - live) as f64 / (1024.0 * 1024.0));
            }
            m.record(result);
        }
        passes += 1;
        if start.elapsed() + pass.elapsed() > budget {
            break;
        }
    }

    while setup_s.len() < repeats.div_ceil(2) {
        drop(timed_set_up(&mut setup_s));
    }

    // Checks and quality, outside any timed region. Their spans go to a
    // scratch trace: the same code serves the traced pass.
    let mut scratch = Trace::default();
    let mut before = Vec::with_capacity(count);
    let mut after = Vec::with_capacity(count);
    for (i, (m, input)) in measured.iter_mut().zip(&inputs.netlists).enumerate() {
        before.push(quality(input, &inputs.library).0);
        let Some((out, ..)) = &m.first else { continue };
        let c = scratch.open(None, i, "circuit");
        match check_output(
            &mut scratch,
            c,
            input,
            out,
            &inputs.library,
            cfg.seed ^ i as u64,
        ) {
            Ok(q) => after.push((i, q)),
            Err(e) => m.fail(e),
        }
    }

    while setup_s.len() < repeats {
        drop(timed_set_up(&mut setup_s));
    }

    let medians: Vec<f64> = measured.iter().map(|m| median(&m.seconds)).collect();
    let ratios = |f: fn(&Quality) -> f64| {
        let r: Vec<f64> = after.iter().map(|(i, q)| f(q) / f(&before[*i])).collect();
        if r.is_empty() {
            f64::NAN
        } else {
            geomean(&r)
        }
    };
    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("flow_s_p50", median(&medians)),
        // Recorded, not gated: across seeds it moved by up to a third,
        // the reach tail deciding which circuits land near it.
        ("flow_s_p90", percentile(&medians, 90.0)),
        (
            "flow_ands_per_s",
            geomean(
                &before
                    .iter()
                    .zip(&medians)
                    .map(|(q, t)| q.ands / t)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("area_ratio", ratios(|q| q.area)),
        ("delay_ratio", ratios(|q| q.delay)),
        ("and_ratio", ratios(|q| q.ands)),
        ("peak_heap_mb", percentile(&peak_mb, 90.0)),
    ];
    let mut counters = sum_counters(
        measured
            .iter()
            .filter_map(|m| m.first.as_ref())
            .map(|(_, r, _)| flow_counters(r)),
    );
    counters.push(("map.cells", scratch.sum("map.cells")));

    let traced = cfg.trace.then(|| {
        let expected: Vec<Option<u64>> = measured
            .iter()
            .map(|m| m.first.as_ref().map(|(.., h)| *h))
            .collect();
        let (trace, failures) = traced_pass(&inputs, &options, cfg.seed, &expected);
        for (m, f) in measured.iter_mut().zip(failures) {
            if let Some(f) = f {
                m.fail(f);
            }
        }
        let untraced_s: f64 = medians.iter().sum();
        let per_layer = per_layer(&trace, &options, untraced_s);
        (trace, per_layer)
    });

    let failures = measured
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.failure.clone().map(|f| (i, f)))
        .collect();
    Ok(Outcome {
        circuits: count,
        passes,
        input_fingerprint,
        failures,
        end_to_end,
        counters,
        circuit_seconds: medians,
        circuit_peak_mb: peak_mb,
        traced,
    })
}

/// One pass that times standalone calls into every layer, per circuit:
/// parse, clean, sweep, reach, optimize, map and the two verifiers.
/// Sweep and reach run standalone on every workload, so their layer
/// cost is visible even where the flow bypasses them. Returns the
/// trace and each circuit's failure, if any.
fn traced_pass(
    inputs: &Inputs,
    options: &SynthesisOptions,
    seed: u64,
    expected: &[Option<u64>],
) -> (Trace, Vec<Option<String>>) {
    let gov = options.budget.governor();
    let sweep_options = SweepOptions {
        rounds: options.sweep_rounds,
        conflict_budget: options.sweep_conflicts,
        ..SweepOptions::default()
    };
    let reach_options = options.reach.unwrap_or_default();
    let mut trace = Trace::default();
    let mut failures = Vec::with_capacity(inputs.bytes.len());
    for (i, bytes) in inputs.bytes.iter().enumerate() {
        let c = trace.open(None, i, "circuit");
        let (input, _) = trace.span(c, PARSE, || {
            aiger::parse_bytes(bytes).expect("generated AIGER parses")
        });
        let ((cleaned, report), id) = trace.span(c, CLEAN, || clean(&input));
        trace.set_counters(
            id,
            vec![("netlist.clean_gates_removed", report.gates_removed as f64)],
        );

        let (swept, id) = trace.span(c, SWEEP, || {
            quietly(|| sweep::try_sweep(&input, &sweep_options, &gov))
        });
        let counters = match swept {
            Ok(Ok((_, r))) => vec![
                ("sweep.sat_calls", r.sat_calls as f64),
                ("sweep.merges", r.merges as f64),
                ("sweep.cex_patterns", r.cex_patterns as f64),
                ("sweep.undecided", r.undecided as f64),
                ("sweep.degraded", 0.0),
            ],
            Ok(Err(_)) | Err(_) => vec![("sweep.degraded", 1.0)],
        };
        trace.set_counters(id, counters);

        let (reach, id) = trace.span(c, REACH, || {
            Reachability::analyze_governed(&cleaned, reach_options, &gov)
        });
        let r = reach.stats();
        drop(reach);
        trace.set_counters(
            id,
            vec![
                ("reach.partitions", r.partitions as f64),
                ("reach.iterations", r.iterations as f64),
                ("reach.bailed_out", r.bailed_out as f64),
                ("reach.retries", r.retries as f64),
                ("reach.peak_live_nodes", r.peak_live_nodes as f64),
                ("reach.log2_states", r.log2_states),
                ("bdd.cache_hits", r.cache_hits as f64),
                ("bdd.cache_misses", r.cache_misses as f64),
                ("bdd.gc_runs", r.gc_runs as f64),
                ("bdd.clusters", r.clusters as f64),
                ("bdd.max_cluster_nodes", r.max_cluster_nodes as f64),
                ("bdd.constrain_wins", r.constrain_wins as f64),
                ("bdd.restrict_wins", r.restrict_wins as f64),
            ],
        );

        let (result, id) = trace.span(c, OPTIMIZE, || flow_call(&input, options));
        let failure = match result {
            Err(e) => Some(e),
            Ok((out, report)) => {
                trace.set_counters(id, flow_counters(&report));
                let checked = check_output(
                    &mut trace,
                    c,
                    &input,
                    &out,
                    &inputs.library,
                    seed ^ i as u64,
                );
                if expected[i] != Some(output_hash(&out)) {
                    Some("traced output bytes differ from the measured passes".to_string())
                } else {
                    checked.err()
                }
            }
        };
        failures.push(failure);
        trace.close(c);
    }
    (trace, failures)
}

/// Per-layer metrics from the traced pass. `synth.decompose_est_s` is
/// the `optimize` time minus the standalone clean, sweep and reach
/// spans of the parts `optimize` runs on this workload — an estimate,
/// since those calls ran outside it.
fn per_layer(
    trace: &Trace,
    options: &SynthesisOptions,
    untraced_flow_s: f64,
) -> Vec<(&'static str, f64)> {
    let t = |span| trace.total_s(span);
    let sum = |key| trace.sum(key);
    let mut decompose_est_s = t(OPTIMIZE) - t(CLEAN);
    if options.sweep {
        decompose_est_s -= t(SWEEP);
    }
    if options.reach.is_some() {
        decompose_est_s -= t(REACH);
    }
    let hits = sum("bdd.cache_hits");
    let misses = sum("bdd.cache_misses");
    vec![
        ("netlist.parse_s", t(PARSE)),
        ("netlist.clean_s", t(CLEAN)),
        (
            "netlist.clean_gates_removed",
            sum("netlist.clean_gates_removed"),
        ),
        ("sweep.s", t(SWEEP)),
        ("sweep.sat_calls", sum("sweep.sat_calls")),
        ("sweep.merges", sum("sweep.merges")),
        (
            "sweep.merge_ratio",
            ratio(sum("sweep.merges"), sum("sweep.sat_calls")),
        ),
        ("sweep.cex_patterns", sum("sweep.cex_patterns")),
        ("sweep.undecided", sum("sweep.undecided")),
        ("sweep.degraded", sum("sweep.degraded")),
        ("reach.s", t(REACH)),
        ("reach.partitions", sum("reach.partitions")),
        ("reach.iterations", sum("reach.iterations")),
        ("reach.bailed_out", sum("reach.bailed_out")),
        ("reach.retries", sum("reach.retries")),
        ("reach.peak_live_nodes", trace.max("reach.peak_live_nodes")),
        ("reach.log2_states", trace.mean("reach.log2_states")),
        ("bdd.cache_hits", hits),
        ("bdd.cache_misses", misses),
        ("bdd.cache_hit_ratio", ratio(hits, hits + misses)),
        ("bdd.gc_runs", sum("bdd.gc_runs")),
        ("bdd.clusters", sum("bdd.clusters")),
        ("bdd.max_cluster_nodes", trace.max("bdd.max_cluster_nodes")),
        ("bdd.constrain_wins", sum("bdd.constrain_wins")),
        ("bdd.restrict_wins", sum("bdd.restrict_wins")),
        ("core.or_steps", sum("core.or_steps")),
        ("core.and_steps", sum("core.and_steps")),
        ("core.xor_steps", sum("core.xor_steps")),
        ("core.shannon_steps", sum("core.shannon_steps")),
        ("core.vars_abstracted", sum("core.vars_abstracted")),
        (
            "core.budget_exhausted_ops",
            sum("core.budget_exhausted_ops"),
        ),
        ("core.fallbacks_taken", sum("core.fallbacks_taken")),
        ("core.rescued_checks", sum("core.rescued_checks")),
        (
            "core.rescue_ratio",
            ratio(sum("core.rescued_checks"), sum("core.budget_exhausted_ops")),
        ),
        ("synth.candidates", sum("synth.candidates")),
        ("synth.eligible", sum("synth.eligible")),
        ("synth.decomposed", sum("synth.decomposed")),
        ("synth.rejected", sum("synth.rejected")),
        ("synth.candidates_skipped", sum("synth.candidates_skipped")),
        ("synth.sharing_hits", sum("synth.sharing_hits")),
        (
            "synth.accept_ratio",
            ratio(sum("synth.decomposed"), sum("synth.eligible")),
        ),
        ("synth.decompose_est_s", decompose_est_s.max(0.0)),
        ("map.s", t(MAP)),
        ("map.cells", sum("map.cells")),
        ("verify.s", t(SEC) + t(COSIM)),
        ("verify.sat_conflicts", sum("verify.sat_conflicts")),
        ("verify.sat_propagations", sum("verify.sat_propagations")),
        ("trace_overhead", ratio(t(OPTIMIZE), untraced_flow_s)),
    ]
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self) -> &[(&'static str, f64)] {
        match &self.traced {
            Some((_, per_layer)) => per_layer,
            None => &self.end_to_end,
        }
    }

    /// The full record of the run, for `--out` and `--compare`.
    pub fn record(&self, cfg: &Config) -> Json {
        let nums = |pairs: &[(&'static str, f64)]| {
            Json::obj(pairs.iter().map(|&(k, v)| (k, Json::Num(v))))
        };
        let mut pairs = vec![
            ("workload", Json::str(cfg.workload.name())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Bool(cfg.trace)),
            ("circuits", Json::Num(self.circuits as f64)),
            ("passes", Json::Num(self.passes as f64)),
            (
                "input_fingerprint",
                Json::str(format!("{:#018x}", self.input_fingerprint)),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.circuits as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|(i, f)| {
                            Json::obj([("circuit", Json::Num(*i as f64)), ("reason", Json::str(f))])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", nums(&self.end_to_end)),
            ("counters", nums(&self.counters)),
            (
                "circuit_seconds",
                Json::Arr(self.circuit_seconds.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "circuit_peak_mb",
                Json::Arr(self.circuit_peak_mb.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ];
        if let Some((_, per_layer)) = &self.traced {
            pairs.push(("per_layer", nums(per_layer)));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbi_netlist::GateKind;

    fn small_input() -> Netlist {
        let bytes = &Workload::T31NoStates.inputs(5, 1)[0];
        aiger::parse_bytes(bytes).unwrap()
    }

    #[test]
    fn an_inverted_output_fails_the_checks() {
        let input = small_input();
        let library = Library::mcnc_like();
        let mut trace = Trace::default();
        let c = trace.open(None, 0, "circuit");
        assert!(check_output(&mut trace, c, &input, &input, &library, 1).is_ok());

        let mut bad = input.clone();
        let (_, sig) = bad.outputs()[0].clone();
        let inverted = bad.add_gate("inverted_po0", GateKind::Not, vec![sig]);
        bad.set_output_signal(0, inverted);
        let err = check_output(&mut trace, c, &input, &bad, &library, 1).unwrap_err();
        assert!(err.contains("bounded SEC"), "{err}");
    }

    #[test]
    fn differing_pass_outputs_fail_the_circuit() {
        let input = small_input();
        let options = Workload::T31NoStates.options();
        let mut m = Measured::default();
        m.record(flow_call(&input, &options));
        m.record(flow_call(&input, &options));
        assert!(m.failure.is_none(), "{:?}", m.failure);
        m.record(Ok((input.clone(), SynthesisReport::default())));
        assert_eq!(
            m.failure.as_deref(),
            Some("output bytes differ between passes")
        );
        m.record(Err("optimize panicked: boom".into()));
        assert_eq!(
            m.failure.as_deref(),
            Some("output bytes differ between passes")
        );
    }

    #[test]
    fn failures_count_against_attempted() {
        let outcome = Outcome {
            circuits: 4,
            passes: 1,
            input_fingerprint: 0,
            failures: vec![(2, "co-simulation mismatch".into())],
            end_to_end: vec![],
            counters: vec![],
            circuit_seconds: vec![],
            circuit_peak_mb: vec![],
            traced: None,
        };
        let cfg = Config {
            workload: Workload::T31Tight,
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let record = outcome.record(&cfg);
        assert_eq!(record.get("attempted").and_then(Json::as_f64), Some(4.0));
        assert_eq!(record.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(record.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn panics_inside_quietly_become_errors() {
        let r: Result<(), String> = quietly(|| panic!("expected {}", 42));
        assert_eq!(r.unwrap_err(), "expected 42");
        assert_eq!(quietly(|| 7), Ok(7));
    }
}
