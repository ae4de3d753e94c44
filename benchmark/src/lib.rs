//! The symbi benchmark: four seeded workloads through
//! `symbi_synth::flow::optimize`, timed from outside each layer, with
//! every output checked. The metric list, units, directions and
//! regression bounds live in the repository's `BENCHMARK.json`, which
//! is compiled in so that the code and the definition cannot drift.

pub mod compare;
pub mod heap;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use json::Json;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// `BENCHMARK.json`, as compiled into this build.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; `None`
    /// for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The benchmark definition: run length and metric lists.
#[derive(Debug, Clone)]
pub struct Definition {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Definition {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Definition {
        Definition::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Definition, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .ok_or(format!("missing `{key}`"))?
                .as_array()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key}: metric without `{f}`"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Definition {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
