//! Spans recorded around the benchmark's calls into each layer. They
//! are held in memory and written out once, when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed call: `{id, parent, circuit, name, start_ns, end_ns}`
/// plus the counters the call returned.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    circuit: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, f64)>,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("circuit", Json::Num(self.circuit as f64)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            (
                "counters",
                Json::obj(self.counters.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }
}

/// Span recorder. Times are nanoseconds since the recorder was made.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Trace::close`].
    pub fn open(&mut self, parent: Option<usize>, circuit: usize, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            circuit,
            name,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let circuit = self.spans[parent].circuit;
        let id = self.open(Some(parent), circuit, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    pub fn set_counters(&mut self, id: usize, counters: Vec<(&'static str, f64)>) {
        self.spans[id].counters = counters;
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Counter `key` summed over the spans that carry it.
    pub fn sum(&self, key: &str) -> f64 {
        // `Iterator::sum` of no floats is -0.0; counters print as 0.
        self.counters(key).fold(0.0, |a, b| a + b)
    }

    /// Largest value of counter `key`.
    pub fn max(&self, key: &str) -> f64 {
        self.counters(key).fold(0.0, f64::max)
    }

    /// Mean of counter `key` over the spans that carry it.
    pub fn mean(&self, key: &str) -> f64 {
        let values: Vec<f64> = self.counters(key).collect();
        crate::stats::ratio(values.iter().sum(), values.len() as f64)
    }

    fn counters<'a>(&'a self, key: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans.iter().flat_map(move |s| {
            s.counters
                .iter()
                .filter(move |(k, _)| *k == key)
                .map(|&(_, v)| v)
        })
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(Span::to_json).collect())
    }
}
