//! The traced run's recorder: span totals with nanosecond resolution,
//! counter totals and record sums, plus a Chrome trace of every span and
//! gauge.
//!
//! It implements `dpc_obs::Recorder`, so the same sink takes the
//! benchmark's own spans around each public call and whatever the existing
//! hooks (`StreamingDpc::set_recorder`, `DpcIndex::rho_delta_observed`)
//! emit. `dpc_obs::MetricsRecorder` is not used because it truncates spans
//! to whole microseconds, which zeroes the sub-microsecond phases of a
//! one-point epoch.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpc_obs::{AttrValue, Recorder, SharedRecorder, TraceSink};

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration in nanoseconds.
    pub nanos: u128,
}

impl SpanTotal {
    /// Summed duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Everything the recorder has accumulated.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    /// Span totals by name.
    pub spans: BTreeMap<String, SpanTotal>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Sum of recorded histogram samples by name.
    pub records: BTreeMap<String, u64>,
}

impl LayerData {
    /// The total of one span name (zero when never recorded).
    pub fn span(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// A counter's total (zero when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A record sum (zero when never recorded).
    pub fn record_sum(&self, name: &str) -> u64 {
        self.records.get(name).copied().unwrap_or(0)
    }
}

/// A recorder that keeps exact span totals and a Chrome trace.
#[derive(Debug, Default)]
pub struct LayerRecorder {
    data: Mutex<LayerData>,
    trace: TraceSink,
}

impl LayerRecorder {
    /// A fresh, shareable recorder.
    pub fn shared() -> Arc<LayerRecorder> {
        Arc::new(LayerRecorder::default())
    }

    /// The recorder as the trait object the crates' hooks take.
    pub fn as_shared(self: &Arc<Self>) -> SharedRecorder {
        Arc::clone(self) as SharedRecorder
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> LayerData {
        self.lock().clone()
    }

    /// The recorded spans in Chrome trace-event format.
    pub fn chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LayerData> {
        self.data
            .lock()
            .expect("layer recorder poisoned by a panicking thread")
    }
}

impl Recorder for LayerRecorder {
    fn counter(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_owned()).or_default() += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        self.trace.gauge(name, value);
    }

    fn record(&self, name: &str, value: u64) {
        *self.lock().records.entry(name.to_owned()).or_default() += value;
    }

    fn span(&self, name: &str, start: Instant, dur: Duration) {
        {
            let mut data = self.lock();
            let total = data.spans.entry(name.to_owned()).or_default();
            total.count += 1;
            total.nanos += dur.as_nanos();
        }
        self.trace.span(name, start, dur);
    }

    fn event(&self, name: &str, attrs: &[(&str, AttrValue<'_>)]) {
        self.trace.event(name, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_counters_and_records_accumulate() {
        let rec = LayerRecorder::shared();
        let shared = rec.as_shared();
        let t = Instant::now();
        shared.span("stream.phase.apply", t, Duration::from_nanos(300));
        shared.span("stream.phase.apply", t, Duration::from_nanos(200));
        shared.counter("query.rho.nodes_visited", 4);
        shared.counter("query.rho.nodes_visited", 6);
        shared.record("stream.invalidated", 7);
        shared.gauge("index.kdtree.subtree_rebuilds", 2.0);
        let data = rec.snapshot();
        assert_eq!(
            data.span("stream.phase.apply"),
            SpanTotal {
                count: 2,
                nanos: 500
            }
        );
        assert_eq!(data.counter("query.rho.nodes_visited"), 10);
        assert_eq!(data.record_sum("stream.invalidated"), 7);
        let trace = rec.chrome_json();
        assert!(trace.contains("stream.phase.apply"));
        assert!(trace.contains("index.kdtree.subtree_rebuilds"));
    }
}
