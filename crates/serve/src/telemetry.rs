//! The serve-side telemetry store: per-class latency histograms, the
//! flight recorder, and the slow-query log.
//!
//! Everything here is *off the result path*. The serving code measures
//! with the [`Instant`]s it already takes for scheduling, assembles a
//! [`Trace`] after the reply is determined, and hands it to
//! [`Telemetry::record`] — which touches one histogram mutex, one
//! wait-free ring slot, and (for slow traces) a second ring slot.
//! Nothing on this path can change an answer, and a poisoned or
//! contended telemetry structure can delay a reply by at most the cost
//! of those bounded critical sections.
//!
//! Latencies land in one [`WindowedHistogram`] per [`TraceClass`]
//! (cached / cold / batched / shed queries, mutations, stats reads).
//! The rolling window rotates on a fixed wall-clock cadence
//! ([`WINDOW`]), checked under the histogram lock each record — no
//! timer thread.
//!
//! [`Instant`]: std::time::Instant

use skyup_obs::json::Json;
use skyup_obs::{FlightRecorder, Trace, TraceClass, TraceId, WindowedHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rolling-window rotation cadence. The rolling percentile view always
/// covers one to two of these intervals.
pub const WINDOW: Duration = Duration::from_secs(10);

struct Hists {
    by_class: [WindowedHistogram; TraceClass::COUNT],
    last_roll: Instant,
}

/// The per-server telemetry store. One per [`crate::ServeHandle`]
/// lifetime, shared by every worker through an `Arc`.
pub struct Telemetry {
    /// Slow-query latency threshold in milliseconds; `0` disables the
    /// threshold (shed and partial traces still enter the slow log).
    slow_ms: u64,
    hists: Mutex<Hists>,
    recorder: FlightRecorder,
    slow: FlightRecorder,
    next_id: AtomicU64,
}

impl Telemetry {
    /// A store with a `trace_buffer`-deep flight recorder (and a slow
    /// log of the same depth).
    pub fn new(slow_ms: u64, trace_buffer: usize) -> Telemetry {
        Telemetry {
            slow_ms,
            hists: Mutex::new(Hists {
                by_class: std::array::from_fn(|_| WindowedHistogram::new()),
                last_roll: Instant::now(),
            }),
            recorder: FlightRecorder::new(trace_buffer),
            slow: FlightRecorder::new(trace_buffer),
            next_id: AtomicU64::new(0),
        }
    }

    /// Mints the next ingress trace id.
    pub fn mint(&self) -> TraceId {
        TraceId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this trace belongs in the slow-query log: over the
    /// latency threshold, shed, or partial.
    fn is_slow(&self, trace: &Trace) -> bool {
        trace.shed
            || !trace.completion.is_exact()
            || (self.slow_ms > 0 && trace.total_nanos >= self.slow_ms.saturating_mul(1_000_000))
    }

    /// Records a completed trace: latency into its class histogram
    /// (rolling the window on cadence), the trace into the flight
    /// recorder, and — when slow — into the slow log. Returns whether
    /// the trace was slow.
    pub fn record(&self, trace: Trace) -> bool {
        {
            let mut h = self.hists.lock().unwrap();
            if h.last_roll.elapsed() >= WINDOW {
                for w in h.by_class.iter_mut() {
                    w.roll();
                }
                h.last_roll = Instant::now();
            }
            h.by_class[trace.class.index()].record(trace.total_nanos);
        }
        let slow = self.is_slow(&trace);
        if slow {
            self.slow.record(trace.clone());
        }
        self.recorder.record(trace);
        slow
    }

    /// Total traces recorded since start.
    pub fn recorded(&self) -> u64 {
        self.recorder.recorded()
    }

    /// Total traces that entered the slow log since start.
    pub fn slow_recorded(&self) -> u64 {
        self.slow.recorded()
    }

    /// The `{"op":"metrics"}` response body: per-class cumulative and
    /// rolling histograms (exact bucket counts and p50/p95/p99/max),
    /// recorder totals, and the current queue depth.
    pub fn metrics_json(&self, queue_depth: usize) -> Json {
        let h = self.hists.lock().unwrap();
        let classes = Json::Obj(
            TraceClass::ALL
                .iter()
                .map(|&c| (c.name().to_string(), h.by_class[c.index()].to_json()))
                .collect(),
        );
        drop(h);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("queue_depth", Json::Uint(queue_depth as u64)),
            ("traces_recorded", Json::Uint(self.recorded())),
            ("slow_recorded", Json::Uint(self.slow_recorded())),
            ("slow_ms", Json::Uint(self.slow_ms)),
            ("trace_buffer", Json::Uint(self.recorder.capacity() as u64)),
            ("classes", classes),
        ])
    }

    /// The `{"op":"trace","n":K}` response body: the last `n` traces
    /// (newest first) plus the slow log's last `n`.
    pub fn traces_json(&self, n: usize) -> Json {
        let traces: Vec<Json> = self.recorder.dump(n).iter().map(Trace::to_json).collect();
        let slow: Vec<Json> = self.slow.dump(n).iter().map(Trace::to_json).collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(traces.len() as u64)),
            ("traces", Json::Arr(traces)),
            ("slow", Json::Arr(slow)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyup_obs::Completion;

    fn trace(tel: &Telemetry, class: TraceClass, total_nanos: u64, shed: bool) -> Trace {
        Trace {
            id: tel.mint(),
            class,
            epoch: 0,
            completion: Completion::Exact,
            shed,
            products: 1,
            evaluated: 1,
            cache_hits: 0,
            cache_misses: 1,
            memo_hits: 0,
            dominance_tests: 0,
            queue_nanos: 0,
            assemble_nanos: 0,
            exec_nanos: total_nanos,
            total_nanos,
        }
    }

    #[test]
    fn slow_log_catches_threshold_shed_and_partial() {
        let tel = Telemetry::new(5, 16); // 5 ms threshold
        assert!(!tel.record(trace(&tel, TraceClass::QueryCold, 1_000_000, false)));
        assert!(tel.record(trace(&tel, TraceClass::QueryCold, 6_000_000, false)));
        assert!(tel.record(trace(&tel, TraceClass::QueryShed, 1_000, true)));
        let mut partial = trace(&tel, TraceClass::QueryCold, 1_000, false);
        partial.completion = Completion::Partial(skyup_obs::Interrupt::DeadlineExceeded);
        assert!(tel.record(partial));
        assert_eq!(tel.recorded(), 4);
        assert_eq!(tel.slow_recorded(), 3);
    }

    #[test]
    fn zero_threshold_disables_latency_slowness() {
        let tel = Telemetry::new(0, 16);
        assert!(!tel.record(trace(&tel, TraceClass::QueryCold, u64::MAX / 2, false)));
        assert!(tel.record(trace(&tel, TraceClass::QueryShed, 1, true)));
    }

    #[test]
    fn metrics_json_buckets_conserve_counts_per_class() {
        let tel = Telemetry::new(100, 16);
        for i in 0..10 {
            tel.record(trace(&tel, TraceClass::QueryCached, 100 + i, false));
        }
        for i in 0..7 {
            tel.record(trace(&tel, TraceClass::QueryCold, 10_000 + i, false));
        }
        let j = tel.metrics_json(3);
        assert_eq!(j.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("traces_recorded").and_then(Json::as_u64), Some(17));
        let classes = j.get("classes").unwrap();
        for (name, want) in [("query_cached", 10u64), ("query_cold", 7)] {
            let cum = classes.get(name).unwrap().get("cumulative").unwrap();
            assert_eq!(cum.get("count").and_then(Json::as_u64), Some(want));
            let total: u64 = match cum.get("buckets").unwrap() {
                Json::Arr(bs) => bs
                    .iter()
                    .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
                    .sum(),
                _ => panic!("buckets must be an array"),
            };
            assert_eq!(total, want, "{name}: bucket conservation");
        }
    }

    #[test]
    fn trace_dump_is_newest_first_and_parseable() {
        let tel = Telemetry::new(100, 4);
        for i in 0..6 {
            tel.record(trace(&tel, TraceClass::QueryCold, 1000 + i, false));
        }
        let j = tel.traces_json(10);
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(4));
        let parsed = skyup_obs::json::parse(&j.render()).unwrap();
        let Some(Json::Arr(traces)) = parsed.get("traces") else {
            panic!("traces must be an array");
        };
        let ids: Vec<u64> = traces
            .iter()
            .map(|t| t.get("id").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(ids, vec![5, 4, 3, 2]);
    }
}
