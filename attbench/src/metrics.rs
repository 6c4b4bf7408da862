//! The benchmark's metric catalogue and result rendering.
//!
//! Every workload reports every metric listed here: the end-to-end
//! set on untraced runs, the per-layer set on traced runs. A layer a
//! workload never enters reports 0 (no work done there). The names and
//! units must match `BENCHMARK.json`; a test pins that.

use crate::probe::normalised_ns;
use crate::stats::{median, quantile};
use crate::Outcome;

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics (untraced runs).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p99_us", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (traced runs), grouped by the module they time.
pub const PER_LAYER: &[MetricDef] = &[
    // pda-netsim
    m("netsim.build_us", "us", "lower"),
    m("netsim.run_us", "us", "lower"),
    m("netsim.overhead_ns_per_pkt", "ns", "lower"),
    m("netsim.wire_bytes_per_pkt", "bytes", "lower"),
    m("netsim.control_bytes_per_pkt", "bytes", "lower"),
    // pda-dataplane
    m("dataplane.pipeline_ns", "ns", "lower"),
    // pda-pera
    m("pera.process_packet_ns", "ns", "lower"),
    m("pera.attest_ns", "ns", "lower"),
    m("pera.cache_hit_rate", "ratio", "higher"),
    m("pera.measurements_per_record", "count", "lower"),
    m("pera.record_wire_bytes", "bytes", "lower"),
    m("pera.wire_decode_ns", "ns", "lower"),
    m("pera.assemble_chain_ns", "ns", "lower"),
    // pda-crypto
    m("crypto.sign_ns", "ns", "lower"),
    m("crypto.verify_ns", "ns", "lower"),
    m("crypto.digest_ns", "ns", "lower"),
    // pda-ra
    m("ra.appraise_ns", "ns", "lower"),
    m("ra.checks_per_verdict", "count", "lower"),
    // pda-svc
    m("svc.client_encode_ns", "ns", "lower"),
    m("svc.submit_body_bytes", "bytes", "lower"),
    m("svc.hex_decode_ns", "ns", "lower"),
    m("svc.http_parse_ns", "ns", "lower"),
    m("svc.rpc_parse_ns", "ns", "lower"),
    m("svc.response_parse_ns", "ns", "lower"),
    m("svc.handle_submit_ns", "ns", "lower"),
    m("svc.handle_appraise_ns", "ns", "lower"),
    m("svc.quorum_ns", "ns", "lower"),
    m("svc.rtt_submit_us", "us", "lower"),
    m("svc.rtt_appraise_us", "us", "lower"),
    m("svc.transport_us", "us", "lower"),
    m("svc.conn_reuse_ratio", "ratio", "higher"),
    m("svc.records_stored", "count", "lower"),
    // pda-telemetry
    m("telemetry.counter_add_ns", "ns", "lower"),
    m("telemetry.span_ns", "ns", "lower"),
    m("telemetry.audit_records", "count", "lower"),
    // pda-netkat
    m("netkat.equiv_ms", "ms", "lower"),
    m("netkat.reach_ms", "ms", "lower"),
    m("netkat.slice_ms", "ms", "lower"),
    m("netkat.policy_size", "count", "lower"),
    // the tracing itself
    m("trace.overhead_us", "us", "lower"),
    m("trace.unattributed_us", "us", "lower"),
    m("trace.op_self_us", "us", "lower"),
];

/// Collects per-layer values by name; unset names render as 0.
#[derive(Default)]
pub struct Layers(Vec<(String, f64)>);

impl Layers {
    /// Set `name` (must be a [`PER_LAYER`] name).
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name.to_string(), value));
    }

    /// Nanosecond sample median as the layer value.
    pub fn set_median_ns(&mut self, name: &str, samples: &[u64]) {
        self.set(name, crate::stats::median(samples) as f64);
    }

    /// The collected values.
    pub fn into_vec(self) -> Vec<(String, f64)> {
        self.0
    }
}

/// A finite number rendered with all its digits (non-finite as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    pda_telemetry::json::Json::Str(s.to_string()).encode()
}

/// Set-up (s), throughput (units/s), p50 and p99 latency (µs) from
/// per-set-up and per-operation times in ns. Set-up is the median;
/// throughput is units of work ÷ summed operation time (one client);
/// the percentiles are nearest-rank over every operation.
pub fn timing(setups_ns: &[u64], lat_ns: &[u64], units: u64) -> [f64; 4] {
    let mut lat = lat_ns.to_vec();
    lat.sort_unstable();
    let busy: u64 = lat.iter().sum();
    [
        median(setups_ns) as f64 / 1e9,
        units as f64 / (busy as f64 / 1e9),
        quantile(&lat, 0.50) as f64 / 1e3,
        quantile(&lat, 0.99) as f64 / 1e3,
    ]
}

/// The end-to-end values of an outcome, in [`END_TO_END`] order: the
/// [`timing`] of its set-ups and untraced operations at the reference
/// host speed ([`probe::normalised_ns`]), then peak memory.
pub fn end_to_end_values(o: &Outcome, peak_rss_mb: f64) -> Vec<f64> {
    let at_reference = |v: &[crate::Sample]| -> Vec<u64> {
        normalised_ns(v)
            .iter()
            .map(|&ns| ns.round() as u64)
            .collect()
    };
    let units = o.e2e.samples.iter().map(|s| s.units).sum();
    let mut values = timing(
        &at_reference(&o.e2e.setups),
        &at_reference(&o.e2e.samples),
        units,
    )
    .to_vec();
    values.push(peak_rss_mb);
    values
}

/// Render the final result line.
pub fn result_line(o: &Outcome, trace: bool, peak_rss_mb: f64) -> String {
    let values: Vec<(MetricDef, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|d| {
                let v = o
                    .layers
                    .iter()
                    .rev()
                    .find(|(n, _)| n == d.name)
                    .map_or(0.0, |(_, v)| *v);
                (*d, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .copied()
            .zip(end_to_end_values(o, peak_rss_mb))
            .collect()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                num(*v),
                quote(d.unit)
            )
        })
        .collect();
    let correct = o.failed == 0 && o.errors.is_empty() && o.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
