//! Turns repetitions into named metrics, and metrics into the report.

use std::time::Duration;

use crate::{percentile, KvSpan, Rep, MIN_BEYOND};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// What the value was computed from: a sample count or a ratio's base.
    pub base: String,
}

fn metric(name: &str, unit: &'static str, value: f64, base: String) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        base,
    }
}

/// `a / b`, or 0 when `b` is 0 (the layer did no such work).
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median over `reps` of a host duration, in seconds.
fn median_secs(reps: &[Rep], of: impl Fn(&Rep) -> Duration) -> f64 {
    let mut xs: Vec<f64> = reps.iter().map(|r| of(r).as_secs_f64()).collect();
    assert!(!xs.is_empty(), "median of no repetitions");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Quantile `per_mille` / 1000 of `sorted` latency samples, with the sample
/// count as its base. A call the workload never makes reads 0 with n=0; one it makes too
/// rarely to have [`MIN_BEYOND`] samples beyond the quantile is a sizing
/// error of the benchmark and panics.
fn latency(name: &str, sorted: &[u64], per_mille: usize) -> Metric {
    let value = if sorted.is_empty() {
        0
    } else {
        percentile(sorted, per_mille).unwrap_or_else(|| {
            panic!(
                "{name}: {} samples leave fewer than {MIN_BEYOND} beyond the quantile",
                sorted.len()
            )
        })
    };
    metric(name, "ns", value as f64, format!("n={}", sorted.len()))
}

/// End-to-end metrics, from repetitions with tracing off.
pub fn end_to_end(plain: &[Rep], peak_rss_mib: f64) -> Vec<Metric> {
    let v = &plain[0].virt;
    let reps = plain.len();
    vec![
        metric(
            "throughput_mops",
            "Mops/s",
            v.ops as f64 * 1e3 / v.window_ns as f64,
            format!("ops {} / virtual ns {}", v.ops, v.window_ns),
        ),
        metric(
            "peak_rss_mib",
            "MiB",
            peak_rss_mib,
            "ru_maxrss after the first repetition".to_string(),
        ),
        metric(
            "setup_s",
            "s",
            median_secs(plain, |r| r.setup),
            format!("median of {reps} set-ups"),
        ),
    ]
}

/// Host CPU per op of the untraced windows: what the simulator costs.
pub fn sim_cpu(plain: &[Rep]) -> Metric {
    let cpu = median_secs(plain, |r| r.window_cpu);
    let ops = plain[0].virt.ops;
    metric(
        "sim_cpu_us_per_op",
        "us",
        cpu * 1e6 / ops as f64,
        format!(
            "median host CPU {cpu:.4} s of {} reps / ops {ops}",
            plain.len()
        ),
    )
}

/// Median and tail latency of each top-level API call.
pub fn api_latency(rep: &Rep) -> Vec<Metric> {
    let calls = [
        ("get", "p999", 999),
        ("set", "p999", 999),
        ("apply", "p999", 999),
        ("put", "p99", 990),
    ];
    calls
        .into_iter()
        .flat_map(|(call, tail, per_mille)| {
            let sorted = rep.virt.latency.get(call).map_or(&[][..], Vec::as_slice);
            [
                latency(&format!("{call}_p50_ns"), sorted, 500),
                latency(&format!("{call}_{tail}_ns"), sorted, per_mille),
            ]
        })
        .collect()
}

fn kv_calls(name: &str, span: KvSpan) -> Metric {
    metric(
        name,
        "calls/op",
        ratio(span.array_calls, span.ops),
        format!("array calls {} / kv ops {}", span.array_calls, span.ops),
    )
}

/// Per-layer metrics: counter deltas over the window of `plain[0]`, spans
/// of `traced[0]`, host costs as medians over each side's repetitions.
pub fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let v = &plain[0].virt;
    let c = &v.counters;
    let spans = traced[0]
        .spans
        .as_ref()
        .expect("traced repetitions record spans");
    let ops = v.ops;
    let per_op = |name: &str, count: u64, what: &str| {
        metric(
            name,
            "count/op",
            ratio(count, ops),
            format!("{what} {count} / ops {ops}"),
        )
    };
    let (peak, lines) = v.cache_peak;
    let plain_cpu = median_secs(plain, |r| r.window_cpu);
    let traced_cpu = median_secs(traced, |r| r.window_cpu);
    let mut m = api_latency(&plain[0]);
    m.extend([
        kv_calls("kvs.get_array_calls", spans.kv_get),
        kv_calls("kvs.put_array_calls", spans.kv_put),
        metric(
            "kvs.get_self_ns",
            "ns",
            ratio(spans.kv_get.self_ns, spans.kv_get.ops),
            format!(
                "kv get span minus array spans, ns {} / gets {}",
                spans.kv_get.self_ns, spans.kv_get.ops
            ),
        ),
        latency("kvs.lock_wait_p50_ns", &spans.array_wlock, 500),
        latency("kvs.lock_wait_p99_ns", &spans.array_wlock, 990),
        metric(
            "array.hit_ratio",
            "ratio",
            ratio(c.fast_hits, c.fast_hits + c.slow_misses),
            format!(
                "fast_hits {} / (fast_hits + slow_misses) {}",
                c.fast_hits,
                c.fast_hits + c.slow_misses
            ),
        ),
        latency("array.get_p50_ns", &spans.array_get, 500),
        latency("array.get_p99_ns", &spans.array_get, 990),
        latency("array.wlock_p99_ns", &spans.array_wlock, 990),
        per_op("runtime.slow_misses_per_op", c.slow_misses, "slow_misses"),
        per_op("runtime.fills_per_op", c.fills, "fills"),
        per_op("runtime.prefetches_per_op", c.prefetches, "prefetches"),
        per_op("runtime.rpcs_handled_per_op", c.rpcs_handled, "rpcs_handled"),
        per_op("cache.evictions_per_op", c.evictions, "evictions"),
        metric(
            "cache.peak_occupancy",
            "ratio",
            ratio(peak, lines),
            format!("peak occupied lines {peak} / lines {lines}"),
        ),
        per_op("protocol.transitions_per_op", c.transitions, "transitions"),
        per_op("protocol.invalidations_per_op", c.invalidations, "invalidations"),
        per_op("protocol.recalls_per_op", c.recalls, "recalls"),
        per_op("protocol.writebacks_per_op", c.writebacks, "writebacks"),
        per_op("protocol.locks_granted_per_op", c.locks_granted, "locks_granted"),
        per_op("protocol.operand_flushes_per_op", c.operand_flushes, "operand_flushes"),
        metric(
            "protocol.combines_per_flush",
            "ratio",
            ratio(c.local_combines, c.operand_flushes),
            format!(
                "local_combines {} / operand_flushes {}",
                c.local_combines, c.operand_flushes
            ),
        ),
        per_op("fabric.frames_per_op", c.frames, "frames"),
        metric(
            "fabric.bytes_per_op",
            "B/op",
            ratio(c.bytes_tx, ops),
            format!("bytes_tx {} / ops {ops}", c.bytes_tx),
        ),
        per_op("fabric.nic_writes_per_op", c.nic_writes, "nic writes"),
        per_op("fabric.nic_sends_per_op", c.nic_sends, "nic sends"),
        per_op("dsim.switches_per_op", c.switches, "switches"),
        per_op("dsim.events_per_op", c.events, "events"),
        sim_cpu(plain),
        metric(
            "dsim.host_ns_per_switch",
            "ns",
            plain_cpu * 1e9 / c.switches.max(1) as f64,
            format!("median untraced host CPU {plain_cpu:.4} s / switches {}", c.switches),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_cpu - plain_cpu) / plain_cpu * 100.0,
            format!(
                "median host CPU traced {traced_cpu:.4} s ({} reps) vs untraced {plain_cpu:.4} s ({} reps)",
                traced.len(),
                plain.len()
            ),
        ),
    ]);
    m
}

/// Human-readable lines: name, value, unit and base.
pub fn lines(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "  {:<32} {:>16} {:<9} [{}]\n",
                m.name, m.value, m.unit, m.base
            )
        })
        .collect()
}

/// The result object the benchmark prints as its last line.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
