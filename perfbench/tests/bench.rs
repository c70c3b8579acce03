//! The benchmark's own checks, on workloads shrunk to run in a debug build.

use std::time::Duration;

use darray_perfbench::report::{end_to_end, per_layer};
use darray_perfbench::{percentile, run_once, Rep, Spans, Spec, Virtual, Workload};

fn small(w: Workload) -> Spec {
    match w {
        Workload::KvsZipf95 => Spec::Kvs {
            records: 400,
            warmup_ns: 100_000,
            window_ns: 400_000,
        },
        Workload::ArrayUniform => Spec::Array {
            elems_per_node: 1 << 12,
            warmup_ns: 100_000,
            window_ns: 400_000,
        },
        Workload::PagerankRmat16 => Spec::PageRank {
            scale: 9,
            edge_factor: 8,
            iters: 3,
        },
    }
}

#[test]
fn percentile_keeps_ten_samples_beyond() {
    let up_to = |n: u64| (1..=n).collect::<Vec<u64>>();
    assert_eq!(percentile(&up_to(10_000), 999), Some(9_990));
    assert_eq!(percentile(&up_to(9_999), 999), None, "only 9 beyond");
    assert_eq!(percentile(&up_to(1_000), 990), Some(990));
    assert_eq!(percentile(&up_to(999), 990), None, "only 9 beyond");
    assert_eq!(percentile(&up_to(20), 500), Some(10));
    assert_eq!(percentile(&up_to(19), 500), None, "only 9 beyond");
    assert_eq!(percentile(&[], 500), None);
}

#[test]
fn same_seed_gives_identical_virtual_metrics() {
    for w in Workload::ALL {
        let a = run_once(&small(w), 7, false);
        let b = run_once(&small(w), 7, false);
        assert!(a.virt.ops > 0 && a.virt.window_ns > 0, "{}", w.name());
        assert_eq!(a.virt, b.virt, "{} is not deterministic", w.name());
    }
}

#[test]
fn another_seed_passes_every_check() {
    for w in Workload::ALL {
        let r = run_once(&small(w), 8, false);
        assert!(r.virt.attempted > 0, "{}", w.name());
        assert_eq!(r.virt.failed, 0, "{} failed a correctness check", w.name());
    }
}

#[test]
fn traced_run_reproduces_untraced_virtual_metrics() {
    for w in Workload::ALL {
        let plain = run_once(&small(w), 9, false);
        let traced = run_once(&small(w), 9, true);
        assert_eq!(plain.virt, traced.virt, "tracing changed {}", w.name());
        let spans = traced.spans.expect("traced runs record spans");
        if w == Workload::KvsZipf95 {
            assert!(spans.kv_get.ops > 0 && spans.kv_get.array_calls > spans.kv_get.ops);
            assert!(!spans.array_wlock.is_empty(), "puts take bucket locks");
        }
    }
}

/// Names listed under `section` of BENCHMARK.json, in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let rep = Rep {
        virt: Virtual {
            ops: 1,
            window_ns: 1,
            ..Virtual::default()
        },
        spans: Some(Spans::default()),
        setup: Duration::from_secs(1),
        window_cpu: Duration::from_secs(1),
    };
    let reps = [rep];
    let names = |ms: Vec<darray_perfbench::report::Metric>| {
        ms.into_iter().map(|m| m.name).collect::<Vec<_>>()
    };
    assert_eq!(names(end_to_end(&reps, 1.0)), listed("end_to_end"));
    assert_eq!(names(per_layer(&reps, &reps)), listed("per_layer"));
    let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, listed("workloads"));
}
