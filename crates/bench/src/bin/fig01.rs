//! Figure 1 (motivation): average latency of 8-byte sequential access over
//! the entire array, on a single machine and distributed over 6 nodes.
//! Compares a builtin array, BCL, GAM, DArray and DArray-Pin.
//! `BENCH_fig01.json` carries every cell's ns as `metrics` and the DArray
//! systems' 6-node traffic.

use darray_bench::micro::{micro, Op, Pattern, System};
use darray_bench::report::{fmt, print_table, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    let elems_per_node = if fast { 4_096 } else { 16_384 };
    let ops: u64 = if fast { 8_192 } else { 65_536 };
    let bcl_ops: u64 = if fast { 1_024 } else { 4_096 };

    let systems = [
        System::Builtin,
        System::Bcl,
        System::Gam,
        System::DArray,
        System::DArrayPin,
    ];
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    let mut traffic = Vec::new();
    for sys in systems {
        let o = if sys == System::Bcl { bcl_ops } else { ops };
        let single = micro(sys, Op::Read, Pattern::Sequential, 1, 1, elems_per_node, o);
        let lat1 = single.avg_latency_ns(o);
        metrics.push((format!("{}_seq_read_1n_ns", sys.label()), lat1));
        let lat6 = if sys == System::Builtin {
            f64::NAN // a builtin array does not distribute
        } else {
            let six = micro(sys, Op::Read, Pattern::Sequential, 6, 1, elems_per_node, o);
            if matches!(sys, System::DArray | System::DArrayPin) {
                traffic.push((format!("{}_seq_read_6n", sys.label()), six.protocol));
            }
            let lat6 = six.avg_latency_ns(o);
            metrics.push((format!("{}_seq_read_6n_ns", sys.label()), lat6));
            lat6
        };
        rows.push(vec![
            sys.label().to_string(),
            fmt(lat1),
            if lat6.is_nan() {
                "-".to_string()
            } else {
                fmt(lat6)
            },
        ]);
    }
    print_table(
        "Figure 1 — avg latency of 8-byte sequential access (ns)",
        &["system", "single machine", "distributed (6 nodes)"],
        &rows,
    );
    println!(
        "\npaper: BCL distributed ≈ RDMA round trip (~2 µs); GAM lower than \
         BCL remotely but far above builtin locally; DArray low; DArray-Pin lowest."
    );
    match write_bench_json_with_metrics("fig01", &metrics, &traffic) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig01.json: {e}"),
    }
}
