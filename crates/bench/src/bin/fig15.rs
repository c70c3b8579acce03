//! Figure 15: DArray vs DArray-Pin sequential 8-byte read throughput
//! (paper: Pin wins by 1.8×–2.9×). `BENCH_fig15.json` holds both
//! variants' throughput (`metrics`) and counters per node count.

use darray_bench::micro::{micro, Op, Pattern, System};
use darray_bench::report::{fmt, print_table, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    let elems_per_node = if fast { 4_096 } else { 8_192 };
    let ops: u64 = if fast { 8_192 } else { 50_000 };
    let node_counts: &[usize] = if fast {
        &[1, 3]
    } else {
        &[1, 2, 4, 6, 8, 10, 12]
    };

    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    let mut traffic = Vec::new();
    for &n in node_counts {
        let [plain, pin] = [System::DArray, System::DArrayPin].map(|sys| {
            let out = micro(
                sys,
                Op::Read,
                Pattern::Sequential,
                n,
                1,
                elems_per_node,
                ops,
            );
            let label = format!("{}_{n}n", sys.label());
            metrics.push((format!("{label}_mops"), out.mops()));
            traffic.push((label, out.protocol));
            out
        });
        rows.push(vec![
            n.to_string(),
            fmt(plain.mops()),
            fmt(pin.mops()),
            fmt(pin.mops() / plain.mops()),
        ]);
    }
    print_table(
        "Figure 15 — sequential 8-byte read throughput (Mops/s)",
        &["nodes", "DArray", "DArray-Pin", "speedup"],
        &rows,
    );
    println!("\npaper: DArray-Pin outperforms DArray by 1.8x to 2.9x.");
    // The note goes to stderr so stdout stays the figure alone.
    match write_bench_json_with_metrics("fig15", &metrics, &traffic) {
        Ok(p) => eprintln!("protocol traffic + throughput written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig15.json: {e}"),
    }
}
