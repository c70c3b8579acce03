//! Figure 13: sequential Read / Write / Operate throughput (Mops/s) with
//! increasing node counts (one thread per node, array weak-scaled with the
//! node count), plus the scalability ratios the paper quotes (§6.2:
//! DArray 0.82/0.76/0.87, GAM 0.72/0.68/0.73, BCL 0.52/0.52).
//!
//! DArray cells sweep `runtime_threads ∈ {1, 2, 4}` alongside the node
//! count; throughput lands in the `metrics` object and coherence traffic
//! in the `protocol_traffic` sections of `BENCH_fig13.json`.

use darray::NodeStatsSnapshot;
use darray_bench::micro::{micro_rt, Op, Pattern, System};
use darray_bench::report::{fmt, print_table, scalability, write_bench_json_with_metrics};

const RT_SWEEP: [usize; 3] = [1, 2, 4];

fn op_key(op: Op) -> &'static str {
    match op {
        Op::Read => "read",
        Op::Write => "write",
        Op::Operate => "operate",
    }
}

fn main() {
    let fast = darray_bench::fast_mode();
    let elems_per_node = if fast { 4_096 } else { 8_192 };
    let ops: u64 = if fast { 4_096 } else { 40_000 };
    let bcl_ops: u64 = if fast { 512 } else { 2_500 };
    let node_counts: &[usize] = if fast {
        &[1, 3]
    } else {
        &[1, 2, 3, 4, 6, 8, 10, 12]
    };

    let mut traffic: Vec<(String, NodeStatsSnapshot)> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    for op in [Op::Read, Op::Write, Op::Operate] {
        let mut rows = Vec::new();
        // Scaling curves: one per DArray runtime-thread count, then GAM, BCL.
        let mut d_pts: Vec<Vec<(usize, f64)>> = vec![Vec::new(); RT_SWEEP.len()];
        let mut g_pts: Vec<(usize, f64)> = Vec::new();
        let mut b_pts: Vec<(usize, f64)> = Vec::new();
        for &n in node_counts {
            let mut d_cells = Vec::new();
            for (i, &rts) in RT_SWEEP.iter().enumerate() {
                let d = micro_rt(
                    System::DArray,
                    op,
                    Pattern::Sequential,
                    n,
                    1,
                    elems_per_node,
                    ops,
                    rts,
                );
                let label = format!("{}_n{n}_rt{rts}", op_key(op));
                metrics.push((format!("{label}_mops"), d.mops()));
                traffic.push((label, d.protocol));
                d_pts[i].push((n, d.mops()));
                d_cells.push(d.mops());
            }
            let g = micro_rt(
                System::Gam,
                op,
                Pattern::Sequential,
                n,
                1,
                elems_per_node,
                ops,
                1,
            );
            metrics.push((format!("{}_n{n}_gam_mops", op_key(op)), g.mops()));
            g_pts.push((n, g.mops()));
            let b = if op == Op::Operate {
                None
            } else {
                let b = micro_rt(
                    System::Bcl,
                    op,
                    Pattern::Sequential,
                    n,
                    1,
                    elems_per_node,
                    bcl_ops,
                    1,
                );
                metrics.push((format!("{}_n{n}_bcl_mops", op_key(op)), b.mops()));
                b_pts.push((n, b.mops()));
                Some(b)
            };
            let mut row = vec![n.to_string()];
            row.extend(d_cells.iter().map(|&m| fmt(m)));
            row.push(fmt(g.mops()));
            row.push(b.map(|x| fmt(x.mops())).unwrap_or_else(|| "-".into()));
            rows.push(row);
        }
        let ratios = vec![vec![
            "scalability".to_string(),
            fmt(scalability(&d_pts[0])),
            fmt(scalability(&d_pts[1])),
            fmt(scalability(&d_pts[2])),
            fmt(scalability(&g_pts)),
            // BCL's single-node run is all-local (no RMA at all), so its
            // scalability is measured from the first distributed point.
            if b_pts.len() < 3 {
                "-".to_string()
            } else {
                fmt(scalability(&b_pts[1..]))
            },
        ]];
        metrics.push((
            format!("{}_scalability_rt1", op_key(op)),
            scalability(&d_pts[0]),
        ));
        metrics.push((
            format!("{}_scalability_rt2", op_key(op)),
            scalability(&d_pts[1]),
        ));
        let mut all = rows;
        all.extend(ratios);
        print_table(
            &format!(
                "Figure 13{} — sequential {} throughput vs nodes (Mops/s), 1 thread/node",
                match op {
                    Op::Read => "a",
                    Op::Write => "b",
                    Op::Operate => "c",
                },
                op.label()
            ),
            &[
                "nodes",
                "DArray rt=1",
                "DArray rt=2",
                "DArray rt=4",
                "GAM",
                "BCL",
            ],
            &all,
        );
    }

    match write_bench_json_with_metrics("fig13", &metrics, &traffic) {
        Ok(p) => println!("\nprotocol traffic + throughput written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig13.json: {e}"),
    }
    println!("paper scalability ratios: DArray 0.82/0.76/0.87, GAM 0.72/0.68/0.73, BCL 0.52/0.52.");
}
