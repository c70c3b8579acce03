//! Figure 16: running time of PageRank and Connected Components on an
//! R-MAT graph across DArray, DArray-Pin, GAM and Gemini, with scalability
//! ratios for DArray-Pin and Gemini.
//!
//! The paper runs rMat24 (2²⁴ vertices, 2²⁶ edges) on up to 12 nodes with
//! all cores; this harness defaults to rMat14 (set `FIG16_SCALE` to go
//! bigger) — the *relative* behaviour is scale-invariant (see DESIGN.md §2).
//!
//! `BENCH_fig16.json` carries every cell's exact virtual ns as `metrics`
//! (the table rounds to 3–4 digits) and the DArray engines' counters.

use darray_bench::graphs::{graph_cell_with_traffic, Algo, GraphSys};
use darray_bench::report::{fmt, print_table, scalability, write_bench_json_with_metrics};

fn main() {
    let fast = darray_bench::fast_mode();
    let scale: u32 = std::env::var("FIG16_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 11 } else { 14 });
    let iters = if fast { 2 } else { 5 };
    let node_counts: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4, 8, 12] };
    let systems = [
        GraphSys::DArray,
        GraphSys::DArrayPin,
        GraphSys::Gam,
        GraphSys::Gemini,
    ];

    let mut traffic = Vec::new();
    let mut metrics = Vec::new();
    for algo in [Algo::PageRank, Algo::Cc] {
        let mut rows = Vec::new();
        let mut speed: Vec<Vec<(usize, f64)>> = vec![Vec::new(); systems.len()];
        for &n in node_counts {
            let mut row = vec![n.to_string()];
            for (si, &sys) in systems.iter().enumerate() {
                // GAM's ownership ping-pong makes large-node cells extremely
                // slow (it is already 3+ orders of magnitude behind by 8
                // nodes); skip the largest point.
                if sys == GraphSys::Gam && n > 8 {
                    row.push("-".to_string());
                    continue;
                }
                let (t, tr) = graph_cell_with_traffic(sys, algo, n, scale, 4, iters);
                let label = format!("{}_{}_{n}n", sys.label(), algo.label());
                metrics.push((format!("{label}_ns"), t as f64));
                if let Some(tr) = tr {
                    traffic.push((label, tr));
                }
                let ms = t as f64 / 1e6;
                speed[si].push((n, 1.0 / ms)); // "throughput" = 1/time
                row.push(fmt(ms));
            }
            rows.push(row);
        }
        let mut ratio_row = vec!["scalability".to_string()];
        for s in &speed {
            ratio_row.push(fmt(scalability(s)));
        }
        rows.push(ratio_row);
        print_table(
            &format!(
                "Figure 16 — {} running time on rMat{scale} (ms, virtual)",
                algo.label()
            ),
            &["nodes", "DArray", "DArray-Pin", "GAM", "Gemini"],
            &rows,
        );
    }
    println!("\npaper: DArray 2-3 orders of magnitude faster than GAM; Gemini wins on 1 node, DArray-Pin overtakes as nodes grow (1.3x PR / 2.1x CC), with scalability 0.55/0.74 vs Gemini's 0.28/0.09.");
    match write_bench_json_with_metrics("fig16", &metrics, &traffic) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_fig16.json: {e}"),
    }
}
