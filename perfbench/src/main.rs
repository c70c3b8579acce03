//! `darray-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the workload — set-up, measured window, checks — until `--seconds`
//! have passed (at least [`MIN_REPS`] times), then prints the effective
//! configuration, every metric with its unit and base, and as its last line
//! one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero if any output was wrong or two
//! repetitions disagreed in virtual time.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use darray_perfbench::{cluster_config, host, report, run_once, Workload};

/// Repetitions every run makes at least, so host medians have a middle.
const MIN_REPS: usize = 3;

/// Environment knobs the library or the figure binaries read. They are
/// cleared so they cannot change what is measured.
const IGNORED_ENV: [&str; 5] = [
    "DARRAY_RUNTIME_THREADS",
    "DARRAY_TRANSPORT",
    "DARRAY_TRACE_CHUNK",
    "DARRAY_TRACE_ARRAY",
    "FIG_FAST",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    for var in IGNORED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: darray-perfbench --workload <kvs-zipf95|array-uniform|pagerank-rmat16> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to report host metrics from a debug build; build with --release");
        return ExitCode::from(2);
    }

    let pinned = host::pin_to_current_cpu();
    let spec = args.workload.spec();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Peak RSS after one repetition: later ones reuse the memory, but how
    // much the allocator keeps would otherwise depend on how many fit.
    let mut peak_rss_mib = 0.0;
    while plain.len() < MIN_REPS || started.elapsed() < budget {
        plain.push(run_once(&spec, args.seed, false));
        if plain.len() == 1 {
            peak_rss_mib = host::peak_rss_mib();
        }
        if args.trace {
            traced.push(run_once(&spec, args.seed, true));
        }
    }

    let first = &plain[0];
    let deterministic = plain.iter().chain(&traced).all(|r| r.virt == first.virt)
        && traced.iter().all(|r| r.spans == traced[0].spans);
    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.virt.attempted).sum();
    let failed: u64 = all().map(|r| r.virt.failed).sum();
    let correct = deterministic && failed == 0;

    let cfg = cluster_config();
    println!(
        "config: workload={} seed={} nodes={} runtime_threads={} app_threads={} cache_lines={} \
         line_words={} transport={:?} build=release pinned_cpu={pinned:?} reps={} traced_reps={} {spec:?}",
        args.workload.name(),
        args.seed,
        cfg.nodes,
        cfg.runtime_threads,
        spec.app_threads(),
        cfg.cache.capacity_lines,
        cfg.cache.line_words,
        cfg.transport,
        plain.len(),
        traced.len(),
    );
    let cpu: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}", r.window_cpu.as_secs_f64()))
        .collect();
    println!(
        "host window CPU per untraced repetition (s): {}",
        cpu.join(" ")
    );
    println!(
        "check: fail_ratio={} ({failed} failed / {attempted} attempted), virtual metrics identical across repetitions: {deterministic}",
        failed as f64 / attempted as f64
    );
    let e2e = report::end_to_end(&plain, peak_rss_mib);
    print!("end-to-end:\n{}", report::lines(&e2e));
    print!("host cost:\n{}", report::lines(&[report::sim_cpu(&plain)]));
    let metrics = if args.trace {
        let layers = report::per_layer(&plain, &traced);
        print!("per-layer (traced):\n{}", report::lines(&layers));
        layers
    } else {
        let api = report::api_latency(first);
        print!("api latency (virtual):\n{}", report::lines(&api));
        e2e
    };
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
