//! Protocol-traffic regression diff.
//!
//! Compares a checked-in baseline `BENCH_*.json` against a freshly
//! generated one and fails (exit code 1) when any counter moved the wrong
//! way. Because every figure binary runs in deterministic virtual time,
//! the JSON is byte-identical run-to-run: the default threshold of 0%
//! catches *any* change in coherence traffic — an extra invalidation
//! round, a lost fast-path hit, a recall storm — before it shows up as a
//! latency regression.
//!
//! ```text
//! protocol_diff <baseline.json> <current.json> [--threshold-pct <f>] [--abs-slack <n>]
//!               [--transport-pct <f>] [--update]
//! ```
//!
//! Each counter is judged by the diff class its row carries in the
//! counter table (`darray::COUNTERS`); a name the table does not know is
//! judged as `lower`:
//! - `lower` (protocol traffic, faults, store activity): a rise beyond
//!   `baseline * (1 + pct/100) + slack` fails; a drop is an improvement
//!   note;
//! - `higher` (work the fast path absorbed: `fast_hits`,
//!   `local_combines`): a drop below `baseline * (1 - pct/100) - slack`
//!   fails; a rise is an improvement note;
//! - `band` (transport bytes, frames, completions and egress batching,
//!   which carry backend framing): leaving the symmetric `--transport-pct`
//!   band (default 10%) in either direction fails; drift inside it is a
//!   note.
//!
//! A section or counter present in the baseline but missing from the
//! current file fails (instrumentation was dropped); brand-new sections
//! and counters are notes (schema growth is fine).
//!
//! The `metrics` object (a figure's headline numbers: ns, Mops/s,
//! speedups) is gated too, exactly, because virtual time is exact: a
//! baseline metric that moved either way or is missing from the current
//! file fails, and a new one is a note. A file from a run over TCP
//! (`"transport": "tcp"`) carries wall-clock metrics, so the diff skips
//! the metrics gate for it and says so in a note.
//!
//! `--update` replaces the baseline with the current file (after checking
//! both parse) and exits 0 — the blessed way to regenerate baselines after
//! an intentional protocol change or a counter-schema extension, instead
//! of hand-editing JSON.
//!
//! The parser is hand-rolled for the restricted JSON the report writer
//! emits (string keys, nested objects, unsigned integers, the metrics'
//! floats) — the harness deliberately has no serde dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

use darray::{DiffClass, COUNTERS};

/// `section label -> counter name -> value`, in file order (BTreeMap for
/// stable report ordering).
type Traffic = BTreeMap<String, BTreeMap<String, u64>>;

/// `metric name -> value`.
type Metrics = BTreeMap<String, f64>;

/// What one `BENCH_*.json` file holds that the diff judges.
struct Bench {
    metrics: Metrics,
    traffic: Traffic,
    /// The run went over TCP: its metrics are wall-clock.
    tcp: bool,
}

/// Minimal recursive-descent scanner over the report-writer's JSON shape.
struct Scanner<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            let found = self.peek().map(|c| c as char);
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char, self.pos, found
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos] != b'"' {
            if self.s[self.pos] == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        if self.pos >= self.s.len() {
            return Err("unterminated string".to_string());
        }
        let out = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.pos += 1; // closing quote
        Ok(out)
    }

    /// The run of bytes from here that `part` accepts, parsed as a `T`.
    fn scalar<T: std::str::FromStr>(&mut self, part: fn(u8) -> bool) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && part(self.s[self.pos]) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        String::from_utf8_lossy(&self.s[start..self.pos])
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// A counter's unsigned integer.
    fn number(&mut self) -> Result<u64, String> {
        self.scalar(|c| c.is_ascii_digit())
    }

    /// A float such as a metric's `12.345678` (or `-1.5e-3`).
    fn float(&mut self) -> Result<f64, String> {
        self.scalar(|c| matches!(c, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
    }

    /// A `{"key": value, ...}` object; `value` parses the value after
    /// each key, given the key.
    fn object<V>(
        &mut self,
        mut value: impl FnMut(&mut Self, &str) -> Result<V, String>,
    ) -> Result<BTreeMap<String, V>, String> {
        let mut out = BTreeMap::new();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let v = value(self, &key)?;
            out.insert(key, v);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                other => return Err(format!("expected ',' or '}}' (found {other:?})")),
            }
        }
    }

    /// Skip a value we don't care about: a string, a number, or a nested
    /// object of such values.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => self.object(|sc, _| sc.skip_value()).map(|_| ()),
            _ => self.float().map(|_| ()),
        }
    }
}

/// Parse one `BENCH_*.json` body into its metrics and `protocol_traffic`
/// sections; a file may lack either.
fn parse_bench(body: &str) -> Result<Bench, String> {
    let mut bench = Bench {
        metrics: Metrics::new(),
        traffic: Traffic::new(),
        tcp: false,
    };
    Scanner::new(body).object(|sc, key| {
        match key {
            "metrics" => bench.metrics = sc.object(|sc, _| sc.float())?,
            "transport" => bench.tcp = sc.string()? == "tcp",
            "protocol_traffic" => {
                bench.traffic = sc.object(|sc, _| sc.object(|sc, _| sc.number()))?
            }
            _ => sc.skip_value()?,
        }
        Ok(())
    })?;
    Ok(bench)
}

/// One rule violation or informational note.
struct Finding {
    fatal: bool,
    msg: String,
}

/// Apply the diff rules; findings in deterministic (sorted) order.
fn diff(
    baseline: &Traffic,
    current: &Traffic,
    pct: f64,
    slack: u64,
    transport_pct: f64,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (label, base_counters) in baseline {
        let Some(cur_counters) = current.get(label) else {
            out.push(Finding {
                fatal: true,
                msg: format!("section `{label}` missing from current run"),
            });
            continue;
        };
        for (name, &base) in base_counters {
            let Some(&cur) = cur_counters.get(name) else {
                out.push(Finding {
                    fatal: true,
                    msg: format!("{label}: counter `{name}` missing from current run"),
                });
                continue;
            };
            let class = COUNTERS
                .iter()
                .find(|c| c.name == name)
                .map_or(DiffClass::Lower, |c| c.class);
            let band = if class == DiffClass::Band {
                transport_pct
            } else {
                pct
            };
            let limit = (base as f64 * (1.0 + band / 100.0)).floor() as u64 + slack;
            let floor = ((base as f64 * (1.0 - band / 100.0)).ceil() as u64).saturating_sub(slack);
            let (finding, fatal) = if class != DiffClass::Higher && cur > limit {
                let growth = if base == 0 {
                    "from zero".to_string()
                } else {
                    format!("+{:.1}%", (cur as f64 / base as f64 - 1.0) * 100.0)
                };
                (
                    format!("`{name}` regressed {base} -> {cur} ({growth}, limit {limit})"),
                    true,
                )
            } else if class != DiffClass::Lower && cur < floor {
                // For `band` a big byte/frame drop is not an improvement:
                // traffic went missing.
                let what = match class {
                    DiffClass::Band => format!("left the -{band}% transport band:"),
                    _ => "dropped".to_string(),
                };
                (
                    format!("`{name}` {what} {base} -> {cur} (floor {floor})"),
                    true,
                )
            } else if class == DiffClass::Band && cur != base {
                (
                    format!("`{name}` drifted {base} -> {cur} (within ±{band}% transport band)"),
                    false,
                )
            } else if (class == DiffClass::Lower && cur < base)
                || (class == DiffClass::Higher && cur > base)
            {
                (format!("`{name}` improved {base} -> {cur}"), false)
            } else {
                continue;
            };
            out.push(Finding {
                fatal,
                msg: format!("{label}: {finding}"),
            });
        }
        for name in cur_counters.keys() {
            if !base_counters.contains_key(name) {
                out.push(Finding {
                    fatal: false,
                    msg: format!("{label}: new counter `{name}` (not in baseline)"),
                });
            }
        }
    }
    for label in current.keys() {
        if !baseline.contains_key(label) {
            out.push(Finding {
                fatal: false,
                msg: format!("new section `{label}` (not in baseline)"),
            });
        }
    }
    out
}

/// The metrics gate: exact, unless either file comes from a TCP run.
fn gate_metrics(baseline: &Bench, current: &Bench) -> Vec<Finding> {
    if baseline.tcp || current.tcp {
        return vec![Finding {
            fatal: false,
            msg: "metrics not gated: a TCP run's timings are wall-clock".to_string(),
        }];
    }
    diff_metrics(&baseline.metrics, &current.metrics)
}

/// Hold each baseline metric exactly.
fn diff_metrics(baseline: &Metrics, current: &Metrics) -> Vec<Finding> {
    let mut out = Vec::new();
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            out.push(Finding {
                fatal: true,
                msg: format!("metric `{name}` missing from current run"),
            });
            continue;
        };
        if cur != base {
            out.push(Finding {
                fatal: true,
                msg: format!("metric `{name}` moved {base} -> {cur}"),
            });
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            out.push(Finding {
                fatal: false,
                msg: format!("new metric `{name}` (not in baseline)"),
            });
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: protocol_diff <baseline.json> <current.json> \
         [--threshold-pct <float>] [--abs-slack <int>] \
         [--transport-pct <float>] [--update]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut pct = 0.0f64;
    let mut slack = 0u64;
    let mut transport_pct = 10.0f64;
    let mut update = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threshold-pct" => {
                i += 1;
                pct = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--abs-slack" => {
                i += 1;
                slack = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--transport-pct" => {
                i += 1;
                transport_pct = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--update" => update = true,
            p if !p.starts_with("--") => paths.push(p.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage();
    }
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("protocol_diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |p: &str, body: &str| -> Bench {
        parse_bench(body).unwrap_or_else(|e| {
            eprintln!("protocol_diff: cannot parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let (bp, cp) = (&paths[0], &paths[1]);
    if update {
        // Bless the current run as the new baseline. The current file must
        // parse (a malformed report should never be checked in); the old
        // baseline need not even exist.
        let body = read(cp);
        let sections = parse(cp, &body).traffic.len();
        if let Err(e) = std::fs::write(bp, &body) {
            eprintln!("protocol_diff: cannot write {bp}: {e}");
            return ExitCode::from(2);
        }
        println!("protocol_diff: baseline {bp} updated from {cp} ({sections} section(s))");
        return ExitCode::SUCCESS;
    }
    let baseline = parse(bp, &read(bp));
    let current = parse(cp, &read(cp));

    let mut findings = diff(
        &baseline.traffic,
        &current.traffic,
        pct,
        slack,
        transport_pct,
    );
    findings.extend(gate_metrics(&baseline, &current));
    let fatal = findings.iter().filter(|f| f.fatal).count();
    for f in &findings {
        println!("{} {}", if f.fatal { "FAIL" } else { "note" }, f.msg);
    }
    let tcp = baseline.tcp || current.tcp;
    if fatal > 0 {
        let metrics = if tcp { "not gated" } else { "exact" };
        println!(
            "protocol_diff: {fatal} regression(s) vs {bp} \
             (threshold {pct}% + {slack}, transport band ±{transport_pct}%, \
             metrics {metrics})"
        );
        ExitCode::FAILURE
    } else {
        let metrics = if tcp {
            "metrics not gated (TCP run)".to_string()
        } else {
            format!("{} metric(s) unchanged", baseline.metrics.len())
        };
        println!(
            "protocol_diff: OK — {} section(s), no counter above threshold {pct}% + {slack} \
             (transport band ±{transport_pct}%); {metrics}",
            baseline.traffic.len(),
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "unit",
  "protocol_traffic": {
    "a_1n": {"fills":10,"invalidations":0,"transitions":30},
    "b_2n": {"fills":5,"invalidations":2,"transitions":9}
  }
}
"#;

    #[test]
    fn parses_sections_and_counters() {
        let t = parse_bench(SAMPLE).unwrap().traffic;
        assert_eq!(t.len(), 2);
        assert_eq!(t["a_1n"]["fills"], 10);
        assert_eq!(t["b_2n"]["invalidations"], 2);
        assert_eq!(t["b_2n"]["transitions"], 9);
    }

    const METRICS: &str = r#"{
  "bench": "fig12",
  "metrics": {
    "read_t4_rt1_mops": 12.345678,
    "read_t4_rt2_mops": 20.100000,
    "negative_exp": -1.5e-3
  },
  "protocol_traffic": {
    "read_t4_rt2": {"fills":7,"transitions":9}
  }
}
"#;

    #[test]
    fn parses_metrics_object_with_floats() {
        let b = parse_bench(METRICS).unwrap();
        assert_eq!(b.traffic.len(), 1, "metrics must not become sections");
        assert_eq!(b.traffic["read_t4_rt2"]["fills"], 7);
        assert_eq!(b.metrics.len(), 3);
        assert_eq!(b.metrics["read_t4_rt1_mops"], 12.345678);
        assert_eq!(b.metrics["negative_exp"], -1.5e-3);
    }

    #[test]
    fn identical_metrics_pass() {
        let m = parse_bench(METRICS).unwrap().metrics;
        assert!(diff_metrics(&m, &m).is_empty());
    }

    #[test]
    fn a_doctored_metric_fails_either_way() {
        let base = parse_bench(METRICS).unwrap().metrics;
        for doctored in [20.100001, 20.099999, 40.2, 10.05] {
            let mut cur = base.clone();
            cur.insert("read_t4_rt2_mops".into(), doctored);
            assert!(diff_metrics(&base, &cur).iter().any(|f| f.fatal));
        }
    }

    #[test]
    fn a_missing_metric_fails_and_a_new_one_is_a_note() {
        let base = parse_bench(METRICS).unwrap().metrics;
        let mut cur = base.clone();
        cur.remove("negative_exp");
        assert!(diff_metrics(&base, &cur).iter().any(|f| f.fatal));
        let mut grown = base.clone();
        grown.insert("write_t4_rt2_mops".into(), 3.0);
        let f = diff_metrics(&base, &grown);
        assert!(f.iter().all(|x| !x.fatal) && f.len() == 1);
    }

    #[test]
    fn writer_metrics_output_parses() {
        let body = darray_bench::report::render_bench_json_with_metrics(
            "m",
            darray::TransportKind::Sim,
            &[("x_mops".to_string(), 1.25)],
            &[(
                "x".to_string(),
                darray::NodeStatsSnapshot {
                    fills: 4,
                    ..Default::default()
                },
            )],
        );
        let parsed = parse_bench(&body).unwrap();
        assert_eq!(parsed.traffic.len(), 1);
        assert_eq!(parsed.traffic["x"]["fills"], 4);
        assert_eq!(parsed.metrics["x_mops"], 1.25);
    }

    /// A file from a TCP run is not held to its metrics, in either
    /// position, and the diff says so; Sim files still are.
    #[test]
    fn a_tcp_run_skips_the_metrics_gate() {
        let sim = parse_bench(METRICS).unwrap();
        let mut moved = parse_bench(METRICS).unwrap();
        moved.metrics.insert("read_t4_rt2_mops".into(), 3.0);
        assert!(gate_metrics(&sim, &moved).iter().any(|f| f.fatal));
        let body = darray_bench::report::render_bench_json_with_metrics(
            "fig12",
            darray::TransportKind::Tcp,
            &[("read_t4_rt2_mops".to_string(), 3.0)],
            &[],
        );
        let tcp = parse_bench(&body).unwrap();
        assert!(tcp.tcp && !sim.tcp);
        for f in [gate_metrics(&sim, &tcp), gate_metrics(&tcp, &sim)] {
            assert!(f.iter().all(|x| !x.fatal), "a TCP run's metrics were gated");
            assert!(f.iter().any(|x| x.msg.contains("not gated")), "no note");
        }
    }

    #[test]
    fn parses_empty_traffic() {
        let b = parse_bench("{\"bench\": \"x\", \"protocol_traffic\": {}}").unwrap();
        assert!(b.traffic.is_empty() && b.metrics.is_empty());
    }

    #[test]
    fn identical_files_pass() {
        let t = parse_bench(SAMPLE).unwrap().traffic;
        let f = diff(&t, &t, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal), "no fatal findings");
    }

    #[test]
    fn increase_beyond_threshold_fails() {
        let base = parse_bench(SAMPLE).unwrap().traffic;
        let mut cur = base.clone();
        *cur.get_mut("a_1n").unwrap().get_mut("fills").unwrap() = 12;
        // 20% growth: fails at 0%, fails at 10%, passes at 25%.
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(diff(&base, &cur, 10.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(!diff(&base, &cur, 25.0, 0, 10.0).iter().any(|f| f.fatal));
        // An absolute slack of 2 also forgives it at 0%.
        assert!(!diff(&base, &cur, 0.0, 2, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn growth_from_zero_fails_without_slack() {
        let base = parse_bench(SAMPLE).unwrap().traffic;
        let mut cur = base.clone();
        *cur.get_mut("a_1n")
            .unwrap()
            .get_mut("invalidations")
            .unwrap() = 1;
        assert!(diff(&base, &cur, 50.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(!diff(&base, &cur, 0.0, 1, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn missing_section_or_counter_fails() {
        let base = parse_bench(SAMPLE).unwrap().traffic;
        let mut cur = base.clone();
        cur.remove("b_2n");
        assert!(diff(&base, &cur, 100.0, 99, 10.0).iter().any(|f| f.fatal));
        let mut cur2 = base.clone();
        cur2.get_mut("a_1n").unwrap().remove("transitions");
        assert!(diff(&base, &cur2, 100.0, 99, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn decreases_and_new_counters_are_notes() {
        let base = parse_bench(SAMPLE).unwrap().traffic;
        let mut cur = base.clone();
        *cur.get_mut("a_1n").unwrap().get_mut("fills").unwrap() = 1;
        cur.get_mut("a_1n")
            .unwrap()
            .insert("epochs_aborted".into(), 0);
        cur.insert("c_3n".into(), BTreeMap::new());
        let f = diff(&base, &cur, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal));
        assert_eq!(f.len(), 3, "improvement + new counter + new section noted");
    }

    #[test]
    fn transport_counters_diff_in_their_own_band() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"bytes_tx":1000,"frames":50}
               }}"#,
        )
        .unwrap()
        .traffic;
        // +8% bytes_tx: inside the default ±10% band even at protocol
        // threshold 0 — a note, not a failure.
        let mut cur = base.clone();
        *cur.get_mut("w_2n").unwrap().get_mut("bytes_tx").unwrap() = 1080;
        let f = diff(&base, &cur, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal), "within band must pass");
        assert!(
            f.iter().any(|x| x.msg.contains("transport band")),
            "drift inside the band is still reported"
        );
        // +20% leaves the band upward.
        *cur.get_mut("w_2n").unwrap().get_mut("bytes_tx").unwrap() = 1200;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // -20% leaves it downward: missing wire traffic is NOT an
        // improvement, unlike a protocol-counter decrease.
        *cur.get_mut("w_2n").unwrap().get_mut("bytes_tx").unwrap() = 800;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // A wider band forgives the same drop.
        assert!(!diff(&base, &cur, 0.0, 0, 25.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn transport_band_is_independent_of_protocol_threshold() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"frames":50}
               }}"#,
        )
        .unwrap()
        .traffic;
        let mut cur = base.clone();
        // transitions +5% must still fail at the exact protocol threshold
        // even when the transport band would allow it.
        *cur.get_mut("w_2n").unwrap().get_mut("transitions").unwrap() = 105;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // frames +5% rides the transport band and passes at the same knobs.
        let mut cur2 = base.clone();
        *cur2.get_mut("w_2n").unwrap().get_mut("frames").unwrap() = 52;
        assert!(!diff(&base, &cur2, 0.0, 0, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn batching_counters_ride_the_transport_band() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"tx_flushes":40,
                          "doorbell_batches":10,"frames_coalesced":60,
                          "ring_hwm":20}
               }}"#,
        )
        .unwrap()
        .traffic;
        // Small drift in either direction stays inside the ±10% band even
        // at protocol threshold 0.
        let mut cur = base.clone();
        *cur.get_mut("w_2n").unwrap().get_mut("tx_flushes").unwrap() = 42;
        *cur.get_mut("w_2n").unwrap().get_mut("ring_hwm").unwrap() = 19;
        assert!(!diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // Doubling the batch count leaves the band and fails.
        *cur.get_mut("w_2n")
            .unwrap()
            .get_mut("doorbell_batches")
            .unwrap() = 20;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn higher_counters_fail_on_a_drop_and_note_a_rise() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"fast_hits":100,"transitions":10}
               }}"#,
        )
        .unwrap()
        .traffic;
        let mut cur = base.clone();
        *cur.get_mut("w_2n").unwrap().get_mut("fast_hits").unwrap() = 99;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // The drop fails at the exact threshold even inside the transport
        // band, and a matching slack forgives it.
        assert!(!diff(&base, &cur, 0.0, 1, 10.0).iter().any(|f| f.fatal));
        *cur.get_mut("w_2n").unwrap().get_mut("fast_hits").unwrap() = 150;
        let f = diff(&base, &cur, 0.0, 0, 10.0);
        assert!(
            f.iter().all(|x| !x.fatal),
            "a rise of a higher counter passes"
        );
        assert!(f.iter().any(|x| x.msg.contains("improved")));
    }

    #[test]
    fn real_report_roundtrip() {
        // The writer's own output must parse (guards format drift).
        let t = darray::NodeStatsSnapshot {
            fills: 3,
            epochs_aborted: 1,
            ..Default::default()
        };
        let body = darray_bench::report::render_bench_json_with_metrics(
            "rt",
            darray::TransportKind::Sim,
            &[],
            &[("w_1n".to_string(), t)],
        );
        let parsed = parse_bench(&body).unwrap().traffic;
        assert_eq!(parsed["w_1n"]["fills"], 3);
        assert_eq!(parsed["w_1n"]["epochs_aborted"], 1);
        assert_eq!(parsed["w_1n"]["orphaned_locks_reclaimed"], 0);
        assert_eq!(parsed["w_1n"]["flush_persists"], 0);
        assert_eq!(parsed["w_1n"]["recovered_chunks"], 0);
    }
}
