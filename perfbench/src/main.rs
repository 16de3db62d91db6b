//! Wall-clock benchmark of the trilist stack.
//!
//! ```text
//! trilist-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rustc <version>]
//! ```
//!
//! Workloads: `batch_root`, `batch_hubs` (relabel → orient → list on a
//! Pareto graph, see [`batch`]), `serve_read` and `serve_edit` (an
//! in-process `trilist-serve` server on loopback, see [`serve_read`] and
//! [`serve_edit`]). Each run generates its inputs from `--seed`, measures
//! for `--seconds`, checks every output, prints a report and ends with one
//! JSON line:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//! ```
//!
//! `BENCHMARK.json` gates on three of the four workloads: `serve_read`
//! keeps both CPUs busy, and on a shared 2-vCPU host the CPU time the
//! hypervisor withheld (the `steal:` report line) moved its throughput by
//! up to half between runs. It stays runnable, and it is the only
//! workload that fills the per-layer metrics of the `list`, `predict`,
//! `explain` and `stats` kinds.
//!
//! With `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]),
//! timed with tracing off. With `--trace 1` they are the per-layer ones
//! ([`per_layer`]), read from spans recorded around the calls into each
//! layer; the spans are written to `.bench_trace/`. A workload that does
//! not exercise a layer reports 0 for it.
//!
//! Every end-to-end metric is defined on every workload; the three
//! operation latencies take the workload's own operations:
//!
//! | metric       | batch_*                      | serve_read              | serve_edit       |
//! |--------------|------------------------------|-------------------------|------------------|
//! | `op1_ms`     | fast sweep (`sweep_s`)       | closed-loop p50         | edit p50         |
//! | `op2_ms`     | paper sweep (`sweep_1t_s`)   | open-loop p50 from send | new-triangle p50 |
//! | `op3_ms`     | `autotune_plan` (`plan_s`)   | closed-loop p90         | count p50        |
//! | `throughput` | operations/s in a fast sweep | closed-loop req/s       | req/s            |
//!
//! Batch timings are 10th percentiles over a run's rounds (a sweep sums
//! each pair's own), with the medians beside them in the report; see
//! [`batch`] for why.
//!
//! `op3_ms` takes the planning time rather than the whole planned pass
//! (`planned_s`): the plan chosen flips between seeds (`refined` or
//! `desc`), and with it the pass's time, so `planned_s` is bimodal.
//!
//! The report lines before the JSON carry every metric under its own name
//! (`sweep_s`, `planned_s`, `p50_ms`, `error_rate`, …), the host block and
//! the seed. A failed check makes the process exit with status 1.

mod batch;
mod host;
mod inputs;
mod serve_edit;
mod serve_read;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions whose median is reported as `setup_s`.
pub const SETUPS: usize = 5;

/// A workload's own metric and the scale that converts it to the
/// end-to-end metric's unit.
type Source = (&'static str, f64);

/// End-to-end metrics: `(name, unit, sources for the workload families
/// batch, serve_read and serve_edit)`.
const END_TO_END: [(&str, &str, [Source; 3]); 6] = [
    ("setup_s", "s", [("setup_s", 1.0); 3]),
    ("peak_rss_mb", "MiB", [("peak_rss_mb", 1.0); 3]),
    (
        "op1_ms",
        "ms",
        [("sweep_s", 1e3), ("p50_ms", 1.0), ("edit_p50_ms", 1.0)],
    ),
    (
        "op2_ms",
        "ms",
        [
            ("sweep_1t_s", 1e3),
            ("open_rtt_p50_ms", 1.0),
            ("delta_p50_ms", 1.0),
        ],
    ),
    (
        "op3_ms",
        "ms",
        [("plan_s", 1e3), ("p90_ms", 1.0), ("read_p50_ms", 1.0)],
    ),
    (
        "throughput",
        "1/s",
        [("sweep_ops_per_s", 1.0), ("rps", 1.0), ("rps", 1.0)],
    ),
];

const METHODS: [&str; 4] = ["T1", "T2", "E1", "E4"];
const KINDS: [&str; 8] = [
    "list",
    "count",
    "predict",
    "explain",
    "stats",
    "add_edges",
    "remove_edges",
    "list_new",
];

/// Every per-layer metric with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| out.push((name, unit));
    for name in ["graph.gen_s", "graph.register_s", "graph.materialize_s"] {
        add(name.into(), "s");
    }
    for name in ["order.relabel_s", "order.orient_s", "order.tailored_s"] {
        add(name.into(), "s");
    }
    for m in METHODS {
        add(format!("core.list_s.{m}"), "s");
        add(format!("core.list_1t_s.{m}"), "s");
        add(format!("core.ops.{m}"), "count");
        add(format!("core.ops_per_s.{m}"), "1/s");
        add(format!("core.load_balance.{m}"), "ratio");
    }
    add("core.bytes_computed".into(), "bytes");
    add("core.steals".into(), "count");
    add("core.kernels_build_s".into(), "s");
    add("core.oracle_build_s".into(), "s");
    add("core.delta_s".into(), "s");
    add("core.delta_ops".into(), "count");
    add("model.price_s".into(), "s");
    add("model.plan_s".into(), "s");
    for m in METHODS {
        add(format!("model.predicted_ops.{m}"), "count");
    }
    for name in [
        "serve.store.prepare_hit_s",
        "serve.store.prepare_miss_s",
        "serve.store.edit_s",
    ] {
        add(name.into(), "s");
    }
    add("serve.store.hit_ratio".into(), "ratio");
    add("serve.store.gauge_mb".into(), "MiB");
    add("serve.store.delta_mb".into(), "MiB");
    add("serve.store.compactions".into(), "count");
    add("serve.store.gauge_gap_bytes".into(), "bytes");
    for k in KINDS {
        add(format!("serve.protocol.codec_s.{k}"), "s");
        add(format!("serve.protocol.frame_bytes.{k}"), "bytes");
    }
    for name in ["admitted", "queued", "rejected", "degraded"] {
        add(format!("serve.admission.{name}"), "count");
    }
    for k in KINDS {
        add(format!("serve.client.rtt_s.{k}"), "s");
        add(format!("serve.residual_s.{k}"), "s");
    }
    add("serve.client.late_ms".into(), "ms");
    add("trace.coverage".into(), "ratio");
    add("trace.overhead".into(), "ratio");
    out
}

/// Run settings from the command line.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rustc: String,
    /// Process start, where the first set-up is timed from.
    pub start: Instant,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Results {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Every measured metric under its own name, with its unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Results {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check's description; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok && self.mismatches.len() < 20 {
            self.mismatches.push(what());
        }
        ok
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"))
            .0
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: trilist-perfbench --workload <batch_root|batch_hubs|serve_read|serve_edit> \
         --seed <n> --seconds <s> --trace <0|1> [--rustc <version>]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Cfg {
    let start = Instant::now();
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        start,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = parse(&flag, &value),
            "--seconds" => cfg.seconds = parse(&flag, &value),
            "--trace" => cfg.trace = parse::<u8>(&flag, &value) == 1,
            "--rustc" => cfg.rustc = value,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    cfg
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let cfg = parse_args();
    let steal_at_start = host::steal_s();
    let family = match cfg.workload.as_str() {
        "batch_root" | "batch_hubs" => 0,
        "serve_read" => 1,
        "serve_edit" => 2,
        other => usage(&format!("unknown workload {other:?}")),
    };
    let mut res = match cfg.workload.as_str() {
        "batch_root" => batch::run(&cfg, &batch::ROOT),
        "batch_hubs" => batch::run(&cfg, &batch::HUBS),
        "serve_read" => serve_read::run(&cfg),
        _ => serve_edit::run(&cfg),
    };
    res.put("peak_rss_mb", host::peak_rss_mib(), "MiB");
    res.put(
        "error_rate",
        res.failed as f64 / res.attempted.max(1) as f64,
        "ratio",
    );

    let host: Vec<String> = host::block(&cfg.rustc)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("host: {}", host.join(" "));
    // CPU time the host withheld during the run, summed over all CPUs: a
    // run that lost much of it measured the neighbours as well
    println!("steal: {:.2} s", host::steal_s() - steal_at_start);
    println!(
        "workload: {} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for line in &res.notes {
        println!("note: {line}");
    }
    for (name, (value, unit)) in &res.metrics {
        println!("metric: {name} = {value:.6} {unit}");
    }
    for m in &res.mismatches {
        println!("mismatch: {m}");
    }

    let metrics: Vec<(String, f64, &str)> = if cfg.trace {
        if !res.spans.is_empty() {
            let path = std::path::Path::new(".bench_trace")
                .join(format!("{}-{}.jsonl", cfg.workload, cfg.seed));
            match trace::write_jsonl(&res.spans, &path) {
                Ok(()) => println!("spans: {} written to {}", res.spans.len(), path.display()),
                Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
            }
        }
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = res.metrics.get(&name).map_or(0.0, |m| m.0);
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, sources)| {
                let (source, scale) = sources[family];
                (name.to_string(), res.get(source) * scale, unit)
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = res.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        res.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
