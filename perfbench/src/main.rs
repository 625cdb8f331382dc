//! The repository benchmark: drives a real Propeller `Cluster` through the
//! public `FileQueryEngine` API and reports end-to-end metrics (untraced
//! run) or per-layer metrics (traced run) for one workload.
//!
//! ```text
//! perfbench --workload <attr_topk|content_ranked|ingest_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny] [--tmp <dir>]
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (`name -> {value, unit}`); the line
//! before it is `{"meta": {...}}` with the run's sizes and sample counts.

mod check;
mod gen;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use propeller_cluster::MetricsSnapshot;
use propeller_obs::names;

use crate::layers::Layers;
use crate::stats::{hist_delta, hist_quantile, tail_q, Sample};
use crate::workload::{Inputs, Namespace, Spec, Tally, Window};

/// Searches replayed layer by layer in a traced run.
const TRACED_SEARCHES: usize = 300;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tmp: PathBuf::from(".perfbench_tmp"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--scale" => args.tiny = value()? == "tiny",
            "--tmp" => args.tmp = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Ordered `name -> (value, unit)` metrics and the run metadata.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Registry histogram `name` over the window, or over the cluster's whole
/// life when the window recorded nothing (e.g. ingest on read workloads,
/// where only the preload wrote).
fn window_hist(win: &Window, name: &str, report: &mut Report) -> propeller_obs::HistogramSnapshot {
    let end = win.metrics_end.histograms.get(name).cloned().unwrap_or_default();
    let delta = hist_delta(&end, win.metrics_start.histograms.get(name));
    let (hist, scope) = if delta.count > 0 { (delta, "window") } else { (end, "cluster_life") };
    report.meta(&format!("obs.{name}.scope"), scope);
    report.meta(&format!("obs.{name}.count"), hist.count);
    hist
}

fn counter_delta(end: &MetricsSnapshot, start: &MetricsSnapshot, name: &str) -> u64 {
    let get = |m: &MetricsSnapshot| m.counters.get(name).copied().unwrap_or(0);
    get(end).saturating_sub(get(start))
}

fn run(args: &Args, spec: &Spec) -> (Report, Tally) {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let seed = args.seed;
    let inputs = Inputs::generate(spec, seed);
    let dir = workload::scratch_dir(&args.tmp, spec.name);

    // Set-up: several full set-ups in an untraced run, `setup_s` is their
    // median; the last one is measured.
    let setups = if args.trace { 1 } else { spec.setups };
    let mut setup_s = Sample::default();
    let mut preload_lag = Sample::default();
    let mut ready = None;
    for i in 0..setups {
        let origin = Instant::now();
        let r = workload::setup(spec, seed, &inputs, &dir, &mut tally);
        setup_s.push(r.setup_s);
        preload_lag.extend(&r.preload_lag_ms);
        if i + 1 == setups {
            ready = Some((r, origin));
        } else {
            r.cluster.shutdown();
        }
    }
    let (ready, origin) = ready.expect("at least one set-up");

    let ns = spec.writer.map(|_| Namespace::new(&inputs.records));
    let mut layers = Layers::default();
    let (cluster, win, ns) =
        workload::window(spec, ready, &inputs, ns, seed, args.seconds, |cluster| {
            if args.trace {
                layers::trace_cluster(cluster, origin, &inputs, TRACED_SEARCHES, seed, &mut layers);
            }
        });
    tally.add(win.tally);
    tally.add(workload::check_searches(&win, &inputs));
    if args.trace {
        layers::trace_index(spec, &inputs, &dir.join("probes"), seed, &mut layers);
        tally.add(layers.tally);
    }

    // Restarts from the data dir: `recovery_s` is their median; the first
    // one is followed by the durability check.
    let live = ns.as_ref().map(|ns| &ns.live);
    let (probe, expect) = inputs.probe(live);
    let mut recovery_s = Sample::default();
    let mut cluster = cluster;
    for i in 0..spec.restarts {
        let (next, secs) =
            workload::restart(cluster, &probe, &expect, inputs.tokens.as_ref(), &mut tally);
        cluster = next;
        recovery_s.push(secs);
        if i == 0 {
            if let Some(ns) = &ns {
                tally.add(workload::durability_check(&cluster, ns, spec.durability_sample, seed));
            }
        }
    }
    let data_bytes = workload::dir_bytes(&dir);
    let live_bytes = match &ns {
        Some(ns) => workload::live_bytes(ns.live.values()),
        None => workload::live_bytes(inputs.records.iter()),
    };
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let searches_where = |keep: &dyn Fn(&workload::SearchOutcome) -> bool| {
        Sample(win.searches.iter().filter(|s| keep(s)).map(|s| s.ms).collect())
    };
    let search_ms = searches_where(&|_| true);
    let ingest_lag = if spec.writer.is_some() { win.ingest_lag_ms.clone() } else { preload_lag };

    report.meta("workload", spec.name);
    report.meta("seed", seed);
    report.meta("seconds", args.seconds);
    report.meta("trace", u8::from(args.trace));
    report.meta("scale", if args.tiny { "tiny" } else { "full" });
    report.meta("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    report.meta("files", spec.files);
    report.meta("nodes", spec.nodes);
    report.meta("acgs_per_node", spec.acgs_per_node);
    report.meta("replication", spec.replication);
    report.meta("route_cache_capacity", workload::ROUTE_CACHE_CAPACITY);
    report.meta("snapshot_wal_ops", workload::SNAPSHOT_WAL_OPS);
    if let Some(w) = spec.writer {
        report.meta("writer.batch_ops", w.batch_ops);
        report.meta("writer.interval_ms", w.interval.as_secs_f64() * 1e3);
        report.meta("writer.ops_per_s", w.batch_ops as f64 / w.interval.as_secs_f64());
    }
    report.meta("setups", setup_s.len());
    report.meta("restarts", recovery_s.len());
    report.meta("search.n", search_ms.len());
    report.meta("search.tail_q", tail_q(search_ms.len()));
    report.meta("ingest_lag.n", ingest_lag.len());
    report.meta("ingest_lag.tail_q", tail_q(ingest_lag.len()));
    report.meta(
        "ingest_lag.source",
        if spec.writer.is_some() { "open_loop_window" } else { "preload_batches" },
    );
    report.meta("data_bytes", data_bytes);
    let slices: Vec<String> = (0..5)
        .map(|i| {
            let (lo, hi) = (args.seconds * i as f64 / 5.0, args.seconds * (i + 1) as f64 / 5.0);
            format!("{:.3}", searches_where(&|s| s.at_s >= lo && s.at_s < hi).p50())
        })
        .collect();
    report.meta("search.p50_ms_by_fifth", slices.join(" "));
    let classes: &[&str] = match spec.corpus {
        gen::Corpus::Attr => &gen::ATTR_CLASSES,
        gen::Corpus::Content => &gen::CONTENT_CLASSES,
    };
    for (class, label) in classes.iter().enumerate() {
        let sample = searches_where(&|s| inputs.pool[s.query].class == class);
        report.meta(&format!("search.{label}.p50_ms"), sample.p50());
        report.meta(&format!("search.{label}.n"), sample.len());
    }
    report.meta("live_bytes", live_bytes);

    if !args.trace {
        report.metric("setup_s", setup_s.p50(), "s");
        report.metric("search_qps", search_ms.len() as f64 / win.seconds, "1/s");
        report.metric("search_p50_ms", search_ms.p50(), "ms");
        report.metric("ingest_lag_p50_ms", ingest_lag.p50(), "ms");
        report.metric("recovery_s", recovery_s.p50(), "s");
        report.metric("space_amp", ratio(data_bytes, live_bytes), "ratio");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return (report, tally);
    }

    // Per-layer: counts from the window's SearchStats and registries ...
    let sums = win.sums;
    let per_search = |n: u64| ratio(n, sums.searches);
    report.metric("query.candidates_per_hit", ratio(sums.candidates, sums.hits), "count");
    report.metric("query.acgs_per_search", per_search(sums.acgs), "count");
    report.metric("query.wand_docs_pruned_per_search", per_search(sums.wand_docs_pruned), "count");
    report.metric(
        "query.wand_blocks_skipped_per_search",
        per_search(sums.wand_blocks_skipped),
        "count",
    );
    report.metric("client.pages_per_search", per_search(sums.pages), "count");
    report.metric("client.hits_shipped_per_search", per_search(sums.hits_shipped), "count");
    report.metric(
        "client.route_cache_hit_ratio",
        ratio(win.route_hits, win.route_hits + win.route_misses),
        "ratio",
    );
    for (name, q, key) in [
        (names::SEARCH_LATENCY, 0.5, "p50"),
        (names::SEARCH_LATENCY, 0.99, "p99"),
        (names::PULL_LATENCY, 0.5, "p50"),
        (names::EPOCH_PIN_WAIT, 0.99, "p99"),
        (names::INGEST_LATENCY, 0.5, "p50"),
        (names::INGEST_LATENCY, 0.99, "p99"),
        (names::WAL_FSYNC, 0.5, "p50"),
        (names::WAL_FSYNC, 0.99, "p99"),
        (names::SNAPSHOT_DURATION, 0.5, "p50"),
    ] {
        let hist = window_hist(&win, name, &mut report);
        report.metric(&format!("obs.{name}.{key}"), hist_quantile(&hist, q), "us");
    }
    let snapshots = counter_delta(&win.metrics_end, &win.metrics_start, names::SNAPSHOTS_OFFLOADED);
    report.metric("obs.snapshots", snapshots as f64, "count");
    // The tails repeat too poorly across runs to gate on: they are
    // diagnostics here, measured exactly as in the untraced run.
    report.metric("search_p99_ms", search_ms.tail(), "ms");
    report.metric("ingest_lag_p99_ms", ingest_lag.tail(), "ms");
    report.metric("driver.late_p99_ms", win.late_ms.tail(), "ms");
    report.metric("driver.failed_frac", ratio(tally.failed, tally.attempted), "ratio");

    // ... and timed calls from the traced phase.
    let l = &layers;
    for (name, sample, p99) in [
        ("master.locate_us", &l.locate_us, true),
        ("rpc.hop_us", &l.hop_us, true),
        ("index_node.open_us", &l.open_us, true),
        ("index_node.pull_us", &l.pull_us, true),
        ("index_node.close_us", &l.close_us, true),
        ("master.resolve_us", &l.resolve_us, true),
        ("client.merge_us", &l.merge_us, false),
        ("query.plan_us", &l.plan_us, false),
        ("index.enqueue_us_per_op", &l.enqueue_us_per_op, false),
        ("index.commit_us", &l.commit_us, false),
        ("index.wal_append_us", &l.wal_append_us, false),
        ("index.wal_sync_us", &l.wal_sync_us, false),
        ("index.snapshot_us", &l.snapshot_us, false),
    ] {
        report.metric(&format!("{name}.p50"), sample.p50(), "us");
        if p99 {
            report.metric(&format!("{name}.p99"), sample.tail(), "us");
        }
        report.meta(&format!("{name}.n"), sample.len());
    }
    for path in layers::PATHS {
        let sample = l.exec_us.get(path).cloned().unwrap_or_default();
        report.metric(&format!("query.exec_us.{path}.p50"), sample.p50(), "us");
        report.meta(&format!("query.exec_us.{path}.n"), sample.len());
    }
    report.metric("rpc.calls_per_search", l.calls_per_search.p50(), "count");
    report.metric("index.wal_bytes_per_op", l.wal_bytes_per_op.p50(), "bytes");
    let engine_p50 = l.engine_ms.p50();
    report.metric("trace.attributed_frac", l.blocking_ms.p50() / engine_p50, "ratio");
    report.metric("trace.overhead_frac", l.replay_ms.p50() / engine_p50 - 1.0, "ratio");
    report.meta("trace.sampled_searches", l.traced_searches);
    report.meta("trace.engine_p50_ms", engine_p50);
    report.meta("trace.replay_p50_ms", l.replay_ms.p50());
    report.meta("trace.blocking_p50_ms", l.blocking_ms.p50());
    (report, tally)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workload::WORKLOADS
        );
        std::process::exit(2);
    };
    let (report, tally) = run(&args, &spec);

    let mut meta = String::from("{\"meta\": {");
    for (i, (k, v)) in report.meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = v.parse::<f64>().map_or_else(|_| json_string(v), |_| v.clone());
        let _ = write!(meta, "{sep}{}: {value}", json_string(k));
    }
    meta.push_str("}}");
    println!("{meta}");

    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && finite,
        tally.attempted.max(1),
        tally.failed,
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(*value),
            json_string(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
}
