//! End-to-end and per-layer benchmark of the powerprog workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Prints a human-readable report, then one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of the
//! traced run (whose spans are also written to `--trace-out` as JSONL).
//! See README.md for the workloads and metric definitions.

mod arbiterd_shards;
mod cluster_halo;
mod common;
mod paper_sweep;
mod sched_envelope;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{median, peak_rss_mb, tail, RunResult};

const WORKLOADS: [&str; 4] = [
    "paper-sweep",
    "cluster-halo",
    "arbiterd-shards",
    "sched-envelope",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        trace_out,
    })
}

/// JSON has no NaN or infinity: an undefined ratio reads 0.
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_metrics(ms: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The end-to-end metrics of BENCHMARK.json, measured with tracing off.
/// Host times enter relative to the reference kernel sampled just before
/// them, which cancels the host's drift in speed within and between runs:
/// each op's time as a multiple of the latest sample, and each set-up's
/// time rescaled to the kernel's nominal speed.
fn end_to_end(r: &RunResult) -> Vec<(String, f64, &'static str)> {
    let (p50, tail, _) = r.ops.relative();
    vec![
        ("setup_s".into(), r.setup.nominal_s(), "s"),
        ("op_p50_ref".into(), p50, "ratio"),
        ("op_tail_ref".into(), tail, "ratio"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Host-time metrics printed in the report only: they move with the
/// host's speed from run to run.
fn host_times(r: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let (_, tail_ms) = tail(&r.ops.lat_ms);
    vec![
        ("setup_raw_s", median(&r.setup.raw_s), "s"),
        ("op_ms_p50", median(&r.ops.lat_ms), "ms"),
        ("op_ms_tail", tail_ms, "ms"),
        (
            "ops_per_s",
            (r.ops.attempted - r.ops.failed) as f64 / r.wall_s,
            "1/s",
        ),
        ("ref_ms", r.ref_ms, "ms"),
    ]
}

/// The per-layer metrics of BENCHMARK.json, from the traced run. Counts
/// and self times are per traced op; layers a workload never enters read 0.
fn per_layer() -> Vec<(String, f64, &'static str)> {
    let n = trace::counter("perfbench.traced_ops").max(1.0);
    let calls = |s: &str| trace::stat(s).calls as f64 / n;
    let self_ms = |s: &str| trace::stat(s).self_ms() / n;
    let per_op = |c: &str| trace::counter(c) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let steps = trace::counter("simnode.steps");
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("simnode.step_until.calls", steps / n, "count");
    put(
        "simnode.step_until.self_ms",
        self_ms("simnode.step_until"),
        "ms",
    );
    put(
        "simnode.sim_ns_per_call",
        ratio(trace::counter("perfbench.sim_ns"), steps),
        "ns",
    );
    put("simnode.msr.reads", per_op("simnode.msr.reads"), "count");
    put("simnode.msr.writes", per_op("simnode.msr.writes"), "count");
    put("simnode.msr.self_ms", self_ms("simnode.msr"), "ms");
    put("nrm.tick.calls", calls("nrm.tick"), "count");
    put("nrm.tick.self_ms", self_ms("nrm.tick"), "ms");
    put(
        "nrm.tick.fallback_frac",
        ratio(
            trace::counter("nrm.tick.fallbacks"),
            trace::stat("nrm.tick").calls as f64,
        ),
        "ratio",
    );
    put("progress.poll.calls", calls("progress.poll"), "count");
    put("progress.poll.self_ms", self_ms("progress.poll"), "ms");
    put("progress.events", per_op("progress.events"), "count");
    put(
        "proxyapps.driver.self_ms",
        self_ms("proxyapps.driver"),
        "ms",
    );
    put(
        "core.par_map.util",
        ratio(
            trace::counter("core.par_map.busy_ms"),
            trace::counter("core.par_map.capacity_ms"),
        ),
        "ratio",
    );
    put("cluster.run.self_ms", self_ms("cluster.run"), "ms");
    put(
        "cluster.grant_change_frac",
        ratio(
            trace::counter("cluster.grant_changes"),
            trace::counter("cluster.grant_slots"),
        ),
        "ratio",
    );
    for layer in [
        "cluster.comm.exchange",
        "cluster.arbiter.redistribute",
        "cluster.partition.redistribute",
    ] {
        put(&format!("{layer}.calls"), calls(layer), "count");
        put(&format!("{layer}.self_ms"), self_ms(layer), "ms");
    }
    put(
        "arbiterd.proto.encode.self_ms",
        self_ms("arbiterd.proto.encode"),
        "ms",
    );
    put(
        "arbiterd.proto.decode.self_ms",
        self_ms("arbiterd.proto.decode"),
        "ms",
    );
    put("arbiterd.proto.bytes", per_op("arbiterd.proto.bytes"), "B");
    put(
        "arbiterd.service.ingest.calls",
        calls("arbiterd.service.ingest"),
        "count",
    );
    put(
        "arbiterd.service.ingest.self_ms",
        self_ms("arbiterd.service.ingest"),
        "ms",
    );
    put(
        "arbiterd.sharded.tick.self_ms",
        self_ms("arbiterd.sharded.tick"),
        "ms",
    );
    put(
        "arbiterd.service.refused_frac",
        ratio(
            trace::counter("arbiterd.refused"),
            trace::counter("arbiterd.offered"),
        ),
        "ratio",
    );
    put("sched.simulate.self_ms", self_ms("sched.simulate"), "ms");
    put("sched.events", per_op("sched.events"), "count");
    for layer in ["sched.admission.reserve", "powermodel.predict"] {
        put(&format!("{layer}.calls"), calls(layer), "count");
        put(&format!("{layer}.self_ms"), self_ms(layer), "ms");
    }
    put(
        "trace.overhead_ms",
        trace::counter("perfbench.trace_overhead_ms"),
        "ms",
    );
    out
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    common::install_panic_hook();
    let run = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::run,
        "cluster-halo" => cluster_halo::run,
        "arbiterd-shards" => arbiterd_shards::run,
        _ => sched_envelope::run,
    };
    let r = run(args.seed, args.seconds, args.traced);

    let ops = &r.ops;
    let (tail_p, _) = tail(&ops.lat_ms);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!(
        "  ops            {} attempted, {} failed, {} timed",
        ops.attempted,
        ops.failed,
        ops.lat_ms.len()
    );
    println!(
        "  fail_frac      {:.6} ratio",
        ops.failed as f64 / ops.attempted.max(1) as f64
    );
    let e2e = end_to_end(&r);
    let host = host_times(&r);
    let rows = e2e
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .chain(host)
        .chain(r.extra.iter().copied());
    for (name, v, unit) in rows {
        let note = match name {
            "setup_s" | "setup_raw_s" => format!("  (median of {} set-ups)", r.setup.raw_s.len()),
            "op_ms_tail" => format!("  (p{tail_p}, n={})", ops.lat_ms.len()),
            "op_p50_ref" | "op_tail_ref" => format!(
                "  (geometric mean over op kinds; kind: n, tail percentile: {})",
                ops.rel
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| !k.is_empty())
                    .zip(ops.relative().2)
                    .map(|((i, k), p)| format!("{i}: {}, p{p}", k.len()))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            "ref_ms" => "  (median reference-kernel time)".into(),
            _ => String::new(),
        };
        println!("  {name:<14} {v:.6} {unit}{note}");
    }
    println!("  fingerprint    {:016x}", r.fingerprint);
    for n in &r.notes {
        println!("  {n}");
    }

    let metrics = if args.traced {
        let layers = per_layer();
        for (name, v, unit) in &layers {
            println!("  {name:<36} {:.6} {unit}", num(*v));
        }
        if let Some(path) = &args.trace_out {
            match trace::write_jsonl(path) {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        layers
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        ops.attempted,
        ops.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
