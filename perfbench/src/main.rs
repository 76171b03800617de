//! perfbench — end-to-end loopback benchmark for the SMB flow server.
//!
//! ```text
//! perfbench --workload <caida_trace|heavy_hitters|wide_flows> --seed N
//!           --seconds S --trace <0|1> [--scale tiny] [--inject-fault]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON
//! object; human-readable detail (sample counts, what each layer
//! metric should move) goes to standard error. The exit code is 0 only
//! when every operation succeeded and matched the reference.
//! See `perfbench/README.md` for the design.

mod reference;
mod replay;
mod spans;
mod stats;
mod wire;
mod workload;

use std::process::ExitCode;

use spans::Tracer;
use wire::{Ops, RunPlan, WireResult};
use workload::{Kind, Scale, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut inject_fault = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not `{other}`")),
                }
            }
            "--inject-fault" => inject_fault = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
        scale,
        inject_fault,
    })
}

/// One reported metric: value, unit, sample count and, for layer
/// metrics, which end-to-end metric it should move on which workload.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
    moves: &'static str,
}

fn m(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        moves,
    }
}

fn per_flow(bytes: usize, flows: usize) -> f64 {
    bytes as f64 / flows.max(1) as f64
}

fn end_to_end(r: &WireResult) -> Vec<Metric> {
    let flows = r.flows;
    vec![
        m(
            "setup_s",
            stats::median(&r.setup_s),
            "s",
            r.setup_s.len() as u64,
            "",
        ),
        m(
            "ingest_items_per_s",
            r.ingest_items_per_s(),
            "items/s",
            r.ingest_records,
            "",
        ),
        m(
            "record_ack_p50_us",
            stats::median(&r.record_ack_p50s),
            "us",
            r.record_ack_us.len() as u64,
            "",
        ),
        m(
            "query_p50_us",
            stats::median(&r.query_p50s),
            "us",
            r.query_us.len() as u64,
            "",
        ),
        m(
            "topk_ms",
            stats::median(&r.topk_round_ms),
            "ms",
            r.topk_ms.len() as u64,
            "",
        ),
        m(
            "snapshot_ms",
            stats::median(&r.snapshot_round_ms),
            "ms",
            r.snapshot_ms.len() as u64,
            "",
        ),
        m(
            "snapshot_bytes_per_flow",
            per_flow(r.snapshot_bytes, flows),
            "B",
            flows as u64,
            "",
        ),
        m(
            "resident_bytes_per_flow",
            per_flow(r.resident_bytes, flows),
            "B",
            flows as u64,
            "",
        ),
        m(
            "rel_error_rms",
            r.rel_error_rms.unwrap_or(f64::NAN),
            "ratio",
            flows as u64,
            "",
        ),
    ]
}

fn per_layer(
    baseline: &WireResult,
    traced: &WireResult,
    tracer: &Tracer,
    replay: &replay::ReplayResult,
) -> Vec<Metric> {
    let layers = tracer.summarise();
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let per_record = |name: &str| {
        let l = layer(name);
        (l.ns_per_work(), l.work)
    };
    let p50 = |name: &str, scale: f64| {
        let l = layer(name);
        (l.p50_ns() / scale, l.spans)
    };
    let p99 = |name: &str, scale: f64| {
        let l = layer(name);
        (l.p99_ns() / scale, l.spans)
    };
    let t = &traced.tiers;
    let flows = traced.flows;
    let (enc, enc_n) = per_record("net.proto.encode_record_batch");
    let (dec, dec_n) = per_record("net.proto.decode_record_batch");
    let (hash, hash_n) = per_record("hash.item_hash");
    let (ingest, ingest_n) = per_record("engine.producer.ingest_hash");
    let (grouped, grouped_n) = per_record("engine.record_batch_grouped");
    let (smb, smb_n) = per_record("core.smb.record_hashes");
    let (barrier, barrier_n) = p50("engine.producer.barrier", 1e3);
    let (build, build_n) = p50("factory.build", 1e3);
    let (thr, thr_n) = p50("theory.optimal_threshold", 1e3);
    let (est, est_n) = p50("engine.query.estimate", 1e3);
    let (topk, topk_n) = p50("engine.query.topk_sweep", 1e6);
    let (cells, cells_n) = p50("engine.query.snapshot_cells", 1e6);
    let (fenc, fenc_n) = p50("sketch.codec.encode_flow_block", 1e6);
    let (fdec, fdec_n) = p50("sketch.codec.decode_flow_block", 1e6);
    let (ack99, ack_n) = p99("net.record_batch", 1e3);
    let (q99, q_n) = p99("net.query", 1e3);
    let base_rate = baseline.ingest_items_per_s();
    let overhead = (base_rate - traced.ingest_items_per_s()) / base_rate * 100.0;
    let n = |v: &Vec<f64>| v.len() as u64;
    vec![
        m("net.ping_rtt_us", stats::median(&traced.ping_us), "us", n(&traced.ping_us),
          "record_ack_p50_us, query_p50_us (floor) on all workloads"),
        m("net.proto.encode_record_batch_ns_per_record", enc, "ns", enc_n,
          "record_ack_p50_us; heavy_hitters, ~no share on wide_flows"),
        m("net.proto.decode_record_batch_ns_per_record", dec, "ns", dec_n,
          "ingest_items_per_s; heavy_hitters, ~no share on wide_flows"),
        m("net.wire_bytes_per_record", replay.wire_bytes as f64 / replay.records.max(1) as f64, "B",
          replay.records, "ingest_items_per_s; heavy_hitters"),
        m("hash.item_hash_ns_per_record", hash, "ns", hash_n,
          "ingest_items_per_s; heavy_hitters, ~no share on wide_flows"),
        m("engine.producer.ingest_ns_per_record", ingest, "ns", ingest_n,
          "record_ack_p50_us; wide_flows (blocked sends)"),
        m("engine.producer.queue_full_events", baseline.queue_full_events as f64, "count", baseline.ingest_records,
          "record_ack_p50_us; wide_flows, ~none on heavy_hitters"),
        m("engine.producer.barrier_us", barrier, "us", barrier_n,
          "query_p50_us; wide_flows and caida_trace, ~none on heavy_hitters"),
        m("engine.stage.queue_wait_p50_ns", traced.queue_wait_p50_ns.0, "ns", traced.queue_wait_p50_ns.1,
          "ingest_items_per_s, query_p50_us; wide_flows"),
        m("engine.stage.record_batch_p50_ns", traced.record_batch_p50_ns.0, "ns", traced.record_batch_p50_ns.1,
          "ingest_items_per_s, query_p50_us; wide_flows"),
        m("engine.record_batch_grouped_ns_per_record", grouped, "ns", grouped_n,
          "ingest_items_per_s; wide_flows and caida_trace, ~none on heavy_hitters"),
        m("core.smb.record_hashes_ns_per_record", smb, "ns", smb_n,
          "ingest_items_per_s; heavy_hitters"),
        m("sketch.tier_small", t.small as f64, "count", flows as u64, "resident_bytes_per_flow, topk_ms; caida_trace"),
        m("sketch.tier_array", t.array as f64, "count", flows as u64, "resident_bytes_per_flow, topk_ms; caida_trace"),
        m("sketch.tier_full", t.full as f64, "count", flows as u64, "resident_bytes_per_flow, topk_ms; caida_trace"),
        m("sketch.promotions_to_full", t.promotions_to_full as f64, "count", flows as u64,
          "resident_bytes_per_flow, topk_ms; caida_trace"),
        m("factory.build_us", build, "us", build_n,
          "topk_ms, query_p50_us; caida_trace, ~none on heavy_hitters and wide_flows"),
        m("theory.optimal_threshold_us", thr, "us", thr_n,
          "topk_ms, query_p50_us; caida_trace, ~none on heavy_hitters and wide_flows"),
        m("engine.query.estimate_us", est, "us", est_n, "query_p50_us; caida_trace"),
        m("engine.query.topk_sweep_ms", topk, "ms", topk_n, "topk_ms; caida_trace, ~none on heavy_hitters"),
        m("engine.query.probe_builds_per_topk", replay.probe_builds_per_topk as f64, "count",
          replay.sweeps as u64, "topk_ms; caida_trace, ~none on heavy_hitters"),
        m("engine.query.snapshot_cells_ms", cells, "ms", cells_n, "snapshot_ms; wide_flows and caida_trace"),
        m("sketch.codec.encode_flow_block_ms", fenc, "ms", fenc_n,
          "snapshot_ms, snapshot_bytes_per_flow; wide_flows (bitmaps) vs caida_trace (hash lists)"),
        m("sketch.codec.decode_flow_block_ms", fdec, "ms", fdec_n,
          "snapshot_ms, snapshot_bytes_per_flow; wide_flows (bitmaps) vs caida_trace (hash lists)"),
        m("engine.new_ms", stats::median(&baseline.engine_new_ms), "ms", n(&baseline.engine_new_ms),
          "setup_s; all workloads"),
        m("net.first_hello_ms", stats::median(&baseline.first_hello_ms), "ms", n(&baseline.first_hello_ms),
          "setup_s; all workloads"),
        m("trace.overhead_pct", overhead, "%", 2, "cost of the traced run, all workloads"),
        m("net.record_ack_p99_us", ack99, "us", ack_n, "tail diagnostic, not gated"),
        m("net.query_p99_us", q99, "us", q_n, "tail diagnostic, not gated"),
    ]
}

fn print_result(workload: &str, metrics: &[Metric], ops: &Ops) {
    eprintln!("perfbench: workload {workload}");
    for x in metrics {
        eprintln!(
            "  {:<46} {:>16.4} {:<8} n={:<9} {}",
            x.name, x.value, x.unit, x.samples, x.moves
        );
    }
    eprintln!(
        "  operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN: a metric that could not be measured is
            // reported as null, and the run as failed.
            let value = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} cores={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // Set-up work outside every timed region: inputs and the answers
    // the reference expects.
    let workload = Workload::generate(args.kind, args.seed, args.scale);
    let expected = reference::expect(&workload, wire::spec());
    eprintln!(
        "perfbench: {} records over {} flows, {} planned queries",
        workload.records.len(),
        workload.flows(),
        expected.queries.len()
    );
    let mut ops = Ops::default();
    let metrics = if args.trace {
        let quick = RunPlan {
            rounds: 3,
            seconds: 0.0,
            accuracy_sweep: false,
            trace_sample: 0,
            pings: 0,
            inject_fault: args.inject_fault,
        };
        let baseline = wire::run(&workload, &expected, quick, None, &mut ops);
        let mut tracer = Tracer::new();
        let traced_plan = RunPlan {
            rounds: 1,
            trace_sample: 1,
            pings: 200,
            ..quick
        };
        let traced = wire::run(
            &workload,
            &expected,
            traced_plan,
            Some(&mut tracer),
            &mut ops,
        );
        let replayed = replay::run(&workload, &expected, 3, &mut tracer, &mut ops);
        // The spans themselves, for a closer look: one file per
        // workload and seed beside the build output.
        let dir = std::path::Path::new(
            &std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()),
        )
        .join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.tsv", args.kind.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_tsv(&path)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        per_layer(&baseline, &traced, &tracer, &replayed)
    } else {
        let plan = RunPlan {
            rounds: args.kind.rounds(),
            seconds: args.seconds,
            accuracy_sweep: true,
            trace_sample: 0,
            pings: 0,
            inject_fault: args.inject_fault,
        };
        let result = wire::run(&workload, &expected, plan, None, &mut ops);
        let per_round = |what: &str, values: &[f64]| {
            let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
            eprintln!("perfbench: {what} per round: {}", v.join(" "));
        };
        per_round("ingest items/s", &result.ingest_rates);
        per_round("record_ack p50 us", &result.record_ack_p50s);
        per_round("QUERY p50 us", &result.query_p50s);
        per_round("TOP_K median ms", &result.topk_round_ms);
        per_round("SNAPSHOT median ms", &result.snapshot_round_ms);
        end_to_end(&result)
    };
    if metrics.iter().any(|x| !x.value.is_finite()) {
        ops.failed += 1;
        eprintln!("perfbench: FAILED a metric could not be measured");
    }
    print_result(args.kind.name(), &metrics, &ops);
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
