//! Library backing the `smbcount` binary — argument parsing and the
//! subcommand implementations, factored out so they are unit-testable
//! without spawning processes.
//!
//! Estimator construction goes through [`smb_factory::AlgoSpec`] — the
//! CLI owns no per-algorithm `match` of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use smb_core::{CardinalityEstimator, MorphCollector, ObserverHandle, Smb};
use smb_engine::{
    BackpressurePolicy, CheckpointConfig, EngineConfig, EngineQuery, ShardedFlowEngine,
};
use smb_net::{SmbClient, SmbServer};
use smb_factory::{Algo, AlgoSpec};
use smb_hash::HashScheme;
use smb_sketch::FlowTable;
use smb_stream::{ExactCounter, TraceConfig};
use smb_telemetry::{morph_event_to_json, ExportFormat, FlightRecorder, Reporter};

/// `count` subcommand configuration.
#[derive(Debug, Clone, Copy)]
pub struct CountConfig {
    /// Estimator choice.
    pub algo: Algo,
    /// Memory budget in bits.
    pub memory_bits: usize,
    /// Also track the exact count and report the error.
    pub exact: bool,
}

/// `flows` subcommand configuration.
#[derive(Debug, Clone, Copy)]
pub struct FlowsConfig {
    /// Per-flow memory budget in bits.
    pub memory_bits: usize,
    /// Only report flows with estimates at least this large.
    pub threshold: f64,
    /// Report at most this many flows (largest first).
    pub top: usize,
}

/// `serve` subcommand configuration — the parallel flows mode.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-flow estimator choice.
    pub algo: Algo,
    /// Per-flow memory budget in bits.
    pub memory_bits: usize,
    /// Worker shard count (0 = one per core).
    pub shards: usize,
    /// Ingest producer threads feeding the shard queues (1 = the
    /// classic single-producer loop; N > 1 fans parsed lines out
    /// round-robin to N `producer_handle` threads).
    pub producers: usize,
    /// Items per dispatch batch.
    pub batch: usize,
    /// Per-shard queue capacity in batches.
    pub queue_batches: usize,
    /// Full-queue behaviour.
    pub policy: BackpressurePolicy,
    /// Expected distinct-flow count; pre-sizes shard tables (0 = grow
    /// on demand).
    pub expected_flows: usize,
    /// Record pipeline-stage spans for one in every this many batches
    /// into the `engine_stage_duration_ns` histograms (0 = tracing
    /// off, 1 = every batch). Visible through `--metrics`.
    pub trace_sample: u32,
    /// Only report flows with estimates at least this large.
    pub threshold: f64,
    /// Report at most this many flows (largest first).
    pub top: usize,
    /// Emit an engine-metrics snapshot after the run in this format.
    pub metrics: Option<ExportFormat>,
    /// Write metrics to this file instead of the report stream.
    pub metrics_out: Option<PathBuf>,
    /// Also re-export metrics every this many seconds while ingesting
    /// (requires `metrics_out`; the file is rewritten in place).
    pub metrics_interval: Option<u64>,
    /// Write durable checkpoints of every flow estimator under this
    /// directory while serving (and a final one on shutdown).
    pub checkpoint_dir: Option<PathBuf>,
    /// Seconds between background checkpoints (requires
    /// `checkpoint_dir`).
    pub checkpoint_interval: u64,
    /// Instead of reading stdin, listen on this TCP address and serve
    /// the wire protocol (see `PROTOCOL.md`) until a client sends
    /// `SHUTDOWN`. Port `0` binds an ephemeral port; the bound
    /// address is printed as `listening on <addr>`.
    pub listen: Option<String>,
}

/// `restore` subcommand configuration.
#[derive(Debug, Clone)]
pub struct RestoreCliConfig {
    /// Checkpoint directory written by `serve --checkpoint-dir`.
    pub dir: PathBuf,
    /// Report at most this many flows (largest first).
    pub top: usize,
    /// Only report flows with estimates at least this large.
    pub threshold: f64,
}

/// `trace` subcommand configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceCliConfig {
    /// Number of flows.
    pub flows: usize,
    /// Generator seed.
    pub seed: u64,
}

/// `morphlog` subcommand configuration.
#[derive(Debug, Clone, Copy)]
pub struct MorphlogConfig {
    /// SMB memory budget in bits.
    pub memory_bits: usize,
    /// Expected maximum cardinality (tunes the morph threshold `T`).
    pub n_max: f64,
    /// Instead of streaming every morph as it happens, retain only the
    /// last N lifecycle events in a flight-recorder ring and emit them
    /// at end-of-input (`--last N`).
    pub last: Option<usize>,
}

/// `client` subcommand configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:4742`.
    pub connect: String,
    /// What to ask the server.
    pub action: ClientAction,
}

/// What a `client` invocation does once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Ship `flow<TAB>item` stdin lines as `RECORD_BATCH` frames of
    /// this many records each.
    Record {
        /// Records per `RECORD_BATCH` frame.
        batch: usize,
    },
    /// Estimate one flow's cardinality (the flow name is hashed the
    /// same way `serve` hashes stdin flow columns).
    Query {
        /// Flow name, as it appears in the trace's flow column.
        flow: String,
    },
    /// Print the `k` largest-estimate flows, `serve`-report format.
    TopK {
        /// How many flows to print.
        top: usize,
    },
    /// Pull the full compressed engine snapshot and summarize it.
    Snapshot,
    /// Stream morph lifecycle events as JSON lines.
    Subscribe {
        /// End the subscription after this many events.
        max: u64,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down and exit `serve`.
    Shutdown,
}

/// `doctor` subcommand configuration.
#[derive(Debug, Clone)]
pub struct DoctorConfig {
    /// Per-flow memory budget in bits.
    pub memory_bits: usize,
    /// Worker shard count (0 = one per core).
    pub shards: usize,
    /// Items per dispatch batch.
    pub batch: usize,
    /// Hot flows to include in the morph-cadence section.
    pub top: usize,
    /// Also write one checkpoint epoch under this directory and report
    /// it in the snapshot's `checkpoint` section.
    pub checkpoint_dir: Option<PathBuf>,
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print usage.
    Help,
    /// Estimate the distinct count of stdin lines.
    Count(CountConfig),
    /// Per-flow estimates of `flow<TAB>item` lines.
    Flows(FlowsConfig),
    /// Sharded parallel per-flow estimation of `flow<TAB>item` lines.
    Serve(ServeConfig),
    /// Talk to a `serve --listen` server over the wire protocol.
    Client(ClientConfig),
    /// Recover a `serve` checkpoint directory and report its estimates.
    Restore(RestoreCliConfig),
    /// Generate a synthetic trace.
    Trace(TraceCliConfig),
    /// Stream SMB morph events over stdin lines as JSON lines.
    Morphlog(MorphlogConfig),
    /// Ingest `flow<TAB>item` lines and emit one diagnostic JSON
    /// snapshot (tier census, queue depths, morph cadence, flight
    /// recorder window, stage timings).
    Doctor(DoctorConfig),
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    take_value(args, i, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Parse the argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "count" => {
            let mut cfg = CountConfig {
                algo: Algo::Smb,
                memory_bits: 8192,
                exact: false,
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--algo" => cfg.algo = Algo::from_name(take_value(args, &mut i, "--algo")?)?,
                    "--memory-bits" => cfg.memory_bits = parse_num(args, &mut i, "--memory-bits")?,
                    "--exact" => cfg.exact = true,
                    other => return Err(format!("unknown option `{other}` for count")),
                }
                i += 1;
            }
            Ok(Command::Count(cfg))
        }
        "flows" => {
            let mut cfg = FlowsConfig {
                memory_bits: 2048,
                threshold: 0.0,
                top: 20,
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--memory-bits" => cfg.memory_bits = parse_num(args, &mut i, "--memory-bits")?,
                    "--threshold" => cfg.threshold = parse_num(args, &mut i, "--threshold")?,
                    "--top" => cfg.top = parse_num(args, &mut i, "--top")?,
                    other => return Err(format!("unknown option `{other}` for flows")),
                }
                i += 1;
            }
            Ok(Command::Flows(cfg))
        }
        "serve" => {
            let mut cfg = ServeConfig {
                algo: Algo::Smb,
                memory_bits: 2048,
                shards: 0,
                producers: 1,
                batch: 256,
                queue_batches: 8,
                policy: BackpressurePolicy::Block,
                expected_flows: 0,
                trace_sample: 0,
                threshold: 0.0,
                top: 20,
                metrics: None,
                metrics_out: None,
                metrics_interval: None,
                checkpoint_dir: None,
                checkpoint_interval: 30,
                listen: None,
            };
            let mut i = 1;
            let mut interval_given = false;
            while i < args.len() {
                match args[i].as_str() {
                    "--algo" => cfg.algo = Algo::from_name(take_value(args, &mut i, "--algo")?)?,
                    "--memory-bits" => cfg.memory_bits = parse_num(args, &mut i, "--memory-bits")?,
                    "--shards" => cfg.shards = parse_num(args, &mut i, "--shards")?,
                    "--producers" => cfg.producers = parse_num(args, &mut i, "--producers")?,
                    "--batch" => cfg.batch = parse_num(args, &mut i, "--batch")?,
                    "--queue" => cfg.queue_batches = parse_num(args, &mut i, "--queue")?,
                    "--policy" => {
                        cfg.policy =
                            BackpressurePolicy::from_name(take_value(args, &mut i, "--policy")?)?
                    }
                    "--expected-flows" => {
                        cfg.expected_flows = parse_num(args, &mut i, "--expected-flows")?
                    }
                    "--trace-sample" => {
                        cfg.trace_sample = parse_num(args, &mut i, "--trace-sample")?
                    }
                    "--threshold" => cfg.threshold = parse_num(args, &mut i, "--threshold")?,
                    "--top" => cfg.top = parse_num(args, &mut i, "--top")?,
                    "--metrics" => {
                        let name = take_value(args, &mut i, "--metrics")?;
                        cfg.metrics = Some(ExportFormat::from_name(name).ok_or_else(|| {
                            format!("unknown metrics format `{name}` (json|prom)")
                        })?);
                    }
                    "--metrics-out" => {
                        cfg.metrics_out =
                            Some(PathBuf::from(take_value(args, &mut i, "--metrics-out")?));
                    }
                    "--metrics-interval" => {
                        cfg.metrics_interval =
                            Some(parse_num(args, &mut i, "--metrics-interval")?);
                    }
                    "--checkpoint-dir" => {
                        cfg.checkpoint_dir =
                            Some(PathBuf::from(take_value(args, &mut i, "--checkpoint-dir")?));
                    }
                    "--checkpoint-interval" => {
                        cfg.checkpoint_interval =
                            parse_num(args, &mut i, "--checkpoint-interval")?;
                        interval_given = true;
                    }
                    "--listen" => {
                        cfg.listen = Some(take_value(args, &mut i, "--listen")?.to_string());
                    }
                    other => return Err(format!("unknown option `{other}` for serve")),
                }
                i += 1;
            }
            if cfg.producers == 0 {
                return Err("--producers must be at least 1".into());
            }
            if interval_given && cfg.checkpoint_dir.is_none() {
                return Err(
                    "--checkpoint-interval needs --checkpoint-dir (nowhere to write epochs)"
                        .into(),
                );
            }
            if cfg.listen.is_some() && cfg.producers > 1 {
                return Err(
                    "--producers does not apply to --listen (each connection is a producer)"
                        .into(),
                );
            }
            if cfg.checkpoint_dir.is_some() && cfg.checkpoint_interval == 0 {
                return Err("--checkpoint-interval must be at least 1 second".into());
            }
            if cfg.metrics_interval.is_some() && cfg.metrics_out.is_none() {
                return Err("--metrics-interval needs --metrics-out (periodic snapshots rewrite a file)".into());
            }
            if (cfg.metrics_out.is_some() || cfg.metrics_interval.is_some()) && cfg.metrics.is_none()
            {
                return Err("--metrics-out/--metrics-interval need --metrics <json|prom>".into());
            }
            Ok(Command::Serve(cfg))
        }
        "client" => {
            let action_name = args
                .get(1)
                .map(|s| s.as_str())
                .ok_or("client needs an action: record|query|top-k|snapshot|subscribe|ping|shutdown")?;
            let mut connect = "127.0.0.1:4742".to_string();
            let mut batch = 512usize;
            let mut flow: Option<String> = None;
            let mut top = 20usize;
            let mut max = 16u64;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--connect" => connect = take_value(args, &mut i, "--connect")?.to_string(),
                    "--batch" => batch = parse_num(args, &mut i, "--batch")?,
                    "--flow" => flow = Some(take_value(args, &mut i, "--flow")?.to_string()),
                    "--top" => top = parse_num(args, &mut i, "--top")?,
                    "--max" => max = parse_num(args, &mut i, "--max")?,
                    other => return Err(format!("unknown option `{other}` for client")),
                }
                i += 1;
            }
            let action = match action_name {
                "record" => {
                    if batch == 0 {
                        return Err("--batch must be at least 1".into());
                    }
                    ClientAction::Record { batch }
                }
                "query" => ClientAction::Query {
                    flow: flow.ok_or("client query needs --flow <name>")?,
                },
                "top-k" => ClientAction::TopK { top },
                "snapshot" => ClientAction::Snapshot,
                "subscribe" => ClientAction::Subscribe { max },
                "ping" => ClientAction::Ping,
                "shutdown" => ClientAction::Shutdown,
                other => {
                    return Err(format!(
                        "unknown client action `{other}` (record|query|top-k|snapshot|subscribe|ping|shutdown)"
                    ))
                }
            };
            Ok(Command::Client(ClientConfig { connect, action }))
        }
        "restore" => {
            let mut dir = None;
            let mut top = 20usize;
            let mut threshold = 0.0f64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--dir" => dir = Some(PathBuf::from(take_value(args, &mut i, "--dir")?)),
                    "--top" => top = parse_num(args, &mut i, "--top")?,
                    "--threshold" => threshold = parse_num(args, &mut i, "--threshold")?,
                    other => return Err(format!("unknown option `{other}` for restore")),
                }
                i += 1;
            }
            let dir = dir.ok_or("restore needs --dir <checkpoint directory>")?;
            Ok(Command::Restore(RestoreCliConfig { dir, top, threshold }))
        }
        "morphlog" => {
            let mut cfg = MorphlogConfig {
                memory_bits: 8192,
                n_max: 1e6,
                last: None,
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--memory-bits" => cfg.memory_bits = parse_num(args, &mut i, "--memory-bits")?,
                    "--n-max" => cfg.n_max = parse_num(args, &mut i, "--n-max")?,
                    "--last" => {
                        let n: usize = parse_num(args, &mut i, "--last")?;
                        if n == 0 {
                            return Err("--last must be at least 1".into());
                        }
                        cfg.last = Some(n);
                    }
                    other => return Err(format!("unknown option `{other}` for morphlog")),
                }
                i += 1;
            }
            Ok(Command::Morphlog(cfg))
        }
        "doctor" => {
            let mut cfg = DoctorConfig {
                memory_bits: 2048,
                shards: 0,
                batch: 256,
                top: 5,
                checkpoint_dir: None,
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--memory-bits" => cfg.memory_bits = parse_num(args, &mut i, "--memory-bits")?,
                    "--shards" => cfg.shards = parse_num(args, &mut i, "--shards")?,
                    "--batch" => cfg.batch = parse_num(args, &mut i, "--batch")?,
                    "--top" => cfg.top = parse_num(args, &mut i, "--top")?,
                    "--checkpoint-dir" => {
                        cfg.checkpoint_dir =
                            Some(PathBuf::from(take_value(args, &mut i, "--checkpoint-dir")?));
                    }
                    other => return Err(format!("unknown option `{other}` for doctor")),
                }
                i += 1;
            }
            Ok(Command::Doctor(cfg))
        }
        "trace" => {
            let mut cfg = TraceCliConfig {
                flows: 1000,
                seed: 1,
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--flows" => cfg.flows = parse_num(args, &mut i, "--flows")?,
                    "--seed" => cfg.seed = parse_num(args, &mut i, "--seed")?,
                    other => return Err(format!("unknown option `{other}` for trace")),
                }
                i += 1;
            }
            Ok(Command::Trace(cfg))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Run `count` over an iterator of lines.
pub fn run_count(
    cfg: CountConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut est = AlgoSpec::new(cfg.algo)
        .memory_bits(cfg.memory_bits)
        .build()
        .map_err(|e| e.to_string())?;
    let mut exact = cfg.exact.then(ExactCounter::new);
    let mut total_lines = 0u64;
    for line in lines {
        est.record(line.as_bytes());
        if let Some(e) = exact.as_mut() {
            e.record(line.as_bytes());
        }
        total_lines += 1;
    }
    let estimate = est.estimate();
    writeln!(out, "items        : {total_lines}").map_err(|e| e.to_string())?;
    writeln!(out, "estimate     : {estimate:.0}  ({})", est.name()).map_err(|e| e.to_string())?;
    writeln!(out, "memory (bits): {}", est.memory_bits()).map_err(|e| e.to_string())?;
    if let Some(e) = exact {
        let truth = e.count() as f64;
        let err = if truth > 0.0 {
            (estimate - truth).abs() / truth * 100.0
        } else {
            0.0
        };
        writeln!(out, "exact        : {}  (error {err:.2}%)", e.count())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Split a `flow<TAB>item` line (whitespace also accepted) into the
/// hashed flow key and the item bytes.
fn parse_flow_line(line: &str) -> Option<(u64, &str)> {
    let mut parts = line.splitn(2, ['\t', ' ']);
    match (parts.next(), parts.next()) {
        (Some(flow), Some(item)) if !flow.is_empty() && !item.is_empty() => {
            Some((smb_hash::fnv::fnv1a64(flow.as_bytes()), item))
        }
        _ => None,
    }
}

/// Run `flows` over `flow<TAB>item` lines (whitespace also accepted).
pub fn run_flows(
    cfg: FlowsConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let m = cfg.memory_bits;
    let t = smb_theory::optimal_threshold(m, 1e6).t;
    let mut table = FlowTable::new(move |flow| {
        Smb::with_scheme(m, t, HashScheme::with_seed(flow)).expect("validated above")
    });
    // Validate the parameters once up front so the closure can't panic
    // mid-stream.
    Smb::new(m, t).map_err(|e| e.to_string())?;

    let mut skipped = 0u64;
    for line in lines {
        match parse_flow_line(&line) {
            Some((key, item)) => table.record(key, item.as_bytes()),
            None => skipped += 1,
        }
    }
    let mut report = table.flows_over(cfg.threshold);
    report.truncate(cfg.top);
    writeln!(out, "flows tracked: {}  (skipped {} malformed lines)", table.len(), skipped)
        .map_err(|e| e.to_string())?;
    for (flow, estimate) in report {
        writeln!(out, "{flow:016x}\t{estimate:.0}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run `serve`: the sharded parallel version of `flows`. Lines stream
/// through a [`ShardedFlowEngine`]; the report adds the engine's
/// per-shard statistics. With `--producers N` (N > 1), parsing stays
/// on the calling thread while N producer-handle threads feed the
/// shard queues concurrently. With `--metrics`, the engine registry
/// (per-shard queue/drop/batch series plus SMB morph counters) is
/// exported as JSON or Prometheus text after the run — and, with
/// `--metrics-interval`, periodically during it.
pub fn run_serve(
    cfg: ServeConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let spec = AlgoSpec::new(cfg.algo).memory_bits(cfg.memory_bits).n_max(1e6);
    let mut config = EngineConfig::new(spec)
        .with_batch(cfg.batch)
        .with_queue_batches(cfg.queue_batches)
        .with_policy(cfg.policy)
        .with_expected_flows(cfg.expected_flows)
        .with_trace_sample(cfg.trace_sample);
    if cfg.shards > 0 {
        config = config.with_shards(cfg.shards);
    }
    let mut engine = ShardedFlowEngine::new(config).map_err(|e| e.to_string())?;

    let checkpoint = cfg.checkpoint_dir.as_ref().map(|dir| {
        CheckpointConfig::new(dir)
            .with_interval(std::time::Duration::from_secs(cfg.checkpoint_interval.max(1)))
    });
    if let Some(ckpt) = &checkpoint {
        engine
            .start_checkpointer(ckpt.clone())
            .map_err(|e| e.to_string())?;
    }

    let reporter = match (cfg.metrics, &cfg.metrics_out, cfg.metrics_interval) {
        (Some(format), Some(path), Some(secs)) => {
            let path = path.clone();
            Some(Reporter::spawn(
                Arc::clone(engine.registry()),
                format,
                std::time::Duration::from_secs(secs.max(1)),
                move |text| {
                    // Rewrite in place each tick; scrapers read a file
                    // that is always a complete document.
                    let _ = std::fs::write(&path, text);
                },
            ))
        }
        _ => None,
    };

    let mut skipped = 0u64;
    let mut sessions = None;
    if let Some(listen) = &cfg.listen {
        // Network mode: stdin is ignored; clients feed the engine over
        // the wire protocol until one of them sends SHUTDOWN. The
        // bound address is printed (and flushed) first so wrappers can
        // parse the ephemeral port before connecting.
        let server = SmbServer::bind(listen.as_str(), &engine).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        writeln!(out, "listening on {addr}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        let summary = server.serve().map_err(|e| e.to_string())?;
        sessions = Some(summary.sessions);
    } else if cfg.producers > 1 {
        // Multi-producer ingest: this thread only parses and deals
        // lines round-robin to N producer threads, each owning a
        // cloned engine producer handle. Per-flow arrival order across
        // producers is nondeterministic (items split round-robin), but
        // every item is recorded exactly once, so estimates are
        // unaffected. Producer handles flush on drop, before the
        // engine flush below — the documented flush protocol.
        let producer = engine.producer_handle();
        std::thread::scope(|scope| {
            let txs: Vec<_> = (0..cfg.producers)
                .map(|_| {
                    let (tx, rx) = std::sync::mpsc::sync_channel::<(u64, String)>(1024);
                    let mut p = producer.clone();
                    scope.spawn(move || {
                        while let Ok((key, item)) = rx.recv() {
                            p.ingest(key, item.as_bytes());
                        }
                    });
                    tx
                })
                .collect();
            let mut next = 0usize;
            for line in lines {
                match parse_flow_line(&line) {
                    Some((key, item)) => {
                        // The worker only stops on channel disconnect,
                        // which cannot happen while `txs` is alive.
                        txs[next % cfg.producers]
                            .send((key, item.to_string()))
                            .expect("producer thread alive");
                        next += 1;
                    }
                    None => skipped += 1,
                }
            }
            // Dropping the channels ends the workers; scope joins them
            // (and their handles flush-on-drop).
            drop(txs);
        });
        drop(producer);
    } else {
        for line in lines {
            match parse_flow_line(&line) {
                Some((key, item)) => engine.ingest(key, item.as_bytes()),
                None => skipped += 1,
            }
        }
    }
    engine.flush();
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    // End-of-input checkpoint: the background thread only guarantees
    // interval-bounded loss; this pins the final state before reporting.
    let final_epoch = match &checkpoint {
        Some(ckpt) => {
            engine.stop_checkpointer();
            Some(engine.checkpoint_now(ckpt).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    // One multi-facet sweep over the shards; the handle does not borrow
    // the engine, so a future interactive mode can query mid-ingest.
    let answers = engine
        .query_handle()
        .run(&EngineQuery::new().with_top_k(cfg.top));
    let mut report = answers.top_k.unwrap_or_default();
    report.retain(|&(_, est)| est >= cfg.threshold);
    let stats = engine.stats();
    writeln!(
        out,
        "flows tracked: {}  (skipped {} malformed lines, dropped {} items)",
        stats.total_flows(),
        skipped,
        stats.total_dropped(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "engine       : {} shard(s), {} producer(s), batch {}, queue {} batch(es), {:?}",
        engine.config().shards,
        cfg.producers,
        engine.config().batch,
        engine.config().queue_batches,
        engine.config().policy,
    )
    .map_err(|e| e.to_string())?;
    if let Some(n) = sessions {
        writeln!(out, "sessions     : {n}").map_err(|e| e.to_string())?;
    }
    if let (Some(epoch), Some(ckpt)) = (final_epoch, &checkpoint) {
        writeln!(out, "checkpoint   : epoch {epoch} -> {}", ckpt.dir.display())
            .map_err(|e| e.to_string())?;
    }
    writeln!(out, "{stats}").map_err(|e| e.to_string())?;
    for (flow, estimate) in report {
        writeln!(out, "{flow:016x}\t{estimate:.0}").map_err(|e| e.to_string())?;
    }

    if let Some(format) = cfg.metrics {
        let rendered = format.render(&engine.metrics_snapshot());
        match &cfg.metrics_out {
            Some(path) => std::fs::write(path, rendered)
                .map_err(|e| format!("write {}: {e}", path.display()))?,
            None => {
                writeln!(out, "{rendered}").map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// Run `client`: one wire-protocol exchange with a `serve --listen`
/// server. Flow names are hashed exactly as `serve` hashes stdin flow
/// columns, so `client query --flow heavy` asks about the same key a
/// piped trace created, and `client top-k` prints the same
/// `flow<TAB>estimate` lines the stdin report would.
pub fn run_client(
    cfg: ClientConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut client = SmbClient::connect(cfg.connect.as_str())
        .map_err(|e| format!("connect {}: {e}", cfg.connect))?;
    match cfg.action {
        ClientAction::Record { batch } => {
            let mut sent = 0u64;
            let mut skipped = 0u64;
            let mut pending: Vec<(u64, String)> = Vec::with_capacity(batch);
            let mut ship = |pending: &mut Vec<(u64, String)>, sent: &mut u64| {
                if pending.is_empty() {
                    return Ok(());
                }
                let records: Vec<(u64, &[u8])> = pending
                    .iter()
                    .map(|(flow, item)| (*flow, item.as_bytes()))
                    .collect();
                *sent += client.record_batch(&records).map_err(|e| e.to_string())?;
                pending.clear();
                Ok::<(), String>(())
            };
            for line in lines {
                match parse_flow_line(&line) {
                    Some((key, item)) => {
                        pending.push((key, item.to_string()));
                        if pending.len() == batch {
                            ship(&mut pending, &mut sent)?;
                        }
                    }
                    None => skipped += 1,
                }
            }
            ship(&mut pending, &mut sent)?;
            writeln!(out, "records sent : {sent}  (skipped {skipped} malformed lines)")
                .map_err(|e| e.to_string())?;
        }
        ClientAction::Query { flow } => {
            let key = smb_hash::fnv::fnv1a64(flow.as_bytes());
            match client.query(key).map_err(|e| e.to_string())? {
                Some(estimate) => {
                    writeln!(out, "{key:016x}\t{estimate:.0}").map_err(|e| e.to_string())?
                }
                None => writeln!(out, "flow `{flow}` ({key:016x}): not seen")
                    .map_err(|e| e.to_string())?,
            }
        }
        ClientAction::TopK { top } => {
            for (flow, estimate) in client.top_k(top as u64).map_err(|e| e.to_string())? {
                writeln!(out, "{flow:016x}\t{estimate:.0}").map_err(|e| e.to_string())?;
            }
        }
        ClientAction::Snapshot => {
            let cells = client.snapshot().map_err(|e| e.to_string())?;
            let mut small = 0usize;
            let mut array = 0usize;
            let mut full = 0usize;
            for (_, state) in &cells {
                match state.field("tier").ok().and_then(|t| t.as_str().ok()) {
                    Some("small") => small += 1,
                    Some("array") => array += 1,
                    _ => full += 1,
                }
            }
            writeln!(out, "snapshot     : {} flow(s)", cells.len()).map_err(|e| e.to_string())?;
            writeln!(out, "tiers        : {small} small, {array} array, {full} full")
                .map_err(|e| e.to_string())?;
        }
        ClientAction::Subscribe { max } => {
            let delivered = client
                .subscribe_morphs(max, |ev| {
                    let obj = smb_devtools::Json::Obj(vec![
                        ("event".into(), smb_devtools::Json::str(ev.kind_str())),
                        ("round".into(), smb_devtools::Json::Int(ev.round as i128)),
                        (
                            "fresh_bits".into(),
                            smb_devtools::Json::Int(ev.fresh_bits as i128),
                        ),
                        (
                            "logical_size".into(),
                            smb_devtools::Json::Int(ev.logical_size as i128),
                        ),
                        ("items".into(), smb_devtools::Json::Int(ev.items as i128)),
                        ("estimate".into(), smb_devtools::Json::Float(ev.estimate)),
                        ("at_ns".into(), smb_devtools::Json::Int(ev.at_ns as i128)),
                    ]);
                    let _ = writeln!(out, "{}", obj.to_string());
                })
                .map_err(|e| e.to_string())?;
            writeln!(out, "events delivered: {delivered}").map_err(|e| e.to_string())?;
        }
        ClientAction::Ping => {
            client.ping().map_err(|e| e.to_string())?;
            writeln!(out, "pong").map_err(|e| e.to_string())?;
        }
        ClientAction::Shutdown => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            writeln!(out, "server shutting down").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Run `restore`: rebuild an engine from the newest consistent epoch
/// in a checkpoint directory and report what was recovered — the
/// epoch, flow count, any skipped (torn or corrupted) newer epochs,
/// and the top-k per-flow estimates. Skipped epochs mean bounded loss:
/// everything ingested after the restored epoch's checkpoint is gone.
pub fn run_restore(cfg: RestoreCliConfig, out: &mut dyn Write) -> Result<(), String> {
    let (engine, report) = ShardedFlowEngine::restore(&cfg.dir).map_err(|e| e.to_string())?;
    writeln!(out, "restored     : epoch {} from {}", report.epoch, cfg.dir.display())
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "flows        : {}  (checkpoint had {} shard(s))",
        report.flows, report.checkpoint_shards,
    )
    .map_err(|e| e.to_string())?;
    for (epoch, reason) in &report.skipped {
        writeln!(out, "skipped      : epoch {epoch} — {reason}").map_err(|e| e.to_string())?;
    }
    let mut top = engine
        .run_query(&EngineQuery::new().with_top_k(cfg.top))
        .top_k
        .unwrap_or_default();
    top.retain(|&(_, est)| est >= cfg.threshold);
    for (flow, estimate) in top {
        writeln!(out, "{flow:016x}\t{estimate:.0}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run `morphlog`: record stdin lines into one SMB and stream every
/// morph event as a JSON line the moment its round closes, ending
/// with a `"event":"final"` summary line. The output is JSON-lines —
/// one object per line, nothing else — so it pipes cleanly into
/// `jq`-style tooling.
pub fn run_morphlog(
    cfg: MorphlogConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    if let Some(n) = cfg.last {
        return run_morphlog_window(cfg, n, lines, out);
    }
    let collector = MorphCollector::shared();
    let mut est = AlgoSpec::new(Algo::Smb)
        .memory_bits(cfg.memory_bits)
        .n_max(cfg.n_max)
        .build_observed(Some(ObserverHandle::new(collector.clone())))
        .map_err(|e| e.to_string())?;
    let mut items = 0u64;
    for line in lines {
        est.record(line.as_bytes());
        items += 1;
        // Drain per item so events stream out as they happen rather
        // than all at end-of-input.
        for event in collector.drain() {
            let mut obj = vec![
                ("event".to_string(), smb_devtools::Json::str("morph")),
                ("items_total".to_string(), smb_devtools::Json::Int(items as i128)),
            ];
            if let smb_devtools::Json::Obj(fields) = morph_event_to_json(&event) {
                obj.extend(fields);
            }
            writeln!(out, "{}", smb_devtools::Json::Obj(obj).to_string())
                .map_err(|e| e.to_string())?;
        }
    }
    let summary = smb_devtools::Json::Obj(vec![
        ("event".to_string(), smb_devtools::Json::str("final")),
        ("items_total".to_string(), smb_devtools::Json::Int(items as i128)),
        ("estimate".to_string(), smb_devtools::Json::Float(est.estimate())),
        ("saturated".to_string(), smb_devtools::Json::Bool(est.is_saturated())),
        (
            "memory_bits".to_string(),
            smb_devtools::Json::Int(est.memory_bits() as i128),
        ),
    ]);
    writeln!(out, "{}", summary.to_string()).map_err(|e| e.to_string())?;
    Ok(())
}

/// The `morphlog --last N` mode: record everything through a
/// [`FlightRecorder`] ring of capacity N and dump only the retained
/// window at end-of-input — the CLI face of the engine's flight
/// recorder, for "what just happened" forensics on long streams where
/// streaming every morph would drown the terminal.
fn run_morphlog_window(
    cfg: MorphlogConfig,
    n: usize,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    use smb_devtools::Json;
    let recorder = FlightRecorder::new(n);
    let mut est = AlgoSpec::new(Algo::Smb)
        .memory_bits(cfg.memory_bits)
        .n_max(cfg.n_max)
        .build_observed(Some(recorder.clone().into_handle()))
        .map_err(|e| e.to_string())?;
    let mut items = 0u64;
    for line in lines {
        est.record(line.as_bytes());
        items += 1;
    }
    for event in recorder.recent(n) {
        let mut obj = vec![("event".to_string(), Json::str("flight"))];
        if let Json::Obj(fields) = event.to_json() {
            obj.extend(fields);
        }
        writeln!(out, "{}", Json::Obj(obj).to_string()).map_err(|e| e.to_string())?;
    }
    let summary = Json::Obj(vec![
        ("event".to_string(), Json::str("final")),
        ("items_total".to_string(), Json::Int(items as i128)),
        ("estimate".to_string(), Json::Float(est.estimate())),
        ("saturated".to_string(), Json::Bool(est.is_saturated())),
        ("memory_bits".to_string(), Json::Int(est.memory_bits() as i128)),
        (
            "events_recorded".to_string(),
            Json::Int(recorder.recorded_total() as i128),
        ),
        ("window".to_string(), Json::Int(recorder.len() as i128)),
    ]);
    writeln!(out, "{}", summary.to_string()).map_err(|e| e.to_string())?;
    Ok(())
}

/// How many flight-recorder events a doctor snapshot includes.
const DOCTOR_FLIGHT_WINDOW: usize = 32;

/// Run `doctor`: ingest `flow<TAB>item` lines through a fully
/// instrumented engine (stage tracing on every batch) and emit ONE
/// diagnostic JSON document — tier census, per-shard queue depths,
/// producer counters, morph cadence with the hottest flows, the last
/// flight-recorder window, pipeline-stage timings, and checkpoint
/// status. One object on one line; pipe it into `jq`.
pub fn run_doctor(
    cfg: DoctorConfig,
    lines: &mut dyn Iterator<Item = String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    use smb_devtools::Json;

    let spec = AlgoSpec::new(Algo::Smb).memory_bits(cfg.memory_bits).n_max(1e6);
    let mut config = EngineConfig::new(spec)
        .with_batch(cfg.batch)
        .with_trace_sample(1);
    if cfg.shards > 0 {
        config = config.with_shards(cfg.shards);
    }
    let mut engine = ShardedFlowEngine::new(config).map_err(|e| e.to_string())?;

    // Ingest through one producer handle, as a server session does;
    // the report carries its counters.
    let mut skipped = 0u64;
    let mut producer = engine.producer_handle();
    for line in lines {
        match parse_flow_line(&line) {
            Some((key, item)) => producer.ingest(key, item.as_bytes()),
            None => skipped += 1,
        }
    }
    producer.flush();
    let pstats = producer.stats();
    drop(producer);
    engine.flush();

    // Checkpoint before snapshotting so the epoch's lifecycle event is
    // part of the reported flight window.
    let checkpoint = match &cfg.checkpoint_dir {
        Some(dir) => {
            let epoch = engine
                .checkpoint_now(&CheckpointConfig::new(dir))
                .map_err(|e| e.to_string())?;
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(true)),
                ("dir".into(), Json::str(dir.display().to_string())),
                ("epoch".into(), Json::Int(epoch as i128)),
            ])
        }
        None => Json::Obj(vec![("enabled".into(), Json::Bool(false))]),
    };

    let answers = engine
        .query_handle()
        .run(&EngineQuery::new().with_top_k(cfg.top).with_flow_count());
    let stats = engine.stats();
    let snap = engine.metrics_snapshot();

    let tiers = answers.tier_stats;
    let tier_census = Json::Obj(vec![
        ("small".into(), Json::Int(tiers.small as i128)),
        ("array".into(), Json::Int(tiers.array as i128)),
        ("full".into(), Json::Int(tiers.full as i128)),
        (
            "promotions_to_array".into(),
            Json::Int(tiers.promotions_to_array as i128),
        ),
        (
            "promotions_to_full".into(),
            Json::Int(tiers.promotions_to_full as i128),
        ),
    ]);

    let queue_depths = Json::Arr(
        stats
            .shards
            .iter()
            .map(|s| {
                let shard = s.shard.to_string();
                let depth = snap
                    .get("engine_queue_depth", &[("shard", shard.as_str())])
                    .and_then(|v| v.as_gauge())
                    .unwrap_or_default();
                Json::Obj(vec![
                    ("shard".into(), Json::Int(s.shard as i128)),
                    ("depth".into(), Json::Int(depth as i128)),
                    ("batches_sent".into(), Json::Int(s.batches_sent as i128)),
                    (
                        "batches_processed".into(),
                        Json::Int(s.batches_processed as i128),
                    ),
                    ("items_enqueued".into(), Json::Int(s.items_enqueued as i128)),
                    ("dropped_items".into(), Json::Int(s.dropped_items as i128)),
                ])
            })
            .collect(),
    );

    let producer_counters = Json::Obj(vec![
        ("producer".into(), Json::Int(pstats.producer as i128)),
        ("items".into(), Json::Int(pstats.items as i128)),
        ("batches".into(), Json::Int(pstats.batches as i128)),
        (
            "queue_full_events".into(),
            Json::Int(pstats.queue_full_events as i128),
        ),
        ("dropped_items".into(), Json::Int(pstats.dropped_items as i128)),
    ]);

    let cadence = snap
        .get("smb_items_between_morphs", &[])
        .and_then(|v| v.as_histogram())
        .map(|h| {
            Json::Obj(vec![
                ("count".into(), Json::Int(h.count as i128)),
                ("p50".into(), Json::Float(h.p50)),
                ("p95".into(), Json::Float(h.p95)),
            ])
        })
        .unwrap_or(Json::Null);

    let hot_flows = Json::Arr(
        answers
            .top_k
            .unwrap_or_default()
            .iter()
            .map(|&(flow, est)| {
                Json::Obj(vec![
                    ("flow".into(), Json::str(format!("{flow:016x}"))),
                    ("estimate".into(), Json::Float(est)),
                ])
            })
            .collect(),
    );

    let morph = Json::Obj(vec![
        (
            "events_total".into(),
            Json::Int(snap.counter_total("smb_morph_events_total") as i128),
        ),
        (
            "cleared_total".into(),
            Json::Int(snap.counter_total("smb_cleared_total") as i128),
        ),
        (
            "saturated_total".into(),
            Json::Int(snap.counter_total("smb_saturated_total") as i128),
        ),
        ("items_between_morphs".into(), cadence),
        ("hot_flows".into(), hot_flows),
    ]);

    let (flight, flight_window) = match engine.flight_recorder() {
        Some(rec) => (
            Json::Obj(vec![
                (
                    "recorded_total".into(),
                    Json::Int(rec.recorded_total() as i128),
                ),
                ("capacity".into(), Json::Int(rec.capacity() as i128)),
            ]),
            Json::Arr(
                rec.recent(DOCTOR_FLIGHT_WINDOW)
                    .iter()
                    .map(|e| e.to_json())
                    .collect(),
            ),
        ),
        None => (Json::Null, Json::Arr(Vec::new())),
    };

    let stage_ns = Json::Arr(
        snap.metrics
            .iter()
            .filter(|m| m.name == "engine_stage_duration_ns")
            .flat_map(|m| &m.series)
            .filter_map(|s| {
                let h = s.value.as_histogram()?;
                let label = |key: &str| {
                    s.labels
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                Some(Json::Obj(vec![
                    ("shard".into(), Json::str(label("shard"))),
                    ("stage".into(), Json::str(label("stage"))),
                    ("count".into(), Json::Int(h.count as i128)),
                    ("p50_ns".into(), Json::Float(h.p50)),
                    ("p95_ns".into(), Json::Float(h.p95)),
                ]))
            })
            .collect(),
    );

    let doc = Json::Obj(vec![
        ("doctor".into(), Json::str("smbcount")),
        (
            "items_enqueued".into(),
            Json::Int(stats.total_enqueued() as i128),
        ),
        (
            "items_recorded".into(),
            Json::Int(stats.total_recorded() as i128),
        ),
        (
            "items_dropped".into(),
            Json::Int(stats.total_dropped() as i128),
        ),
        ("skipped_lines".into(), Json::Int(skipped as i128)),
        (
            "flows".into(),
            Json::Int(answers.flow_count.unwrap_or(0) as i128),
        ),
        ("tier_census".into(), tier_census),
        ("queue_depths".into(), queue_depths),
        ("producer_counters".into(), producer_counters),
        ("morph".into(), morph),
        ("flight".into(), flight),
        ("flight_window".into(), flight_window),
        ("stage_ns".into(), stage_ns),
        ("checkpoint".into(), checkpoint),
    ]);
    writeln!(out, "{}", doc.to_string()).map_err(|e| e.to_string())
}

/// Run `trace`: emit `flow<TAB>item` lines of a synthetic trace.
pub fn run_trace(cfg: TraceCliConfig, out: &mut dyn Write) -> Result<(), String> {
    let trace = TraceConfig {
        flows: cfg.flows.max(1),
        seed: cfg.seed,
        ..TraceConfig::default()
    }
    .build();
    for p in trace.packets() {
        writeln!(out, "{}\t{}", p.flow, p.item).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        assert!(matches!(parse_args(&[]), Ok(Command::Help)));
        assert!(matches!(parse_args(&s(&["help"])), Ok(Command::Help)));
        let Ok(Command::Count(c)) =
            parse_args(&s(&["count", "--algo", "hllpp", "--memory-bits", "4096", "--exact"]))
        else {
            panic!("expected count")
        };
        assert_eq!(c.algo, Algo::HllPlusPlus);
        assert_eq!(c.memory_bits, 4096);
        assert!(c.exact);
    }

    #[test]
    fn parse_serve_flags() {
        let Ok(Command::Serve(c)) = parse_args(&s(&[
            "serve", "--algo", "hll", "--shards", "4", "--batch", "128", "--queue", "2",
            "--policy", "drop", "--expected-flows", "5000", "--memory-bits", "4096",
            "--top", "3", "--trace-sample", "8",
        ])) else {
            panic!("expected serve")
        };
        assert_eq!(c.algo, Algo::Hll);
        assert_eq!(c.shards, 4);
        assert_eq!(c.batch, 128);
        assert_eq!(c.queue_batches, 2);
        assert_eq!(c.policy, BackpressurePolicy::DropNewest);
        assert_eq!(c.expected_flows, 5000);
        assert_eq!(c.memory_bits, 4096);
        assert_eq!(c.top, 3);
        assert_eq!(c.trace_sample, 8);
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.trace_sample, 0, "tracing is off by default");
        assert!(parse_args(&s(&["serve", "--policy", "explode"])).is_err());
        assert!(parse_args(&s(&["serve", "--trace-sample", "lots"])).is_err());
        assert!(parse_args(&s(&["serve", "--wat"])).is_err());
    }

    #[test]
    fn parse_producers_flag() {
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.producers, 1, "default is the classic single-producer loop");
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve", "--producers", "4"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.producers, 4);
        assert!(parse_args(&s(&["serve", "--producers", "0"])).is_err());
        assert!(parse_args(&s(&["serve", "--producers"])).is_err());
        assert!(parse_args(&s(&["serve", "--producers", "many"])).is_err());
    }

    #[test]
    fn serve_multi_producer_matches_single_producer_report() {
        let base = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 2,
            producers: 1,
            batch: 64,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 0.0,
            top: 5,
            metrics: None,
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut lines = Vec::new();
        for i in 0..3000u32 {
            lines.push(format!("heavy\t{i}"));
        }
        for i in 0..50u32 {
            lines.push(format!("light\t{i}"));
        }
        lines.push("malformed".into());

        let mut single = Vec::new();
        run_serve(base.clone(), &mut lines.clone().into_iter(), &mut single).unwrap();
        let single = String::from_utf8(single).unwrap();

        let cfg = ServeConfig { producers: 4, ..base };
        let mut multi = Vec::new();
        run_serve(cfg, &mut lines.into_iter(), &mut multi).unwrap();
        let multi = String::from_utf8(multi).unwrap();

        assert!(multi.contains("4 producer(s)"), "{multi}");
        assert!(multi.contains("flows tracked: 2"), "{multi}");
        assert!(multi.contains("skipped 1"), "{multi}");
        // Fan-out reorders per-flow arrivals but never loses or
        // duplicates an item, so both runs see the same flows and
        // (since SMB sampling is order-sensitive once it morphs)
        // estimates that agree to within sketch noise, not bit-exactly.
        let estimates = |report: &str| -> Vec<(String, f64)> {
            let mut rows: Vec<(String, f64)> = report
                .lines()
                .filter(|l| l.contains('\t'))
                .map(|l| {
                    let mut parts = l.split('\t');
                    let flow = parts.next().unwrap().to_string();
                    let est: f64 = parts.next().unwrap().parse().unwrap();
                    (flow, est)
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        let single_rows = estimates(&single);
        let multi_rows = estimates(&multi);
        assert_eq!(single_rows.len(), multi_rows.len());
        for ((f1, e1), (f2, e2)) in single_rows.iter().zip(&multi_rows) {
            assert_eq!(f1, f2);
            assert!(
                (e1 - e2).abs() / e1.max(1.0) < 0.2,
                "{f1}: single {e1} vs multi {e2}"
            );
        }
    }

    #[test]
    fn parse_listen_flag() {
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve", "--listen", "127.0.0.1:0"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.listen.as_deref(), Some("127.0.0.1:0"));
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.listen, None, "stdin mode is the default");
        // Checkpoints are always written as v2; the format flag is gone.
        let args = s(&["serve", "--checkpoint-dir", "/tmp/ck", "--checkpoint-format", "v2"]);
        assert!(parse_args(&args).is_err());
        // Inconsistent combinations are rejected at parse time.
        assert!(
            parse_args(&s(&["serve", "--listen", "127.0.0.1:0", "--producers", "2"])).is_err()
        );
    }

    #[test]
    fn parse_client_actions() {
        let Ok(Command::Client(c)) = parse_args(&s(&["client", "record"])) else {
            panic!("expected client")
        };
        assert_eq!(c.connect, "127.0.0.1:4742", "default address");
        assert_eq!(c.action, ClientAction::Record { batch: 512 });
        let Ok(Command::Client(c)) = parse_args(&s(&[
            "client", "query", "--connect", "10.0.0.1:9", "--flow", "heavy",
        ])) else {
            panic!("expected client")
        };
        assert_eq!(c.connect, "10.0.0.1:9");
        assert_eq!(c.action, ClientAction::Query { flow: "heavy".into() });
        let Ok(Command::Client(c)) = parse_args(&s(&["client", "top-k", "--top", "3"])) else {
            panic!("expected client")
        };
        assert_eq!(c.action, ClientAction::TopK { top: 3 });
        let Ok(Command::Client(c)) = parse_args(&s(&["client", "subscribe", "--max", "7"])) else {
            panic!("expected client")
        };
        assert_eq!(c.action, ClientAction::Subscribe { max: 7 });
        assert!(matches!(
            parse_args(&s(&["client", "snapshot"])),
            Ok(Command::Client(ClientConfig { action: ClientAction::Snapshot, .. }))
        ));
        assert!(matches!(
            parse_args(&s(&["client", "ping"])),
            Ok(Command::Client(ClientConfig { action: ClientAction::Ping, .. }))
        ));
        assert!(matches!(
            parse_args(&s(&["client", "shutdown"])),
            Ok(Command::Client(ClientConfig { action: ClientAction::Shutdown, .. }))
        ));
        assert!(parse_args(&s(&["client"])).is_err(), "action is mandatory");
        assert!(parse_args(&s(&["client", "explode"])).is_err());
        assert!(parse_args(&s(&["client", "query"])).is_err(), "query needs --flow");
        assert!(parse_args(&s(&["client", "record", "--batch", "0"])).is_err());
        assert!(parse_args(&s(&["client", "record", "--wat"])).is_err());
    }

    /// A `Write` the serve thread and the test can share: the test
    /// polls it for the `listening on` line to learn the ephemeral
    /// port while `run_serve` is still blocked inside `serve()`.
    #[derive(Clone, Default)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedOut {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn serve_listen_round_trips_with_client() {
        let base = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 2,
            producers: 1,
            batch: 64,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 0.0,
            top: 5,
            metrics: None,
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut lines = Vec::new();
        for i in 0..30_000u32 {
            lines.push(format!("heavy\t{i}"));
        }
        for i in 0..50u32 {
            lines.push(format!("light\t{i}"));
        }

        // Reference: the same trace through stdin-mode serve.
        let mut reference = Vec::new();
        run_serve(base.clone(), &mut lines.clone().into_iter(), &mut reference).unwrap();
        let reference = String::from_utf8(reference).unwrap();
        let reference_rows: Vec<&str> =
            reference.lines().filter(|l| l.contains('\t')).collect();

        // Network: serve --listen on an ephemeral port, in a thread.
        let cfg = ServeConfig { listen: Some("127.0.0.1:0".into()), ..base };
        let out = SharedOut::default();
        let serve_out = out.clone();
        let server = std::thread::spawn(move || {
            let mut serve_out = serve_out;
            run_serve(cfg, &mut std::iter::empty(), &mut serve_out).unwrap();
        });
        let addr = loop {
            if let Some(line) = out.text().lines().find(|l| l.starts_with("listening on ")) {
                break line["listening on ".len()..].to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        // Ship the trace, read back top-k, then shut the server down —
        // all through the public CLI entry points.
        let mut client_out = Vec::new();
        run_client(
            ClientConfig {
                connect: addr.clone(),
                action: ClientAction::Record { batch: 128 },
            },
            &mut lines.clone().into_iter().chain(["malformed".to_string()]),
            &mut client_out,
        )
        .unwrap();
        let recorded = String::from_utf8(client_out).unwrap();
        assert!(recorded.contains("records sent : 30050"), "{recorded}");
        assert!(recorded.contains("skipped 1"), "{recorded}");

        let mut client_out = Vec::new();
        run_client(
            ClientConfig {
                connect: addr.clone(),
                action: ClientAction::Query { flow: "nosuch".into() },
            },
            &mut std::iter::empty(),
            &mut client_out,
        )
        .unwrap();
        assert!(String::from_utf8(client_out).unwrap().contains("not seen"));

        let mut client_out = Vec::new();
        run_client(
            ClientConfig {
                connect: addr.clone(),
                action: ClientAction::TopK { top: 5 },
            },
            &mut std::iter::empty(),
            &mut client_out,
        )
        .unwrap();
        let top_k = String::from_utf8(client_out).unwrap();
        // Single-producer in-order delivery: networked ingest is
        // bit-identical to the stdin run, so the report rows match
        // verbatim.
        for row in &reference_rows {
            assert!(top_k.contains(row), "missing {row} in {top_k}");
        }

        let mut client_out = Vec::new();
        run_client(
            ClientConfig {
                connect: addr.clone(),
                action: ClientAction::Snapshot,
            },
            &mut std::iter::empty(),
            &mut client_out,
        )
        .unwrap();
        let snapshot = String::from_utf8(client_out).unwrap();
        assert!(snapshot.contains("snapshot     : 2 flow(s)"), "{snapshot}");

        let mut client_out = Vec::new();
        run_client(
            ClientConfig {
                connect: addr.clone(),
                action: ClientAction::Subscribe { max: 3 },
            },
            &mut std::iter::empty(),
            &mut client_out,
        )
        .unwrap();
        let subscribed = String::from_utf8(client_out).unwrap();
        assert!(subscribed.contains("\"event\":"), "{subscribed}");
        assert!(subscribed.contains("events delivered: 3"), "{subscribed}");

        let mut client_out = Vec::new();
        run_client(
            ClientConfig { connect: addr, action: ClientAction::Shutdown },
            &mut std::iter::empty(),
            &mut client_out,
        )
        .unwrap();
        server.join().unwrap();

        let report = out.text();
        assert!(report.contains("flows tracked: 2"), "{report}");
        assert!(report.contains("sessions     : 6"), "{report}");
        for row in &reference_rows {
            assert!(report.contains(row), "missing {row} in final report: {report}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_args(&s(&["count", "--algo", "nope"])).is_err());
        assert!(parse_args(&s(&["count", "--memory-bits"])).is_err());
        assert!(parse_args(&s(&["frobnicate"])).is_err());
        assert!(parse_args(&s(&["flows", "--wat"])).is_err());
    }

    #[test]
    fn parse_metrics_flags() {
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve", "--metrics", "prom"])) else {
            panic!("expected serve")
        };
        assert_eq!(c.metrics, Some(ExportFormat::Prometheus));
        assert_eq!(c.metrics_out, None);
        let Ok(Command::Serve(c)) = parse_args(&s(&[
            "serve", "--metrics", "json", "--metrics-out", "/tmp/m.json",
            "--metrics-interval", "5",
        ])) else {
            panic!("expected serve")
        };
        assert_eq!(c.metrics, Some(ExportFormat::Json));
        assert_eq!(c.metrics_out.as_deref(), Some(std::path::Path::new("/tmp/m.json")));
        assert_eq!(c.metrics_interval, Some(5));
        // Inconsistent combinations are rejected at parse time.
        assert!(parse_args(&s(&["serve", "--metrics", "xml"])).is_err());
        assert!(parse_args(&s(&["serve", "--metrics-out", "/tmp/x"])).is_err());
        assert!(parse_args(&s(&["serve", "--metrics", "prom", "--metrics-interval", "5"]))
            .is_err());
    }

    #[test]
    fn parse_checkpoint_flags() {
        let Ok(Command::Serve(c)) = parse_args(&s(&["serve", "--checkpoint-dir", "/tmp/ck"]))
        else {
            panic!("expected serve")
        };
        assert_eq!(c.checkpoint_dir.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert_eq!(c.checkpoint_interval, 30, "interval defaults to 30 s");
        let Ok(Command::Serve(c)) = parse_args(&s(&[
            "serve", "--checkpoint-dir", "/tmp/ck", "--checkpoint-interval", "5",
        ])) else {
            panic!("expected serve")
        };
        assert_eq!(c.checkpoint_interval, 5);
        // Inconsistent combinations are rejected at parse time.
        assert!(parse_args(&s(&["serve", "--checkpoint-interval", "5"])).is_err());
        assert!(parse_args(&s(&[
            "serve", "--checkpoint-dir", "/tmp/ck", "--checkpoint-interval", "0",
        ]))
        .is_err());
    }

    #[test]
    fn parse_restore_flags() {
        let Ok(Command::Restore(c)) = parse_args(&s(&["restore", "--dir", "/tmp/ck"])) else {
            panic!("expected restore")
        };
        assert_eq!(c.dir, std::path::Path::new("/tmp/ck"));
        assert_eq!(c.top, 20);
        assert_eq!(c.threshold, 0.0);
        let Ok(Command::Restore(c)) = parse_args(&s(&[
            "restore", "--dir", "/tmp/ck", "--top", "3", "--threshold", "50",
        ])) else {
            panic!("expected restore")
        };
        assert_eq!(c.top, 3);
        assert_eq!(c.threshold, 50.0);
        assert!(parse_args(&s(&["restore"])).is_err(), "--dir is mandatory");
        assert!(parse_args(&s(&["restore", "--wat"])).is_err());
    }

    #[test]
    fn serve_checkpoint_then_restore_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "smbcount-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 2,
            producers: 1,
            batch: 64,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 0.0,
            top: 5,
            metrics: None,
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_interval: 3600, // only the final shutdown epoch fires
            listen: None,
        };
        let mut lines = Vec::new();
        for i in 0..3000u32 {
            lines.push(format!("heavy\t{i}"));
        }
        for i in 0..50u32 {
            lines.push(format!("light\t{i}"));
        }
        let mut out = Vec::new();
        run_serve(cfg, &mut lines.into_iter(), &mut out).unwrap();
        let served = String::from_utf8(out).unwrap();
        assert!(served.contains("checkpoint   : epoch 0"), "{served}");
        let serve_estimates: Vec<&str> =
            served.lines().filter(|l| l.contains('\t')).collect();

        let mut out = Vec::new();
        run_restore(
            RestoreCliConfig { dir: dir.clone(), top: 5, threshold: 0.0 },
            &mut out,
        )
        .unwrap();
        let restored = String::from_utf8(out).unwrap();
        assert!(restored.contains("restored     : epoch 0"), "{restored}");
        assert!(restored.contains("flows        : 2"), "{restored}");
        // The recovered estimates are the served estimates, verbatim.
        for line in &serve_estimates {
            assert!(restored.contains(line), "missing {line} in {restored}");
        }
        let _ = std::fs::remove_dir_all(&dir);

        // A missing directory is a clean error, not a panic.
        assert!(run_restore(
            RestoreCliConfig { dir: dir.clone(), top: 5, threshold: 0.0 },
            &mut Vec::new(),
        )
        .is_err());
    }

    #[test]
    fn parse_morphlog_flags() {
        let Ok(Command::Morphlog(c)) =
            parse_args(&s(&["morphlog", "--memory-bits", "4096", "--n-max", "50000"]))
        else {
            panic!("expected morphlog")
        };
        assert_eq!(c.memory_bits, 4096);
        assert_eq!(c.n_max, 50_000.0);
        assert_eq!(c.last, None, "default streams every morph");
        let Ok(Command::Morphlog(c)) = parse_args(&s(&["morphlog", "--last", "16"])) else {
            panic!("expected morphlog")
        };
        assert_eq!(c.last, Some(16));
        assert!(parse_args(&s(&["morphlog", "--last", "0"])).is_err());
        assert!(parse_args(&s(&["morphlog", "--last"])).is_err());
        assert!(parse_args(&s(&["morphlog", "--wat"])).is_err());
    }

    #[test]
    fn parse_doctor_flags() {
        let Ok(Command::Doctor(c)) = parse_args(&s(&["doctor"])) else {
            panic!("expected doctor")
        };
        assert_eq!(c.memory_bits, 2048);
        assert_eq!(c.shards, 0, "default is one shard per core");
        assert_eq!(c.batch, 256);
        assert_eq!(c.top, 5);
        assert_eq!(c.checkpoint_dir, None);
        let Ok(Command::Doctor(c)) = parse_args(&s(&[
            "doctor", "--memory-bits", "4096", "--shards", "2", "--batch", "32",
            "--top", "3", "--checkpoint-dir", "/tmp/ck",
        ])) else {
            panic!("expected doctor")
        };
        assert_eq!(c.memory_bits, 4096);
        assert_eq!(c.shards, 2);
        assert_eq!(c.batch, 32);
        assert_eq!(c.top, 3);
        assert_eq!(c.checkpoint_dir.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert!(parse_args(&s(&["doctor", "--wat"])).is_err());
        assert!(parse_args(&s(&["doctor", "--shards"])).is_err());
    }

    #[test]
    fn serve_emits_prometheus_metrics() {
        let cfg = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 2,
            producers: 1,
            batch: 32,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 1,
            threshold: 0.0,
            top: 5,
            metrics: Some(ExportFormat::Prometheus),
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut lines = Vec::new();
        for i in 0..20_000u32 {
            lines.push(format!("flow-{}\t{i}", i % 4));
        }
        let mut out = Vec::new();
        run_serve(cfg, &mut lines.into_iter(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# TYPE engine_items_enqueued_total counter"), "{text}");
        assert!(text.contains("engine_items_enqueued_total{shard=\"0\"}"), "{text}");
        assert!(text.contains("engine_batch_occupancy_bucket"), "{text}");
        assert!(text.contains("smb_morph_events_total"), "{text}");
        // --trace-sample 1 fills the per-stage histograms, and the
        // flight-recorder gauges ride along with engine telemetry.
        assert!(
            text.contains("engine_stage_duration_ns_bucket{shard=\"0\",stage=\"record_batch\""),
            "{text}"
        );
        assert!(text.contains("smb_flight_events_total"), "{text}");
        assert!(text.contains("smb_flight_capacity"), "{text}");
    }

    #[test]
    fn serve_writes_json_metrics_file() {
        let path = std::env::temp_dir().join(format!(
            "smbcount-metrics-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id(),
        ));
        let cfg = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 1,
            producers: 1,
            batch: 32,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 0.0,
            top: 5,
            metrics: Some(ExportFormat::Json),
            metrics_out: Some(path.clone()),
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut lines = (0..500u32).map(|i| format!("f\t{i}"));
        let mut out = Vec::new();
        run_serve(cfg, &mut lines, &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(
            !report.contains("\"registry\""),
            "metrics must go to the file, not the report: {report}"
        );
        let written = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_file(&path);
        let parsed = smb_devtools::Json::parse(&written).expect("valid JSON");
        assert_eq!(
            parsed.field("registry").unwrap().as_str().unwrap(),
            "smb_engine"
        );
    }

    #[test]
    fn morphlog_streams_json_lines() {
        let cfg = MorphlogConfig {
            memory_bits: 2048,
            n_max: 1e5,
            last: None,
        };
        let mut lines = (0..50_000u32).map(|i| format!("item-{i}"));
        let mut out = Vec::new();
        run_morphlog(cfg, &mut lines, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut morphs = 0u32;
        let mut finals = 0u32;
        let mut last_round = None::<u64>;
        for line in text.lines() {
            let obj = smb_devtools::Json::parse(line).expect("each line is one JSON object");
            match obj.field("event").unwrap().as_str().unwrap() {
                "morph" => {
                    morphs += 1;
                    let round = obj.field("round").unwrap().as_u64().unwrap();
                    match last_round {
                        Some(p) => assert_eq!(round, p + 1, "rounds close in order"),
                        None => assert_eq!(round, 0, "first morph closes round 0"),
                    }
                    last_round = Some(round);
                    assert!(obj.field("estimate_at_close").unwrap().as_f64().unwrap() > 0.0);
                }
                "final" => {
                    finals += 1;
                    assert_eq!(obj.field("items_total").unwrap().as_u64().unwrap(), 50_000);
                }
                other => panic!("unexpected event {other}"),
            }
        }
        assert!(morphs > 0, "50k items over 2048 bits must morph: {text}");
        assert_eq!(finals, 1);
        assert!(text.lines().last().unwrap().contains("final"));
    }

    #[test]
    fn morphlog_last_emits_only_the_final_window() {
        let cfg = MorphlogConfig {
            memory_bits: 2048,
            n_max: 1e5,
            last: Some(5),
        };
        let mut lines = (0..50_000u32).map(|i| format!("item-{i}"));
        let mut out = Vec::new();
        run_morphlog(cfg, &mut lines, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "5 flight events + 1 final: {text}");
        let mut last_round = None::<u64>;
        for line in &lines[..5] {
            let obj = smb_devtools::Json::parse(line).expect("each line is one JSON object");
            assert_eq!(obj.field("event").unwrap().as_str().unwrap(), "flight");
            assert_eq!(obj.field("kind").unwrap().as_str().unwrap(), "morph");
            let round = obj.field("round").unwrap().as_u64().unwrap();
            if let Some(p) = last_round {
                assert_eq!(round, p + 1, "window preserves round order: {text}");
            }
            last_round = Some(round);
        }
        let summary = smb_devtools::Json::parse(lines[5]).unwrap();
        assert_eq!(summary.field("event").unwrap().as_str().unwrap(), "final");
        assert_eq!(summary.field("window").unwrap().as_u64().unwrap(), 5);
        assert!(
            summary.field("events_recorded").unwrap().as_u64().unwrap() > 5,
            "50k items morph far more than 5 times: {text}"
        );
        // The retained rounds are the LAST ones, not the first.
        assert!(last_round.unwrap() >= 5, "{text}");
    }

    #[test]
    fn doctor_emits_one_parseable_snapshot() {
        let cfg = DoctorConfig {
            memory_bits: 2048,
            shards: 2,
            batch: 32,
            top: 3,
            checkpoint_dir: None,
        };
        let mut lines = Vec::new();
        for i in 0..30_000u32 {
            lines.push(format!("hot\t{i}"));
        }
        for f in 0..20u32 {
            lines.push(format!("cold-{f}\tonly-item"));
        }
        lines.push("malformed".into());
        let mut out = Vec::new();
        run_doctor(cfg, &mut lines.into_iter(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "one JSON object on one line");
        let doc = smb_devtools::Json::parse(&text).expect("doctor output parses");

        assert_eq!(doc.field("skipped_lines").unwrap().as_u64().unwrap(), 1);
        assert_eq!(doc.field("items_recorded").unwrap().as_u64().unwrap(), 30_020);
        assert_eq!(doc.field("flows").unwrap().as_u64().unwrap(), 21);

        let tiers = doc.field("tier_census").unwrap();
        assert!(
            tiers.field("full").unwrap().as_u64().unwrap() >= 1,
            "the hot flow must materialize a full estimator: {text}"
        );
        assert!(tiers.field("small").unwrap().as_u64().unwrap() >= 1, "{text}");

        let queues = doc.field("queue_depths").unwrap().as_arr().unwrap();
        assert_eq!(queues.len(), 2, "one entry per shard");
        for q in queues {
            assert_eq!(q.field("depth").unwrap().as_u64().unwrap(), 0, "drained after flush");
            assert!(q.field("batches_sent").unwrap().as_u64().is_ok());
        }

        let producer = doc.field("producer_counters").unwrap();
        assert_eq!(producer.field("items").unwrap().as_u64().unwrap(), 30_020);

        let morph = doc.field("morph").unwrap();
        let events = morph.field("events_total").unwrap().as_u64().unwrap();
        assert!(events > 0, "30k items over 2048 bits must morph: {text}");
        let hot = morph.field("hot_flows").unwrap().as_arr().unwrap();
        assert!(!hot.is_empty() && hot.len() <= 3, "{text}");
        assert!(hot[0].field("estimate").unwrap().as_f64().unwrap() > 10_000.0, "{text}");

        let window = doc.field("flight_window").unwrap().as_arr().unwrap();
        assert!(!window.is_empty(), "morphs land in the flight window: {text}");
        assert_eq!(
            window.last().unwrap().field("kind").unwrap().as_str().unwrap(),
            "morph"
        );
        assert!(
            doc.field("flight").unwrap().field("recorded_total").unwrap().as_u64().unwrap()
                >= events,
            "{text}"
        );

        let stages = doc.field("stage_ns").unwrap().as_arr().unwrap();
        let stage_names: Vec<String> = stages
            .iter()
            .map(|s| s.field("stage").unwrap().as_str().unwrap().to_string())
            .collect();
        for needed in ["producer_hash", "enqueue", "queue_wait", "record_batch", "query_sweep"] {
            assert!(stage_names.iter().any(|s| s == needed), "missing {needed}: {text}");
        }
        assert!(
            stages
                .iter()
                .filter(|s| s.field("stage").unwrap().as_str().unwrap() == "record_batch")
                .all(|s| s.field("count").unwrap().as_u64().unwrap() > 0),
            "doctor traces every batch: {text}"
        );

        let ckpt = doc.field("checkpoint").unwrap();
        assert!(matches!(ckpt.field("enabled").unwrap(), smb_devtools::Json::Bool(false)));
    }

    #[test]
    fn doctor_checkpoint_dir_reports_the_epoch() {
        let dir = std::env::temp_dir().join(format!(
            "smbcount-doctor-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DoctorConfig {
            memory_bits: 2048,
            shards: 1,
            batch: 32,
            top: 2,
            checkpoint_dir: Some(dir.clone()),
        };
        let mut lines = (0..5_000u32).map(|i| format!("f\t{i}"));
        let mut out = Vec::new();
        run_doctor(cfg, &mut lines, &mut out).unwrap();
        let doc = smb_devtools::Json::parse(&String::from_utf8(out).unwrap()).unwrap();
        let ckpt = doc.field("checkpoint").unwrap();
        assert!(matches!(ckpt.field("enabled").unwrap(), smb_devtools::Json::Bool(true)));
        assert_eq!(ckpt.field("epoch").unwrap().as_u64().unwrap(), 0);
        // The checkpoint itself is a lifecycle event in the window.
        let window = doc.field("flight_window").unwrap().as_arr().unwrap();
        assert!(window
            .iter()
            .any(|e| e.field("kind").unwrap().as_str().unwrap() == "checkpoint"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_estimates_distinct_lines() {
        let cfg = CountConfig {
            algo: Algo::Smb,
            memory_bits: 8192,
            exact: true,
        };
        let mut lines = (0..10_000u32)
            .chain(0..10_000) // full duplicate pass
            .map(|i| format!("user-{i}"));
        let mut out = Vec::new();
        run_count(cfg, &mut lines, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("items        : 20000"), "{text}");
        assert!(text.contains("exact        : 10000"), "{text}");
        // Estimate within 15%.
        let est: f64 = text
            .lines()
            .find(|l| l.starts_with("estimate"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|v| v.parse().ok())
            .expect("estimate line");
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.15, "{est}");
    }

    #[test]
    fn count_works_for_every_algo() {
        for algo in smb_factory::ALL_ALGOS {
            let cfg = CountConfig {
                algo,
                memory_bits: 8192,
                exact: false,
            };
            let mut lines = (0..5000u32).map(|i| format!("item-{i}"));
            let mut out = Vec::new();
            run_count(cfg, &mut lines, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let est: f64 = text
                .lines()
                .find(|l| l.starts_with("estimate"))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|v| v.parse().ok())
                .expect("estimate line");
            assert!(
                (est - 5000.0).abs() / 5000.0 < 0.4,
                "{}: estimate {est}",
                algo.name()
            );
        }
    }

    #[test]
    fn flows_ranks_heavy_flow_first() {
        let cfg = FlowsConfig {
            memory_bits: 2048,
            threshold: 100.0,
            top: 5,
        };
        let mut lines = Vec::new();
        for i in 0..3000u32 {
            lines.push(format!("heavy\t{i}"));
        }
        for i in 0..50u32 {
            lines.push(format!("light\t{i}"));
        }
        let mut out = Vec::new();
        run_flows(cfg, &mut lines.into_iter(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("flows tracked: 2"), "{text}");
        // Only the heavy flow clears the threshold.
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    #[test]
    fn flows_skips_malformed_lines() {
        let cfg = FlowsConfig {
            memory_bits: 2048,
            threshold: 0.0,
            top: 10,
        };
        let mut lines = vec!["good\titem".to_string(), "bad-line".to_string(), "".to_string()]
            .into_iter();
        let mut out = Vec::new();
        run_flows(cfg, &mut lines, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("skipped 2"), "{text}");
    }

    #[test]
    fn serve_reports_flows_and_stats() {
        let cfg = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 2,
            producers: 1,
            batch: 64,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 100.0,
            top: 5,
            metrics: None,
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut lines = Vec::new();
        for i in 0..3000u32 {
            lines.push(format!("heavy\t{i}"));
        }
        for i in 0..50u32 {
            lines.push(format!("light\t{i}"));
        }
        lines.push("malformed".into());
        let mut out = Vec::new();
        run_serve(cfg, &mut lines.into_iter(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("flows tracked: 2"), "{text}");
        assert!(text.contains("skipped 1"), "{text}");
        assert!(text.contains("2 shard(s)"), "{text}");
        assert!(text.contains("enqueued"), "{text}");
        // Only the heavy flow clears the threshold; its estimate is
        // the last line.
        let last = text.lines().last().unwrap();
        let est: f64 = last.split('\t').nth(1).unwrap().parse().unwrap();
        assert!((est - 3000.0).abs() / 3000.0 < 0.3, "{est}");
    }

    #[test]
    fn serve_and_flows_report_same_flow_count() {
        let mut trace_out = Vec::new();
        run_trace(TraceCliConfig { flows: 150, seed: 4 }, &mut trace_out).unwrap();
        let text = String::from_utf8(trace_out).unwrap();
        let serve_cfg = ServeConfig {
            algo: Algo::Smb,
            memory_bits: 2048,
            shards: 3,
            producers: 1,
            batch: 32,
            queue_batches: 4,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
            threshold: 0.0,
            top: 5,
            metrics: None,
            metrics_out: None,
            metrics_interval: None,
            checkpoint_dir: None,
            checkpoint_interval: 30,
            listen: None,
        };
        let mut out = Vec::new();
        run_serve(serve_cfg, &mut text.lines().map(|l| l.to_string()), &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(report.contains("flows tracked: 150"), "{report}");
    }

    #[test]
    fn trace_emits_parsable_lines() {
        let cfg = TraceCliConfig { flows: 50, seed: 3 };
        let mut out = Vec::new();
        run_trace(cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() > 50);
        for line in text.lines().take(100) {
            let mut parts = line.split('\t');
            parts.next().unwrap().parse::<u32>().unwrap();
            parts.next().unwrap().parse::<u32>().unwrap();
        }
    }

    #[test]
    fn trace_then_flows_roundtrip() {
        // The CLI's own trace feeds its own flows command.
        let mut trace_out = Vec::new();
        run_trace(TraceCliConfig { flows: 200, seed: 9 }, &mut trace_out).unwrap();
        let text = String::from_utf8(trace_out).unwrap();
        let cfg = FlowsConfig {
            memory_bits: 2048,
            threshold: 0.0,
            top: 5,
        };
        let mut out = Vec::new();
        run_flows(cfg, &mut text.lines().map(|l| l.to_string()), &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(report.contains("flows tracked: 200"), "{report}");
    }
}
