//! `smbcount` — command-line cardinality estimation.
//!
//! ```text
//! smbcount count [--algo smb|mrb|hllpp|...] [--memory-bits 5000] [--exact]
//!     read items from stdin, one per line; print the estimate
//! smbcount flows [--memory-bits 2048] [--threshold N] [--top K]
//!     read "flow<TAB>item" lines; print per-flow estimates
//! smbcount serve [--algo A] [--shards N] [--producers P] [--batch B] [--queue Q]
//!                [--policy block|drop] [--trace-sample N]
//!                [--expected-flows F] [--memory-bits M] [--threshold N] [--top K]
//!                [--metrics json|prom] [--metrics-out PATH] [--metrics-interval SECS]
//!                [--checkpoint-dir DIR] [--checkpoint-interval SECS] [--listen ADDR]
//!     sharded parallel flows mode: per-flow estimates + engine stats
//!     (+ metrics snapshot in JSON or Prometheus text exposition,
//!      + pipeline-stage tracing of every Nth batch,
//!      + durable checkpoints and a final epoch on shutdown,
//!      + --listen: serve the PROTOCOL.md wire protocol over TCP
//!        instead of reading stdin, until a client sends SHUTDOWN)
//! smbcount client <record|query|top-k|snapshot|subscribe|ping|shutdown>
//!                 [--connect ADDR] [--batch N] [--flow NAME] [--top K] [--max N]
//!     talk to a `serve --listen` server: ship stdin records, query a
//!     flow, print top-k, pull a compressed snapshot, or tail morphs
//! smbcount restore --dir DIR [--top K] [--threshold N]
//!     recover the newest consistent checkpoint epoch; print what was
//!     restored and the recovered per-flow estimates
//! smbcount morphlog [--memory-bits M] [--n-max N] [--last N]
//!     stream SMB morph events over stdin lines as JSON lines
//!     (--last N: dump only the last N events from a flight-recorder
//!      ring at end-of-input instead of streaming)
//! smbcount doctor [--memory-bits M] [--shards N] [--batch B] [--top K]
//!                 [--checkpoint-dir DIR]
//!     ingest "flow<TAB>item" lines and emit one diagnostic JSON
//!     snapshot: tier census, queue depths, producer counters, morph
//!     cadence, flight-recorder window, stage timings, checkpoint
//! smbcount trace [--flows N] [--seed S]
//!     emit a synthetic CAIDA-like trace as "flow<TAB>item" lines
//! ```

use std::io::{BufRead, BufWriter, Write};

use smb_cli::{
    parse_args, run_client, run_count, run_doctor, run_flows, run_morphlog, run_restore,
    run_serve, run_trace, Command,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: smbcount <count|flows|serve|restore|morphlog|doctor|trace> [options]   (see --help)"
            );
            std::process::exit(2);
        }
    };

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let result = match command {
        Command::Help => {
            let _ = writeln!(
                out,
                "smbcount — streaming distinct-count estimation (self-morphing bitmaps)\n\n\
                 subcommands:\n\
                 \x20 count  [--algo A] [--memory-bits M] [--exact]   estimate |distinct(stdin lines)|\n\
                 \x20 flows  [--memory-bits M] [--threshold N] [--top K]   per-flow estimates of 'flow<TAB>item' lines\n\
                 \x20 serve  [--algo A] [--shards N] [--producers P] [--batch B] [--queue Q] [--policy block|drop]\n\
                 \x20        [--expected-flows F] [--memory-bits M] [--threshold N] [--top K]   sharded parallel flows mode + engine stats\n\
                 \x20        [--trace-sample N]   record pipeline-stage spans for every Nth batch (0 = off)\n\
                 \x20        [--metrics json|prom] [--metrics-out PATH] [--metrics-interval SECS]   metrics export\n\
                 \x20        [--checkpoint-dir DIR] [--checkpoint-interval SECS]   durable checkpoints + final epoch\n\
                 \x20        [--listen ADDR]   serve the wire protocol over TCP instead of reading stdin (see PROTOCOL.md)\n\
                 \x20 client  <record|query|top-k|snapshot|subscribe|ping|shutdown> [--connect ADDR] [--batch N] [--flow NAME] [--top K] [--max N]\n\
                 \x20        talk to a `serve --listen` server\n\
                 \x20 restore  --dir DIR [--top K] [--threshold N]   recover the newest consistent checkpoint\n\
                 \x20 morphlog  [--memory-bits M] [--n-max N] [--last N]   stream SMB morph events as JSON lines (--last N: only the final flight-recorder window)\n\
                 \x20 doctor  [--memory-bits M] [--shards N] [--batch B] [--top K] [--checkpoint-dir DIR]   one diagnostic JSON snapshot of 'flow<TAB>item' input\n\
                 \x20 trace  [--flows N] [--seed S]   generate a synthetic trace\n\n\
                 algorithms: smb mrb fm hll hllpp tailcut loglog superloglog kmv mincount bjkst bitmap"
            );
            Ok(())
        }
        Command::Count(cfg) => run_count(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out),
        Command::Flows(cfg) => run_flows(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out),
        Command::Serve(cfg) => run_serve(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out),
        Command::Client(cfg) => {
            run_client(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out)
        }
        Command::Restore(cfg) => run_restore(cfg, &mut out),
        Command::Morphlog(cfg) => {
            run_morphlog(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out)
        }
        Command::Doctor(cfg) => {
            run_doctor(cfg, &mut stdin.lock().lines().map_while(|l| l.ok()), &mut out)
        }
        Command::Trace(cfg) => run_trace(cfg, &mut out),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let _ = out.flush();
}
