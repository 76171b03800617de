//! Server: accept loop, per-connection sessions, engine wiring.
//!
//! [`SmbServer::bind`] borrows a running [`ShardedFlowEngine`] just
//! long enough to clone a producer handle, a [`QueryHandle`], the
//! flight recorder and the telemetry registry, then serves
//! independently — the caller keeps the engine and may keep ingesting
//! locally while the server runs. Each accepted connection gets its
//! own session thread holding a fresh [`EngineProducer`] clone (so
//! networked ingest appears under its own `producer` label) and the
//! shared query handle.
//!
//! Shutdown is cooperative: the accept loop and every session poll an
//! `Arc<AtomicBool>`; a client `SHUTDOWN` frame sets it, which stops
//! accepting and ends each session waiting on its peer at its next
//! poll tick — mid-frame included, and mid-reply to a peer that has
//! stopped reading. [`SmbServer::serve`] joins them all before
//! returning.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smb_devtools::Snapshot;
use smb_engine::{EngineProducer, EngineQuery, QueryHandle, ShardedFlowEngine};
use smb_telemetry::{Counter, FlightRecorder, Gauge, Histogram, Registry};

use crate::frame::{encode_frame, NetError, MAX_FRAME};
use crate::proto::{self, MorphEvent};

/// Poll interval of the accept loop, session socket reads and writes,
/// and the morph-subscription tail. Each tick checks the shutdown flag,
/// so it bounds shutdown latency.
const POLL: Duration = Duration::from_millis(25);

/// What a completed [`SmbServer::serve`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub sessions: u64,
}

/// Net-layer telemetry, registered on the engine's own [`Registry`]
/// so `smbcount metrics` / the exporter see one unified surface.
#[derive(Clone)]
struct NetMetrics {
    sessions_opened: Arc<Counter>,
    sessions_closed: Arc<Counter>,
    active_sessions: Arc<Gauge>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    frame_bytes_in: Arc<Histogram>,
    frame_bytes_out: Arc<Histogram>,
    records: Arc<Counter>,
    errors: Arc<Counter>,
}

impl NetMetrics {
    fn register(registry: &Registry) -> Self {
        NetMetrics {
            sessions_opened: registry.counter(
                "net_sessions_opened_total",
                "Client connections accepted",
            ),
            sessions_closed: registry.counter(
                "net_sessions_closed_total",
                "Client sessions ended (any reason)",
            ),
            active_sessions: registry.gauge(
                "net_active_sessions",
                "Client sessions currently open",
            ),
            frames_in: registry.counter("net_frames_in_total", "Protocol frames received"),
            frames_out: registry.counter("net_frames_out_total", "Protocol frames sent"),
            frame_bytes_in: registry.histogram(
                "net_frame_bytes_in",
                "Received frame sizes (length prefix included), bytes",
            ),
            frame_bytes_out: registry.histogram(
                "net_frame_bytes_out",
                "Sent frame sizes (length prefix included), bytes",
            ),
            records: registry.counter(
                "net_records_total",
                "Records ingested via RECORD_BATCH frames",
            ),
            errors: registry.counter(
                "net_errors_total",
                "ERROR frames sent plus sessions ended by protocol violations",
            ),
        }
    }
}

/// A bound, not-yet-serving protocol server.
///
/// ```no_run
/// use smb_engine::{EngineConfig, ShardedFlowEngine};
/// use smb_factory::{Algo, AlgoSpec};
/// use smb_net::SmbServer;
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(7);
/// let engine = ShardedFlowEngine::new(EngineConfig::new(spec).with_shards(2)).unwrap();
/// let server = SmbServer::bind("127.0.0.1:0", &engine).unwrap();
/// println!("listening on {}", server.local_addr().unwrap());
/// let summary = server.serve().unwrap(); // until a SHUTDOWN frame
/// println!("served {} sessions", summary.sessions);
/// ```
pub struct SmbServer {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    producer: EngineProducer,
    query: QueryHandle,
    flight: Option<Arc<FlightRecorder>>,
    spec_json: String,
    metrics: NetMetrics,
}

impl SmbServer {
    /// Bind `addr` (e.g. `127.0.0.1:4742`, or port `0` for an
    /// ephemeral port) and wire the server to `engine`. The engine is
    /// only borrowed for the call; serving runs against cloned
    /// producer/query handles.
    pub fn bind<A: ToSocketAddrs>(addr: A, engine: &ShardedFlowEngine) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(SmbServer {
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            producer: engine.producer_handle(),
            query: engine.query_handle(),
            flight: engine.flight_recorder().cloned(),
            spec_json: engine.config().spec.to_json().to_string(),
            metrics: NetMetrics::register(engine.registry()),
        })
    }

    /// The bound socket address (resolves port `0` to the real port).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accept and serve sessions until a client sends `SHUTDOWN`, then
    /// join every session thread and report what was served.
    pub fn serve(self) -> Result<ServeSummary, NetError> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accepted = 0u64;
        while !self.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accepted += 1;
                    let session = Session {
                        producer: self.producer.clone(),
                        query: self.query.clone(),
                        flight: self.flight.clone(),
                        spec_json: self.spec_json.clone(),
                        metrics: self.metrics.clone(),
                        shutdown: Arc::clone(&self.shutdown),
                    };
                    sessions.push(std::thread::spawn(move || session.run(stream)));
                }
                Err(e) if is_tick(&e) => std::thread::sleep(POLL),
                Err(e) => return Err(NetError::Io(e)),
            }
            sessions.retain(|handle| !handle.is_finished());
        }
        for handle in sessions {
            let _ = handle.join();
        }
        Ok(ServeSummary { sessions: accepted })
    }
}

/// A non-blocking accept or a timed read or write that ended on a poll
/// tick (or a signal) with nothing lost.
fn is_tick(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// One connection's state: its own producer, the shared query handle,
/// and the session loop.
struct Session {
    producer: EngineProducer,
    query: QueryHandle,
    flight: Option<Arc<FlightRecorder>>,
    spec_json: String,
    metrics: NetMetrics,
    shutdown: Arc<AtomicBool>,
}

/// Why the session loop stopped — only used to decide whether the
/// errors counter ticks.
enum SessionEnd {
    Clean,
    Fault,
}

impl Session {
    fn run(mut self, stream: TcpStream) {
        self.metrics.sessions_opened.inc();
        self.metrics.active_sessions.add(1);
        let end = self.drive(stream).unwrap_or(SessionEnd::Fault);
        if matches!(end, SessionEnd::Fault) {
            self.metrics.errors.inc();
        }
        self.metrics.active_sessions.add(-1);
        self.metrics.sessions_closed.inc();
        // Producer drop delivers this session's partial batches.
    }

    fn drive(&mut self, mut stream: TcpStream) -> Result<SessionEnd, NetError> {
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(POLL))?;

        // Handshake: the first frame must be a HELLO we support.
        let (ty, payload) = match self.poll_frame(&mut stream)? {
            Some(frame) => frame,
            None => return Ok(SessionEnd::Clean), // shutdown while idle
        };
        if ty != proto::MSG_HELLO {
            self.bail(
                &mut stream,
                proto::ERR_UNKNOWN_TYPE,
                &format!("expected HELLO (0x01) first, got 0x{ty:02X}"),
            )?;
            return Ok(SessionEnd::Fault);
        }
        let version = match proto::decode_hello(&payload) {
            Ok(v) => v,
            Err(e) => {
                self.bail(&mut stream, proto::ERR_MALFORMED, &e.to_string())?;
                return Ok(SessionEnd::Fault);
            }
        };
        if version != proto::PROTOCOL_VERSION {
            self.bail(
                &mut stream,
                proto::ERR_UNSUPPORTED_VERSION,
                &format!(
                    "client speaks version {version}, server speaks {}",
                    proto::PROTOCOL_VERSION
                ),
            )?;
            return Ok(SessionEnd::Fault);
        }
        self.send(
            &mut stream,
            proto::MSG_HELLO_ACK,
            &proto::encode_hello_ack(proto::PROTOCOL_VERSION, &self.spec_json),
        )?;

        // Request loop. Protocol violations send ERROR, then close:
        // framing state can't be trusted after a malformed payload.
        loop {
            let (ty, payload) = match self.poll_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(SessionEnd::Clean),
                Err(NetError::Closed) => return Ok(SessionEnd::Clean),
                Err(e) => return Err(e),
            };
            match self.handle(&mut stream, ty, &payload) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Close(end)) => return Ok(end),
                Err(NetError::Protocol(msg)) => {
                    self.bail(&mut stream, proto::ERR_MALFORMED, &msg)?;
                    return Ok(SessionEnd::Fault);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn handle(
        &mut self,
        stream: &mut TcpStream,
        ty: u8,
        payload: &[u8],
    ) -> Result<Flow, NetError> {
        match ty {
            proto::MSG_PING => {
                let token = proto::decode_ping(payload)?;
                self.send(stream, proto::MSG_PONG, &token)?;
            }
            proto::MSG_RECORD_BATCH => {
                let records = proto::decode_record_batch(payload)?;
                let count = records.len() as u64;
                for (flow, item) in &records {
                    self.producer.ingest(*flow, item);
                }
                self.metrics.records.add(count);
                self.send(stream, proto::MSG_RECORD_ACK, &proto::encode_u64(count))?;
            }
            proto::MSG_QUERY => {
                let flow = proto::decode_u64(payload, "QUERY")?;
                self.producer.barrier();
                let report = self.query.run(&EngineQuery::new().with_estimate(flow));
                self.send(
                    stream,
                    proto::MSG_QUERY_RESULT,
                    &proto::encode_query_result(report.estimate),
                )?;
            }
            proto::MSG_TOP_K => {
                let k = proto::decode_u64(payload, "TOP_K")?;
                let k = usize::try_from(k)
                    .map_err(|_| NetError::Protocol(format!("TOP_K k={k} out of range")))?;
                self.producer.barrier();
                let report = self.query.run(&EngineQuery::new().with_top_k(k));
                let entries = report.top_k.unwrap_or_default();
                self.send(
                    stream,
                    proto::MSG_TOP_K_RESULT,
                    &proto::encode_top_k_result(&entries),
                )?;
            }
            proto::MSG_SNAPSHOT => {
                if !payload.is_empty() {
                    return Err(NetError::Protocol(
                        "SNAPSHOT carries no payload".into(),
                    ));
                }
                self.producer.barrier();
                match self.snapshot_block() {
                    Ok(block) if block.len() + 1 > MAX_FRAME as usize => {
                        self.bail(
                            stream,
                            proto::ERR_TOO_LARGE,
                            &format!(
                                "snapshot of {} bytes exceeds the {}-byte frame limit",
                                block.len(),
                                MAX_FRAME
                            ),
                        )?;
                        return Ok(Flow::Close(SessionEnd::Fault));
                    }
                    Ok(block) => self.send(stream, proto::MSG_SNAPSHOT_RESULT, &block)?,
                    Err(msg) => {
                        self.bail(stream, proto::ERR_INTERNAL, &msg)?;
                        return Ok(Flow::Close(SessionEnd::Fault));
                    }
                }
            }
            proto::MSG_SUBSCRIBE_MORPHS => {
                let max_events = proto::decode_u64(payload, "SUBSCRIBE_MORPHS")?;
                return self.stream_morphs(stream, max_events);
            }
            proto::MSG_SHUTDOWN => {
                if !payload.is_empty() {
                    return Err(NetError::Protocol(
                        "SHUTDOWN carries no payload".into(),
                    ));
                }
                self.shutdown.store(true, Ordering::Release);
                self.send(stream, proto::MSG_SHUTDOWN_ACK, &[])?;
                return Ok(Flow::Close(SessionEnd::Clean));
            }
            proto::MSG_ERROR => {
                // The client reported a terminal error; nothing to
                // answer, just stop.
                self.metrics.errors.inc();
                return Ok(Flow::Close(SessionEnd::Fault));
            }
            other => {
                self.bail(
                    stream,
                    proto::ERR_UNKNOWN_TYPE,
                    &format!("unknown message type 0x{other:02X}"),
                )?;
                return Ok(Flow::Close(SessionEnd::Fault));
            }
        }
        Ok(Flow::Continue)
    }

    /// Flush + barrier already ran; encode every cell into the flow
    /// block (`PROTOCOL.md` §5).
    fn snapshot_block(&self) -> Result<Vec<u8>, String> {
        self.query.snapshot_block().map_err(|e| e.to_string())
    }

    /// Tail the flight recorder: replay what is buffered, then poll
    /// for fresh events until `max_events` are delivered or the
    /// server shuts down. Bursty windows can evict events between
    /// polls — the stream is documented lossy, never blocking.
    fn stream_morphs(&mut self, stream: &mut TcpStream, max_events: u64) -> Result<Flow, NetError> {
        let flight = match &self.flight {
            Some(flight) => Arc::clone(flight),
            None => {
                self.bail(
                    stream,
                    proto::ERR_UNAVAILABLE,
                    "this engine runs without a flight recorder",
                )?;
                return Ok(Flow::Close(SessionEnd::Fault));
            }
        };
        let mut delivered = 0u64;
        let mut seen = 0u64; // recorder events accounted for so far
        while delivered < max_events && !self.shutdown.load(Ordering::Acquire) {
            let total = flight.recorded_total();
            if total == seen {
                std::thread::sleep(POLL);
                continue;
            }
            let fresh = (total - seen).min(flight.capacity() as u64) as usize;
            for ev in flight.recent(fresh) {
                if delivered == max_events {
                    break;
                }
                let wire = to_wire_event(&ev);
                self.send(stream, proto::MSG_MORPH_EVENT, &proto::encode_morph_event(&wire))?;
                delivered += 1;
            }
            seen = total;
        }
        self.send(stream, proto::MSG_MORPH_END, &proto::encode_u64(delivered))?;
        Ok(Flow::Continue)
    }

    /// Send an `ERROR` frame and count it. The caller closes the
    /// session afterwards; `ERROR` is always terminal.
    fn bail(&mut self, stream: &mut TcpStream, code: u8, message: &str) -> Result<(), NetError> {
        self.metrics.errors.inc();
        self.send(stream, proto::MSG_ERROR, &proto::encode_error(code, message))
    }

    fn send(&self, stream: &mut TcpStream, ty: u8, payload: &[u8]) -> Result<(), NetError> {
        self.write_full(stream, &encode_frame(ty, payload)?)?;
        self.metrics.frames_out.inc();
        self.metrics.frame_bytes_out.record(payload.len() as u64 + 5);
        Ok(())
    }

    /// Read one frame, treating read-timeout ticks *between* frames as
    /// polls of the shutdown flag (`Ok(None)` = shut down while idle).
    /// Once a frame has started, ticks keep the partial bytes and
    /// retry, so slow writers are never mis-framed; a shutdown during
    /// a partial frame ends the session as a fault.
    fn poll_frame(&self, stream: &mut TcpStream) -> Result<Option<(u8, Vec<u8>)>, NetError> {
        let mut first = [0u8; 1];
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(None);
            }
            match stream.read(&mut first) {
                Ok(0) => return Err(NetError::Closed),
                Ok(_) => break,
                Err(e) if is_tick(&e) => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        let mut header = [0u8; 4];
        header[0] = first[0];
        self.read_full(stream, &mut header[1..], "frame header")?;
        let len = u32::from_le_bytes(header);
        if len == 0 {
            return Err(NetError::Protocol("frame length 0 (missing type byte)".into()));
        }
        if len > MAX_FRAME {
            return Err(NetError::Protocol(format!(
                "frame length {len} exceeds limit {MAX_FRAME}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.read_full(stream, &mut body, "frame body")?;
        self.metrics.frames_in.inc();
        self.metrics.frame_bytes_in.record(u64::from(len) + 4);
        let payload = body.split_off(1);
        Ok(Some((body[0], payload)))
    }

    /// Retry-on-tick `read_exact` that never loses partial progress.
    /// Each tick checks the shutdown flag, so a peer that stalls
    /// mid-frame cannot hold [`SmbServer::serve`] open.
    fn read_full(
        &self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        what: &str,
    ) -> Result<(), NetError> {
        let mut filled = 0;
        while filled < buf.len() {
            match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(NetError::Protocol(format!(
                        "connection closed mid-frame while reading {what}"
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if is_tick(&e) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(NetError::Protocol(format!(
                            "server shut down mid-frame while reading {what}"
                        )));
                    }
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }

    /// Retry-on-tick `write_all` that never loses partial progress.
    /// Each tick checks the shutdown flag, so a peer that stops reading
    /// its replies cannot hold [`SmbServer::serve`] open. The shutdown
    /// error is an I/O error, not a protocol one, so the session ends
    /// as a fault without trying to send that peer an `ERROR` frame.
    fn write_full(&self, stream: &mut TcpStream, buf: &[u8]) -> Result<(), NetError> {
        let mut sent = 0;
        while sent < buf.len() {
            match stream.write(&buf[sent..]) {
                Ok(0) => return Err(NetError::Io(std::io::ErrorKind::WriteZero.into())),
                Ok(n) => sent += n,
                Err(e) if is_tick(&e) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(NetError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "server shut down while the peer was not reading a reply",
                        )));
                    }
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }
}

/// Per-request control flow for [`Session::handle`].
enum Flow {
    Continue,
    Close(SessionEnd),
}

fn to_wire_event(ev: &smb_telemetry::FlightEvent) -> MorphEvent {
    use smb_telemetry::FlightEventKind;
    MorphEvent {
        kind: match ev.kind {
            FlightEventKind::Morph => 0,
            FlightEventKind::Cleared => 1,
            FlightEventKind::Saturated => 2,
            FlightEventKind::Checkpoint => 3,
            FlightEventKind::DropBurst => 4,
        },
        round: ev.round,
        fresh_bits: ev.fresh_bits,
        logical_size: ev.logical_size,
        items: ev.items,
        estimate: ev.estimate,
        at_ns: ev.at_ns,
    }
}
