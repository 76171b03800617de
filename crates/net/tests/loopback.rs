//! Loopback integration tests: a real `SmbServer` on an ephemeral
//! port, driven by real `SmbClient`s over TCP.
//!
//! The headline property is *bit-identity*: N concurrent clients
//! feeding disjoint flows must leave the engine in exactly the state a
//! single-process ingest of the same records produces — same
//! estimates, same top-k order, same compressed snapshot. Per-flow
//! estimator state depends only on that flow's arrival order, which
//! each client preserves, so cross-client interleaving must not leak
//! into results.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use smb_engine::{EngineConfig, EngineQuery, ShardedFlowEngine};
use smb_factory::{Algo, AlgoSpec};
use smb_net::proto::{
    ERR_MALFORMED, ERR_UNKNOWN_TYPE, ERR_UNSUPPORTED_VERSION, MSG_ERROR, MSG_HELLO, MSG_HELLO_ACK,
    MSG_PING, MSG_PONG, MSG_QUERY,
};
use smb_net::{read_frame, write_frame, NetError, SmbClient, SmbServer, PROTOCOL_VERSION};

fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(7)
}

fn engine() -> ShardedFlowEngine {
    ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(2).with_batch(64)).unwrap()
}

/// Start a server on an ephemeral port; returns the address and the
/// thread that resolves to the serve summary once a client sends
/// SHUTDOWN.
fn spawn_server(engine: &ShardedFlowEngine) -> (String, thread::JoinHandle<u64>) {
    let server = SmbServer::bind("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || server.serve().unwrap().sessions);
    (addr, handle)
}

/// Join the server thread, failing the test if `serve` has not
/// returned within `limit` (a hung server thread is left behind).
fn join_within(server: thread::JoinHandle<u64>, limit: Duration) -> u64 {
    let deadline = Instant::now() + limit;
    while !server.is_finished() {
        assert!(
            Instant::now() < deadline,
            "serve still running {limit:?} after SHUTDOWN_ACK"
        );
        thread::sleep(Duration::from_millis(5));
    }
    server.join().unwrap()
}

/// The shared workload: 8 flows, sizes staggered so top-k order is
/// unambiguous; items per flow are generated in a fixed order.
fn workload() -> Vec<(u64, Vec<String>)> {
    (0u64..8)
        .map(|f| {
            let key = 0xF100 + f;
            let items = (0..(200 + f * 131)).map(|i| format!("{f}:{i}")).collect();
            (key, items)
        })
        .collect()
}

fn send_all(client: &mut SmbClient, flows: &[(u64, Vec<String>)]) {
    let mut pending: Vec<(u64, &[u8])> = Vec::new();
    for (key, items) in flows {
        for item in items {
            pending.push((*key, item.as_bytes()));
            if pending.len() == 97 {
                assert_eq!(client.record_batch(&pending).unwrap(), 97);
                pending.clear();
            }
        }
    }
    if !pending.is_empty() {
        let n = pending.len() as u64;
        assert_eq!(client.record_batch(&pending).unwrap(), n);
    }
}

#[test]
fn concurrent_clients_match_single_process_exactly() {
    let flows = workload();

    // Reference: single-process ingest of the identical records.
    let mut reference = engine();
    for (key, items) in &flows {
        for item in items {
            reference.ingest(*key, item.as_bytes());
        }
    }
    reference.flush();
    let ref_report = reference.run_query(
        &EngineQuery::new().with_top_k(8).with_flow_count(),
    );
    let ref_snapshot = reference.query_handle().snapshot_cells().unwrap();

    // Networked: 4 clients, each owning a disjoint quarter of the flows.
    let served = engine();
    let (addr, server) = spawn_server(&served);
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let mine: Vec<(u64, Vec<String>)> = flows
                .iter()
                .filter(|(key, _)| (key % 4) == t)
                .cloned()
                .collect();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = SmbClient::connect(addr.as_str()).unwrap();
                client.ping().unwrap();
                send_all(&mut client, &mine);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Verify through a fifth client. The server runs a barrier before
    // every query, so each client's acked records are visible.
    let mut client = SmbClient::connect(addr.as_str()).unwrap();
    assert!(client.server_spec().contains("\"algo\""), "HELLO_ACK must carry the spec");

    for (key, _) in &flows {
        let net_est = client.query(*key).unwrap();
        let ref_est = reference
            .run_query(&EngineQuery::new().with_estimate(*key))
            .estimate;
        assert!(net_est.is_some(), "flow {key:#x} unseen over the wire");
        assert_eq!(net_est, ref_est, "estimate drifted for flow {key:#x}");
    }
    assert_eq!(client.query(0xDEAD_BEEF).unwrap(), None);

    let net_top = client.top_k(8).unwrap();
    assert_eq!(Some(net_top), ref_report.top_k, "top-k order drifted");

    let net_snapshot = client.snapshot().unwrap();
    assert_eq!(
        net_snapshot, ref_snapshot,
        "compressed snapshot is not bit-identical to the single-process state"
    );
    assert_eq!(net_snapshot.len(), ref_report.flow_count.unwrap());

    client.shutdown_server().unwrap();
    let sessions = server.join().unwrap();
    assert_eq!(sessions, 5, "4 ingest clients + 1 verifier");
}

#[test]
fn rejects_version_mismatch() {
    let served = engine();
    let (addr, server) = spawn_server(&served);

    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    write_frame(&mut stream, MSG_HELLO, &(PROTOCOL_VERSION + 1).to_le_bytes()).unwrap();
    let (ty, payload) = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!(ty, MSG_ERROR);
    assert_eq!(payload[0], ERR_UNSUPPORTED_VERSION);
    // ERROR is terminal: the server closes the session.
    assert!(matches!(
        read_frame(&mut stream, 1 << 20),
        Err(NetError::Closed)
    ));

    SmbClient::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    server.join().unwrap();
}

#[test]
fn hostile_frames_get_error_and_close() {
    let served = engine();
    let (addr, server) = spawn_server(&served);
    let handshake = || {
        let mut stream = TcpStream::connect(addr.as_str()).unwrap();
        write_frame(&mut stream, MSG_HELLO, &PROTOCOL_VERSION.to_le_bytes()).unwrap();
        let (ty, _) = read_frame(&mut stream, 1 << 20).unwrap();
        assert_eq!(ty, MSG_HELLO_ACK);
        stream
    };

    // A frame type outside the registry.
    let mut stream = handshake();
    write_frame(&mut stream, 0x66, &[]).unwrap();
    let (ty, payload) = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!((ty, payload[0]), (MSG_ERROR, ERR_UNKNOWN_TYPE));
    assert!(matches!(read_frame(&mut stream, 1 << 20), Err(NetError::Closed)));

    // A known type with a malformed payload (QUERY with no flow key).
    let mut stream = handshake();
    write_frame(&mut stream, MSG_QUERY, &[]).unwrap();
    let (ty, payload) = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!((ty, payload[0]), (MSG_ERROR, ERR_MALFORMED));
    assert!(matches!(read_frame(&mut stream, 1 << 20), Err(NetError::Closed)));

    // Skipping the handshake entirely: first frame must be HELLO.
    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    write_frame(&mut stream, MSG_PING, &[0u8; 8]).unwrap();
    let (ty, payload) = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!((ty, payload[0]), (MSG_ERROR, ERR_UNKNOWN_TYPE));

    SmbClient::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    server.join().unwrap();
}

#[test]
fn subscribe_morphs_replays_recorded_events() {
    // A heavy flow against a small bitmap: 30k distinct items through
    // 2048 bits morphs several times (measured ~6 for this geometry),
    // so asking for 2 events is satisfied purely from the flight
    // recorder's replay — no live-tail wait, no hang.
    let served = ShardedFlowEngine::new(
        EngineConfig::new(AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e6).seed(7))
            .with_shards(1)
            .with_batch(256),
    )
    .unwrap();
    let (addr, server) = spawn_server(&served);

    let mut client = SmbClient::connect(addr.as_str()).unwrap();
    let items: Vec<String> = (0..30_000).map(|i| format!("pkt-{i}")).collect();
    send_all(&mut client, &[(42, items)]);
    // Barrier: any query makes the acked records (and their morph
    // events) visible before we subscribe.
    assert!(client.query(42).unwrap().is_some());

    let mut kinds = Vec::new();
    let delivered = client
        .subscribe_morphs(2, |event| kinds.push(event.kind_str().to_string()))
        .unwrap();
    assert_eq!(delivered, 2);
    assert_eq!(kinds, vec!["morph".to_string(); 2]);

    client.shutdown_server().unwrap();
    server.join().unwrap();
}

#[test]
fn snapshot_records_one_encode_sample_per_request() {
    let served = engine();
    let (addr, server) = spawn_server(&served);
    let encode_samples = || {
        served
            .metrics_snapshot()
            .get(
                "engine_stage_duration_ns",
                &[("shard", "all"), ("stage", "snapshot_encode")],
            )
            .expect("snapshot_encode is registered up front")
            .as_histogram()
            .expect("a histogram")
            .count
    };
    assert_eq!(encode_samples(), 0);

    let mut client = SmbClient::connect(addr.as_str()).unwrap();
    send_all(&mut client, &workload());
    let cells = client.snapshot().unwrap();
    assert_eq!(cells.len(), workload().len());
    assert_eq!(
        encode_samples(),
        1,
        "one SNAPSHOT, one snapshot_encode sample"
    );

    client.shutdown_server().unwrap();
    server.join().unwrap();
}

#[test]
fn peer_stalled_mid_frame_does_not_block_shutdown() {
    let served = engine();
    let (addr, server) = spawn_server(&served);

    // Handshake, then a PING followed in the same write by two of the
    // next length prefix's four bytes, and stall with the connection
    // open. The PONG shows the session has the partial prefix queued
    // behind the PING, so it is stalled inside a frame, not idle.
    let mut stalled = TcpStream::connect(addr.as_str()).unwrap();
    write_frame(&mut stalled, MSG_HELLO, &PROTOCOL_VERSION.to_le_bytes()).unwrap();
    let (ty, _) = read_frame(&mut stalled, 1 << 20).unwrap();
    assert_eq!(ty, MSG_HELLO_ACK);
    let mut bytes = Vec::new();
    write_frame(&mut bytes, MSG_PING, &[0u8; 8]).unwrap();
    bytes.extend_from_slice(&[9, 0]);
    stalled.write_all(&bytes).unwrap();
    let (ty, _) = read_frame(&mut stalled, 1 << 20).unwrap();
    assert_eq!(ty, MSG_PONG);

    SmbClient::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    assert_eq!(join_within(server, Duration::from_secs(3)), 2);
    let errors = served
        .metrics_snapshot()
        .get("net_errors_total", &[])
        .and_then(|m| m.as_counter());
    assert_eq!(errors, Some(1), "the stalled session ends as a fault");
    drop(stalled);
}
