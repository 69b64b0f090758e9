//! The coalescer determinism contract: per-request replies are a
//! function of (read, request id) alone. Arrival order, client
//! interleaving, batch assembly, and flush timing must not change a
//! single reply byte, because the executor keys every read's sensing
//! seed off its request id — not off the pipeline's running counter.

use std::net::TcpStream;

use asmcap::{AsmcapPipeline, BackendKind, PipelineConfig, PrefilterConfig};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler};
use asmcap_serve::{
    Admission, Coalescer, CoalescerConfig, MapClient, Pending, Request, Response, Server,
    ServerConfig,
};

const WIDTH: usize = 128;

fn test_genome() -> DnaSeq {
    GenomeModel::uniform().generate(8_192, 7)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        coalescer: CoalescerConfig {
            // Tiny batches + a short flush force many assembly rounds,
            // so interleaving differences actually reshape batches.
            batch_max: 4,
            flush_timeout: std::time::Duration::from_micros(200),
            ..CoalescerConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn spawn_server() -> Server {
    let pipeline = AsmcapPipeline::builder()
        .reference(test_genome())
        .config(PipelineConfig {
            threshold: 6,
            stride: 8,
            row_width: WIDTH,
            prefilter: Some(PrefilterConfig::default()),
            ..PipelineConfig::default()
        })
        .backend(BackendKind::Device)
        .workers(2)
        .build()
        .expect("test pipeline builds");
    Server::spawn(pipeline, server_config()).expect("server spawns")
}

/// A deterministic request set: erroneous reads off the reference plus
/// foreign decoys, with fixed request ids.
fn request_set(genome: &DnaSeq) -> Vec<(u64, Vec<u8>)> {
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    let mut requests: Vec<(u64, Vec<u8>)> = sampler
        .sample_many(genome, 12, 31)
        .into_iter()
        .enumerate()
        .map(|(i, read)| (5_000 + 3 * i as u64, read.bases.to_string().into_bytes()))
        .collect();
    let foreign = GenomeModel::uniform().generate(4 * WIDTH, 777);
    for i in 0..4 {
        requests.push((
            9_000 + i as u64,
            foreign
                .window(i * WIDTH..(i + 1) * WIDTH)
                .to_string()
                .into_bytes(),
        ));
    }
    requests
}

/// Canonical reply bytes for a request set sent through one client in
/// the given order, keyed by request id.
fn replies_in_order(
    addr: std::net::SocketAddr,
    requests: &[(u64, Vec<u8>)],
) -> Vec<(u64, Vec<u8>)> {
    let mut client = MapClient::connect(addr).expect("client connects");
    let mut replies = Vec::with_capacity(requests.len());
    for (req_id, bases) in requests {
        match client.map_one(*req_id, bases).expect("request answered") {
            Response::Map(reply) => {
                assert_eq!(reply.req_id, *req_id);
                replies.push((*req_id, Response::Map(reply).encode()));
            }
            other => panic!("expected a map reply, got {other:?}"),
        }
    }
    replies.sort_by_key(|(id, _)| *id);
    replies
}

/// Timing fields vary run to run; zero them so comparisons pin the
/// mapping payload (status, positions, cycles, searches, energy).
fn strip_timing(encoded: &[u8]) -> Vec<u8> {
    let mut out = encoded.to_vec();
    // Payload layout: opcode(1) req_id(8) status(1) queue_us(4) service_us(4) ...
    for byte in out.iter_mut().skip(10).take(8) {
        *byte = 0;
    }
    out
}

#[test]
fn replies_are_interleaving_independent() {
    let genome = test_genome();
    let requests = request_set(&genome);

    // Order A: one client, arrival order.
    let server_a = spawn_server();
    let addr_a = server_a.local_addr();
    let forward = replies_in_order(addr_a, &requests);
    drop(server_a);

    // Order B: one client, reverse order, against a fresh server whose
    // running counter has advanced differently (we burn some requests
    // first so any counter leakage would show).
    let server_b = spawn_server();
    let addr_b = server_b.local_addr();
    let burn: Vec<(u64, Vec<u8>)> = requests
        .iter()
        .take(3)
        .map(|(id, bases)| (id + 100_000, bases.clone()))
        .collect();
    let _ = replies_in_order(addr_b, &burn);
    let reversed: Vec<(u64, Vec<u8>)> = requests.iter().rev().cloned().collect();
    let backward = replies_in_order(addr_b, &reversed);
    drop(server_b);

    assert_eq!(forward.len(), backward.len());
    for ((id_a, bytes_a), (id_b, bytes_b)) in forward.iter().zip(&backward) {
        assert_eq!(id_a, id_b);
        assert_eq!(
            strip_timing(bytes_a),
            strip_timing(bytes_b),
            "reply for request {id_a} changed with arrival order"
        );
    }
}

#[test]
fn replies_are_client_assignment_independent() {
    let genome = test_genome();
    let requests = request_set(&genome);

    let server_a = spawn_server();
    let forward = replies_in_order(server_a.local_addr(), &requests);
    drop(server_a);

    // Same requests spread across four concurrent clients: different
    // queue assignment, different round-robin batch assembly.
    let server_b = spawn_server();
    let addr = server_b.local_addr();
    let mut handles = Vec::new();
    for chunk in requests.chunks(requests.len().div_ceil(4)) {
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || replies_in_order(addr, &chunk)));
    }
    let mut scattered: Vec<(u64, Vec<u8>)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    scattered.sort_by_key(|(id, _)| *id);
    drop(server_b);

    assert_eq!(forward.len(), scattered.len());
    for ((id_a, bytes_a), (id_b, bytes_b)) in forward.iter().zip(&scattered) {
        assert_eq!(id_a, id_b);
        assert_eq!(
            strip_timing(bytes_a),
            strip_timing(bytes_b),
            "reply for request {id_a} changed with client assignment"
        );
    }
}

#[test]
fn batch_assembly_is_fair_and_order_preserving_per_client() {
    // Unit-level: the round-robin assembler serves one request per
    // client per round (resuming after the last-served client) and never
    // reorders requests within a client.
    let coalescer: Coalescer<u32> = Coalescer::new(CoalescerConfig {
        batch_max: 16,
        ..CoalescerConfig::default()
    });
    let genome = test_genome();
    let read = asmcap_genome::PackedSeq::from_seq(&genome.window(0..WIDTH));
    // Client 1 floods; clients 2 and 3 trickle.
    for (client, req_id) in [
        (1u64, 10u64),
        (1, 11),
        (1, 12),
        (1, 13),
        (2, 20),
        (3, 30),
        (2, 21),
    ] {
        let admission = coalescer.offer(
            Pending {
                client,
                req_id,
                read: read.clone(),
                enqueued: asmcap_serve::perf::now(),
                tag: 0u32,
            },
            || false,
        );
        assert!(matches!(admission, Admission::Enqueued));
    }
    coalescer.close();
    let batch = coalescer.next_drain().expect("one final batch").batch;
    let order: Vec<(u64, u64)> = batch.iter().map(|p| (p.client, p.req_id)).collect();
    // Round-robin rounds: (1,2,3) then (1,2) then 1 then 1.
    assert_eq!(
        order,
        vec![
            (1, 10),
            (2, 20),
            (3, 30),
            (1, 11),
            (2, 21),
            (1, 12),
            (1, 13)
        ]
    );
    assert!(coalescer.next_drain().is_none(), "closed and drained");
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // A client that never reads its replies must not wedge the executor:
    // its connection write half has a short timeout and gets dropped,
    // while other clients keep mapping.
    let server = spawn_server();
    let addr = server.local_addr();

    // The slow reader: sends requests, reads nothing.
    let mut slow = TcpStream::connect(addr).expect("slow client connects");
    {
        use std::io::Write as _;
        let genome = test_genome();
        let bases = genome.window(0..WIDTH).to_string().into_bytes();
        for i in 0..512u64 {
            let frame = Request::Map {
                req_id: 400_000 + i,
                bases: bases.clone(),
            }
            .encode_framed();
            if slow.write_all(&frame).is_err() {
                break; // server dropped us — that's the point
            }
        }
    }

    // A well-behaved client still gets served.
    let genome = test_genome();
    let requests = request_set(&genome);
    let replies = replies_in_order(addr, &requests[..4]);
    assert_eq!(replies.len(), 4);
    drop(slow);
    let counters = server.shutdown();
    assert!(counters.mapped + counters.unmapped >= 4);
}
