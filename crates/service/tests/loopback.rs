//! Loopback integration tests: a real server on 127.0.0.1, real TCP
//! clients, and the acceptance criteria of the service layer:
//!
//! 1. responses are **bit-identical** to direct `BatchRunner`-backed runs of
//!    the same instances (cover, certificate, trace);
//! 2. every VC response carries a certificate verifying ≤ 2·OPT (checked
//!    against the exact solver on small instances);
//! 3. a repeated identical request hits the LRU cache (counters observed);
//! 4. a full queue answers the backpressure error instead of hanging.

use anonet_bigmath::BigRat;
use anonet_core::canon;
use anonet_core::sc_bcast::{run_fractional_packing_many_with, ScInstance};
use anonet_core::vc_bcast::run_vc_broadcast_many;
use anonet_core::vc_pn::{run_edge_packing_many, VcInstance};
use anonet_exact::min_weight_vertex_cover;
use anonet_gen::{family, setcover, WeightSpec};
use anonet_service::{
    client, wire, Client, InstanceResult, Scenario, Server, ServiceConfig, SolveRequest,
    SolveResponse, Solved, SolverId,
};
use std::time::Duration;

fn start(cfg: ServiceConfig) -> Server {
    Server::start("127.0.0.1:0", cfg).expect("bind loopback")
}

fn solved(resp: &SolveResponse) -> Vec<&Solved> {
    match resp {
        SolveResponse::Ok(results) => results
            .iter()
            .map(|r| match r {
                InstanceResult::Solved(s) => s,
                InstanceResult::Error(e) => panic!("instance error: {e}"),
            })
            .collect(),
        other => panic!("expected Ok, got {other:?}"),
    }
}

#[test]
fn vc_pn_bit_identical_certified_and_cached() {
    let server = start(ServiceConfig { workers: 2, threads_per_job: 2, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();

    // A small batch of §3 instances across families and weight regimes.
    let cases: Vec<(anonet_sim::Graph, Vec<u64>)> = vec![
        (family::petersen(), WeightSpec::Uniform(9).draw_many(10, 3)),
        (family::grid(4, 3), WeightSpec::LogUniform(1 << 10).draw_many(12, 5)),
        (family::random_regular(24, 4, 7), WeightSpec::Uniform(50).draw_many(24, 7)),
        (family::star(5), vec![7, 1, 1, 1, 1, 1]),
    ];
    let instances: Vec<VcInstance<'_>> = cases.iter().map(|(g, w)| VcInstance::new(g, w)).collect();
    let req = client::vc_request(SolverId::VC_PN, &instances);
    let resp = c.solve(&req).unwrap();
    let got = solved(&resp);
    assert_eq!(got.len(), cases.len());

    // Bit-identical to the direct batch run (same BatchRunner pool width).
    let direct = run_edge_packing_many::<BigRat>(&instances, 2);
    for (i, (s, run)) in got.iter().zip(&direct).enumerate() {
        let run = run.as_ref().unwrap();
        assert!(!s.from_cache, "first request must compute (instance {i})");
        assert_eq!(s.cover, run.cover, "instance {i} cover");
        assert_eq!(s.certificate.dual_value, run.packing.dual_value(), "instance {i} dual");
        assert_eq!(s.certificate.factor, 2);
        assert!(!s.trace.is_async);
        assert_eq!(s.trace.rounds, run.trace.rounds, "instance {i} rounds");
        assert_eq!(s.trace.messages, run.trace.messages, "instance {i} messages");
        assert_eq!(s.trace.bits, run.trace.total_bits, "instance {i} bits");
        assert_eq!(s.trace.max_message_bits, run.trace.max_message_bits, "instance {i} max bits");
        // The certificate's arithmetic content checks out at the edge …
        assert!(canon::certificate_bound_holds(&s.certificate), "instance {i}");
        // … and really is ≤ 2·OPT against the exact solver.
        let (g, w) = &cases[i];
        let opt = min_weight_vertex_cover(g, w).weight;
        assert!(
            s.certificate.cover_weight <= 2 * opt,
            "instance {i}: {} > 2·OPT = {}",
            s.certificate.cover_weight,
            2 * opt
        );
    }

    // Repeating the identical request is served from the cache, and the
    // counters move.
    let before = c.stats().unwrap();
    assert!(before.cache_misses >= cases.len() as u64);
    let resp2 = c.solve(&req).unwrap();
    let got2 = solved(&resp2);
    for (i, (s2, s1)) in got2.iter().zip(&got).enumerate() {
        assert!(s2.from_cache, "second request must hit the cache (instance {i})");
        assert_eq!(s2.cover, s1.cover, "cached cover identical (instance {i})");
        assert_eq!(s2.certificate.dual_value, s1.certificate.dual_value);
        assert_eq!(s2.trace, s1.trace);
    }
    let after = c.stats().unwrap();
    assert_eq!(
        after.cache_hits,
        before.cache_hits + cases.len() as u64,
        "cache-hit counter observed"
    );
    assert_eq!(after.cache_misses, before.cache_misses, "no new misses");

    // A no-cache request recomputes without touching the counters.
    let resp3 = c.solve(&req.clone().no_cache()).unwrap();
    for s in solved(&resp3) {
        assert!(!s.from_cache);
    }
    let after2 = c.stats().unwrap();
    assert_eq!(after2.cache_hits, after.cache_hits);
    assert_eq!(after2.cache_misses, after.cache_misses);

    // The per-kind counter accounts every solve request, the cache hit
    // included (the probe runs inside the solve phase), and every phase
    // histogram recorded all six requests: three solves, three stats.
    let snap = c.metrics().unwrap();
    assert_eq!(snap.scalar("solve.kind.vc_pn"), Some(3), "miss, hit and no-cache solves");
    for phase in PHASES {
        let h = snap.histo(phase).unwrap_or_else(|| panic!("{phase} missing from the frame"));
        assert_eq!(h.count, 6, "{phase} histogram must have recorded every request");
    }

    server.shutdown();
}

#[test]
fn vc_bcast_and_set_cover_loopback() {
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();

    // §5 broadcast vertex cover.
    let g = family::cycle(9);
    let w = WeightSpec::Uniform(6).draw_many(9, 11);
    let instances = [VcInstance::new(&g, &w)];
    let resp = c.solve(&client::vc_request(SolverId::VC_BCAST, &instances)).unwrap();
    let got = solved(&resp);
    let direct = run_vc_broadcast_many::<BigRat>(&instances, 1);
    let run = direct[0].as_ref().unwrap();
    assert_eq!(got[0].cover, run.cover);
    assert_eq!(got[0].certificate.dual_value, run.dual_value);
    assert_eq!(got[0].trace.rounds, run.trace.rounds);
    assert!(canon::certificate_bound_holds(&got[0].certificate));
    let opt = min_weight_vertex_cover(&g, &w).weight;
    assert!(got[0].certificate.cover_weight <= 2 * opt);

    // §4 set cover: the response cover matches the direct run and the
    // f-approximation certificate verifies.
    let inst = setcover::random_bounded(14, 10, 2, 3, WeightSpec::Uniform(8), 21);
    let resp = c.solve(&client::sc_request(&[&inst])).unwrap();
    let got = solved(&resp);
    let refs = [ScInstance::new(&inst)];
    let direct = run_fractional_packing_many_with::<BigRat>(&refs, 1);
    let run = direct[0].as_ref().unwrap();
    assert_eq!(got[0].cover, run.cover);
    assert_eq!(got[0].certificate.dual_value, run.packing.dual_value());
    assert_eq!(got[0].certificate.factor, inst.f() as u64);
    assert!(canon::certificate_bound_holds(&got[0].certificate));

    server.shutdown();
}

#[test]
fn async_scenarios_match_sync_assignment() {
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();

    let g = family::random_regular(16, 3, 13);
    let w = WeightSpec::Uniform(12).draw_many(16, 13);
    let instances = [VcInstance::new(&g, &w)];
    let sync = c.solve(&client::vc_request(SolverId::VC_PN, &instances)).unwrap();
    let sync = solved(&sync)[0].clone();

    for scenario in [Scenario::Ideal, Scenario::LossyRadio] {
        let req = client::vc_request(SolverId::VC_PN, &instances).with_scenario(scenario, 42);
        let resp = c.solve(&req).unwrap();
        let s = solved(&resp)[0].clone();
        // The synchronizer guarantee: same assignment and certificate as the
        // synchronous engine, under any network.
        assert_eq!(s.cover, sync.cover, "{scenario:?}");
        assert_eq!(s.certificate.dual_value, sync.certificate.dual_value, "{scenario:?}");
        assert!(s.trace.is_async);
        assert!(s.trace.events > 0);
        assert!(canon::certificate_bound_holds(&s.certificate));
        // Same scenario+seed again: cache hit (the async trace is cached too).
        let again = c.solve(&req).unwrap();
        assert!(solved(&again)[0].from_cache, "{scenario:?}");
    }

    // Async broadcast problems are rejected with a structured error.
    let req = client::vc_request(SolverId::VC_BCAST, &instances).with_scenario(Scenario::Ideal, 1);
    assert!(matches!(c.solve(&req).unwrap(), SolveResponse::Unsupported(_)));

    server.shutdown();
}

#[test]
fn threads_per_job_auto_matches_explicit() {
    // `threads_per_job: 0` (auto — whatever parallelism the box offers,
    // served by the persistent per-worker round pool) must answer
    // byte-for-byte like an explicit width: the pool is a throughput knob,
    // never a semantics knob.
    let g1 = family::random_regular(16, 4, 11);
    let w1 = WeightSpec::Uniform(31).draw_many(16, 11);
    let g2 = family::star(9);
    let w2 = WeightSpec::LogUniform(1 << 8).draw_many(10, 13);
    let instances = [VcInstance::new(&g1, &w1), VcInstance::new(&g2, &w2)];
    let req = client::vc_request(SolverId::VC_PN, &instances);
    let mut answers: Vec<Vec<Solved>> = Vec::new();
    for threads_per_job in [0usize, 1, 2] {
        let server =
            start(ServiceConfig { workers: 1, threads_per_job, ..ServiceConfig::default() });
        let mut c = Client::connect(server.local_addr()).unwrap();
        let resp = c.solve(&req).unwrap();
        answers.push(solved(&resp).into_iter().cloned().collect());
        server.shutdown();
    }
    for (i, other) in answers[1..].iter().enumerate() {
        for (j, (a, b)) in answers[0].iter().zip(other).enumerate() {
            assert_eq!(a.cover, b.cover, "config {i} instance {j}");
            assert_eq!(a.certificate.dual_value, b.certificate.dual_value, "cfg {i} inst {j}");
            assert_eq!(a.trace, b.trace, "config {i} instance {j}");
        }
    }
}

#[test]
fn async_batches_fan_out_across_the_job_pool() {
    // threads_per_job = 2: the async arm fans instances across the
    // persistent per-worker pool; outputs must stay bit-identical to the
    // sync assignment and in request order.
    let server = start(ServiceConfig { threads_per_job: 2, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g1 = family::random_regular(12, 3, 5);
    let w1 = WeightSpec::Uniform(9).draw_many(12, 5);
    let g2 = family::cycle(7);
    let w2 = vec![3u64; 7];
    let instances = [VcInstance::new(&g1, &w1), VcInstance::new(&g2, &w2)];
    let sync = c.solve(&client::vc_request(SolverId::VC_PN, &instances)).unwrap();
    let sync: Vec<Solved> = solved(&sync).into_iter().cloned().collect();
    let req = client::vc_request(SolverId::VC_PN, &instances).with_scenario(Scenario::Ideal, 9);
    let resp = c.solve(&req).unwrap();
    for (i, (s, sy)) in solved(&resp).iter().zip(&sync).enumerate() {
        assert_eq!(s.cover, sy.cover, "instance {i}");
        assert_eq!(s.certificate.dual_value, sy.certificate.dual_value, "instance {i}");
        assert!(s.trace.is_async, "instance {i}");
    }
    server.shutdown();
}

#[test]
fn partial_hits_serve_the_cached_instance_and_compute_the_rest() {
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let cached = family::petersen();
    let fresh = family::grid(3, 3);
    let cached_blob = canon::encode_vc(&cached, &[3u64; 10], 3, 3);
    let fresh_blob = canon::encode_vc(&fresh, &[2u64; 9], 4, 2);
    c.solve(&SolveRequest::new(SolverId::VC_PN, vec![cached_blob.clone()])).unwrap();

    let before = c.stats().unwrap();
    let req = SolveRequest::new(SolverId::VC_PN, vec![cached_blob, fresh_blob]);
    let resp = c.solve(&req).unwrap();
    let got = solved(&resp);
    assert_eq!(got.iter().map(|s| s.from_cache).collect::<Vec<_>>(), [true, false]);
    let direct = run_edge_packing_many::<BigRat>(&[VcInstance::new(&fresh, &[2u64; 9])], 1);
    assert_eq!(got[1].cover, direct[0].as_ref().unwrap().cover);
    let after = c.stats().unwrap();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses + 1);
    assert_eq!(after.served_ok, before.served_ok + 1);
    server.shutdown();
}

#[test]
fn full_queue_returns_backpressure_error() {
    // workers = 0: nothing drains, so the queue fills deterministically.
    let server =
        start(ServiceConfig { workers: 0, queue_cap: 2, retry_after_ms: 7, ..Default::default() });

    let g = family::cycle(4);
    let w = vec![1u64; 4];
    let blob = canon::encode_vc(&g, &w, 2, 1);
    let req = SolveRequest::new(SolverId::VC_PN, vec![blob]);

    // Fill the queue from connections that never read their responses.
    let mut parked: Vec<std::net::TcpStream> = Vec::new();
    for _ in 0..2 {
        let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(&mut s, &wire::encode_solve_request(&req)).unwrap();
        parked.push(s);
    }
    // Give the connection threads a moment to enqueue.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut c = Client::connect(server.local_addr()).unwrap();
    loop {
        let queued = c.stats().unwrap().queue_len;
        if queued == 2 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "queue never filled (len {queued})");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The next request is rejected immediately — not queued, not hung.
    let resp = c.solve(&req).unwrap();
    match resp {
        SolveResponse::Busy { retry_after_ms, queue_len } => {
            assert_eq!(retry_after_ms, 7);
            assert_eq!(queue_len, 2);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.queue_len, 2);

    server.shutdown();
}

#[test]
fn malformed_and_per_instance_errors_are_structured() {
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();

    // A garbage frame gets a Malformed response and the connection survives.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    wire::write_frame(&mut s, b"ANSVxxxxxx").unwrap();
    let reply = wire::read_frame(&mut s).unwrap().unwrap();
    let mut r = canon::ByteReader::new(&reply);
    wire::read_header(&mut r).unwrap();
    assert!(matches!(wire::decode_solve_response(&mut r).unwrap(), SolveResponse::Malformed(_)));

    // A batch mixing a valid and an invalid blob reports per-instance.
    let g = family::petersen();
    let w = vec![2u64; 10];
    let good = canon::encode_vc(&g, &w, 3, 2);
    let bad = vec![0xFFu8; 3];
    let resp = c.solve(&SolveRequest::new(SolverId::VC_PN, vec![good, bad])).unwrap();
    match resp {
        SolveResponse::Ok(results) => {
            assert!(matches!(results[0], InstanceResult::Solved(_)));
            assert!(matches!(results[1], InstanceResult::Error(_)));
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    assert_eq!(c.stats().unwrap().exec_errors, 1);
    assert_eq!(c.stats().unwrap().malformed, 1);

    // A hostile set-cover blob declaring f = 0 (which would panic the §4
    // config) is rejected per-instance, and the worker survives to serve
    // the next request.
    let inst = setcover::random_bounded(6, 4, 2, 3, WeightSpec::Unit, 2);
    let hostile = canon::encode_sc(&inst, 0, 3, 1);
    let resp = c.solve(&SolveRequest::new(SolverId::SET_COVER, vec![hostile])).unwrap();
    match resp {
        SolveResponse::Ok(results) => assert!(matches!(results[0], InstanceResult::Error(_))),
        other => panic!("expected Ok with per-instance error, got {other:?}"),
    }
    let resp = c.solve(&client::sc_request(&[&inst])).unwrap();
    assert!(matches!(&solved(&resp)[0], s if !s.cover.is_empty()), "worker still alive");

    server.shutdown();
}

// The injection flag is honoured in debug builds only, so this test is
// meaningless (and would fail) under `cargo test --release`.
#[cfg(debug_assertions)]
#[test]
fn worker_pool_survives_panicking_jobs() {
    // A single worker: if the panic killed it, nothing would drain the queue
    // and the follow-up request would hang instead of being answered.
    let server = start(ServiceConfig { workers: 1, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::cycle(4);
    let w = vec![1u64; 4];
    let blob = canon::encode_vc(&g, &w, 2, 1);
    let mut req = SolveRequest::new(SolverId::VC_PN, vec![blob.clone(), blob.clone()]);
    req.flags |= wire::FLAG_TEST_PANIC; // deliberate mid-execute panic
    match c.solve(&req).unwrap() {
        SolveResponse::Ok(results) => {
            assert_eq!(results.len(), 2);
            for r in &results {
                assert!(matches!(r, InstanceResult::Error(e) if e.contains("panicked")), "{r:?}");
            }
        }
        other => panic!("expected Ok with per-instance errors, got {other:?}"),
    }
    assert_eq!(c.stats().unwrap().exec_errors, 2);
    // The sole worker is still alive and still solves.
    let resp = c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blob])).unwrap();
    assert!(!solved(&resp)[0].cover.is_empty(), "worker survived the panic");
    server.shutdown();
}

#[test]
fn connection_cap_sheds_excess_connections() {
    let server = start(ServiceConfig { max_conns: 1, ..Default::default() });
    // The first connection occupies the only slot…
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.stats().unwrap(); // round-trip: the server has registered it
                        // …so the next one is accepted and immediately closed: EOF (or a reset,
                        // if the write races the close) instead of a reply.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let _ = wire::write_frame(&mut s, &wire::encode_stats_request());
    assert!(matches!(wire::read_frame(&mut s), Ok(None) | Err(_)));
    // Dropping the first connection frees the slot for a newcomer — and the
    // shed connections are visible in the stats.
    drop(c);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        if let Ok(stats) = c2.stats() {
            assert!(stats.shed_conns >= 1, "shedding must be observable");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn idle_connections_time_out_and_free_their_slot() {
    // max_conns = 1 plus a short idle timeout: a peer that never sends a
    // byte must not pin the only slot forever.
    let server = start(ServiceConfig { max_conns: 1, idle_timeout_ms: 50, ..Default::default() });
    let mut idle = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = Client::connect(server.local_addr()).unwrap();
        if c.stats().is_ok() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "idle slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The idle socket observes the server-side close.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(wire::read_frame(&mut idle), Ok(None) | Err(_)));
    server.shutdown();
}

/// Every phase histogram the telemetry module defines, in wire order.
const PHASES: [&str; 9] = [
    "phase.read_us",
    "phase.decode_us",
    "phase.queue_us",
    "phase.solve_us",
    "phase.encode_us",
    "phase.write_us",
    "request.total_us",
    "request.bytes_in",
    "request.bytes_out",
];

#[test]
fn metrics_frame_and_flight_recorder_over_the_wire() {
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::petersen();
    let w = vec![2u64; 10];
    let instances = [VcInstance::new(&g, &w), VcInstance::new(&g, &w)];
    let resp = c.solve(&client::vc_request(SolverId::VC_PN, &instances)).unwrap();
    assert_eq!(solved(&resp).len(), 2);

    // One served request moves *every* phase histogram by exactly one
    // (phases a record never entered are committed as 0 so counts stay
    // comparable), and the per-problem-kind counter accounts it.
    let snap = c.metrics().unwrap();
    for phase in PHASES {
        let h = snap.histo(phase).unwrap_or_else(|| panic!("{phase} missing from the frame"));
        assert_eq!(h.count, 1, "{phase} histogram must have recorded the solve");
    }
    assert!(snap.histo("request.bytes_in").unwrap().sum > 0, "request payload was non-empty");
    assert!(snap.histo("solve.rounds").unwrap().count >= 1, "computed solves record rounds");
    assert_eq!(snap.scalar("solve.kind.vc_pn"), Some(1));
    assert_eq!(snap.scalar("solve.kind.vc_bcast"), Some(0));
    assert_eq!(snap.scalar("solve.kind.set_cover"), Some(0));
    // The legacy stats counters ride in the same self-describing frame …
    assert_eq!(snap.scalar("served_ok"), Some(1));
    assert_eq!(snap.scalar("cache_misses"), Some(2));
    // … and the fixed legacy stats message still answers alongside.
    let stats = c.stats().unwrap();
    assert_eq!(stats.served_ok, 1);

    // Monotone: a later snapshot has seen every earlier request (the
    // metrics and stats requests above included — info requests are
    // committed like any other), and histogram counts never decrease.
    let snap2 = c.metrics().unwrap();
    for phase in PHASES {
        let (h1, h2) = (snap.histo(phase).unwrap(), snap2.histo(phase).unwrap());
        assert!(h2.count > h1.count, "{phase} must have grown: {} -> {}", h1.count, h2.count);
    }

    // The JSON rendering carries the schema header and every entry.
    let json = snap2.to_json();
    assert!(json.starts_with("{\"schema\":\"anonet-metrics/1\""));
    for phase in PHASES {
        assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{phase} missing from JSON");
    }

    // The flight recorder answers over the wire with per-request records:
    // the solve (problem kind, instance count, ok) and the info requests.
    let dump = c.debug_dump().unwrap();
    assert!(dump.contains("\"schema\":\"anonet-flight/1\""), "{dump}");
    assert!(dump.contains("\"reason\":\"on-demand\""), "{dump}");
    assert!(dump.contains("\"problem\":\"vc_pn\""), "{dump}");
    assert!(dump.contains("\"instances\":2"), "{dump}");
    assert!(dump.contains("\"outcome\":\"ok\""), "{dump}");
    assert!(dump.contains("\"outcome\":\"info\""), "{dump}");

    server.shutdown();
}

#[test]
fn mode_unsupported_requests_are_recorded_as_unsupported() {
    // Async execution of a sync-only solver: the worker answers with the
    // structured `Unsupported` reply, and the flight record says so instead
    // of keeping the `ok` the worker starts every job with.
    let server = start(ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::petersen();
    let blob = canon::encode_vc(&g, &[2u64; 10], 3, 2);
    let req = SolveRequest::new(SolverId::VC_KVY, vec![blob]).with_scenario(Scenario::Ideal, 7);
    match c.solve(&req).unwrap() {
        SolveResponse::Unsupported(msg) => assert!(msg.contains("vc_kvy"), "{msg}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let dump = c.debug_dump().unwrap();
    assert!(dump.contains("\"problem\":\"vc_kvy\""), "{dump}");
    assert!(dump.contains("\"outcome\":\"unsupported\""), "{dump}");
    assert!(!dump.contains("\"outcome\":\"ok\""), "{dump}");
    // Counters are unchanged by the relabelling: nothing was served.
    let stats = c.stats().unwrap();
    assert_eq!((stats.served_ok, stats.exec_errors, stats.malformed), (0, 0, 0));
    server.shutdown();
}

// FLAG_TEST_PANIC is honoured in debug builds only (as in
// `worker_pool_survives_panicking_jobs`).
#[cfg(debug_assertions)]
#[test]
fn flight_recorder_captures_panicking_requests() {
    let server = start(ServiceConfig { workers: 1, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::cycle(4);
    let w = vec![1u64; 4];
    let blob = canon::encode_vc(&g, &w, 2, 1);
    let mut req = SolveRequest::new(SolverId::VC_PN, vec![blob]);
    req.flags |= wire::FLAG_TEST_PANIC;
    assert!(matches!(c.solve(&req).unwrap(), SolveResponse::Ok(_)));
    // The panicking request's record lands in the ring with its outcome,
    // and the panic counter moves — the on-demand dump shows both.
    let dump = c.debug_dump().unwrap();
    assert!(dump.contains("\"outcome\":\"panic\""), "{dump}");
    assert_eq!(c.metrics().unwrap().scalar("worker.panics"), Some(1));
    server.shutdown();
}

#[test]
fn flight_cap_zero_disables_the_ring_but_not_metrics() {
    let server = start(ServiceConfig { flight_cap: 0, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::cycle(5);
    let w = vec![1u64; 5];
    let blob = canon::encode_vc(&g, &w, 2, 1);
    c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blob])).unwrap();
    let dump = c.debug_dump().unwrap();
    assert!(dump.contains("\"records\":[]"), "{dump}");
    assert_eq!(c.metrics().unwrap().histo("request.total_us").map(|h| h.count), Some(2));
    server.shutdown();
}

#[test]
fn lru_eviction_over_the_wire() {
    // cache_cap 2: three distinct instances evict the first.
    let server = start(ServiceConfig { cache_cap: 2, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let blobs: Vec<Vec<u8>> = (0..3u64)
        .map(|i| {
            let g = family::cycle(5 + i as usize);
            let w = vec![1u64; g.n()];
            canon::encode_vc(&g, &w, 2, 1)
        })
        .collect();
    for blob in &blobs {
        c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blob.clone()])).unwrap();
    }
    let stats = c.stats().unwrap();
    assert_eq!(stats.cache_len, 2);
    assert_eq!(stats.cache_evictions, 1);
    // Instance 0 was evicted: requesting it again misses and recomputes.
    let resp = c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blobs[0].clone()])).unwrap();
    assert!(!solved(&resp)[0].from_cache);
    server.shutdown();
}
