//! Differential tests between the two connection models: the thread-per-
//! connection path is the **oracle**, and the reactor must answer every
//! request stream with byte-identical response frames. Plus reactor-mode
//! behaviour that has no threads-model twin: pipelining on one connection,
//! the `net.*` metrics riding the wire frame, and shed/idle accounting
//! flowing through the reactor's own counters into the stats endpoint.

use anonet_bigmath::BigRat;
use anonet_core::canon;
use anonet_core::vc_pn::{run_edge_packing_many, VcInstance};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_service::{
    client, wire, Client, ConnModel, InstanceResult, Scenario, Server, ServiceConfig, SolveRequest,
    SolveResponse, SolverId,
};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start(model: ConnModel, cfg: ServiceConfig) -> Server {
    Server::start("127.0.0.1:0", ServiceConfig { conn_model: model, ..cfg }).expect("bind loopback")
}

/// Sends `frames` sequentially on one connection, returning the raw reply
/// frames byte-for-byte.
fn roundtrip_raw(addr: SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    frames
        .iter()
        .map(|f| {
            wire::write_frame(&mut s, f).unwrap();
            wire::read_frame(&mut s).unwrap().expect("server must reply, not close")
        })
        .collect()
}

/// The request stream both models must answer identically: solves across
/// every problem kind, cache hits, per-instance errors, async scenarios,
/// unsupported combinations, malformed frames, and the stats counters they
/// leave behind.
fn differential_stream() -> Vec<Vec<u8>> {
    let g1 = family::petersen();
    let w1 = WeightSpec::Uniform(9).draw_many(10, 3);
    let g2 = family::grid(4, 3);
    let w2 = WeightSpec::LogUniform(1 << 10).draw_many(12, 5);
    let vc_blobs = vec![
        canon::encode_vc(&g1, &w1, g1.max_degree().max(1), 9),
        canon::encode_vc(&g2, &w2, g2.max_degree().max(1), 1 << 10),
        vec![0xFF; 3], // hostile: per-instance decode error
    ];
    let vc = SolveRequest::new(SolverId::VC_PN, vc_blobs);
    let sc_inst = setcover::random_bounded(14, 10, 2, 3, WeightSpec::Uniform(8), 21);
    let sc = client::sc_request(&[&sc_inst]);
    let bcast = SolveRequest::new(SolverId::VC_BCAST, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    // Portfolio solvers: PS3 on a unit-weight instance, the (2+ε) family on
    // a weighted one, and PS3 handed weights — the per-instance error path.
    let unit = canon::encode_vc(&g1, &[1u64; 10], g1.max_degree().max(1), 1);
    let ps3 = SolveRequest::new(SolverId::VC_PS3, vec![unit.clone()]);
    let kvy = SolveRequest::new(SolverId::VC_KVY, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let bchs = SolveRequest::new(SolverId::VC_BCHS, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let ps3_weighted = SolveRequest::new(SolverId::VC_PS3, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    // A well-formed frame naming an out-of-registry solver id: the
    // structured Unsupported arm, not Malformed.
    let g3 = family::cycle(7);
    let partial = SolveRequest::new(
        SolverId::VC_PN,
        vec![vc.instances[1].clone(), canon::encode_vc(&g3, &[4u64; 7], 2, 4)],
    );
    let lossy_again = SolveRequest::new(SolverId::VC_PN, vc.instances[..2].to_vec())
        .with_scenario(Scenario::LossyRadio, 42);
    let mut unknown_solver = wire::encode_solve_request(&ps3);
    unknown_solver[7] = 0xEE;
    vec![
        wire::encode_solve_request(&vc),
        // Identical request again: cache hits, `from_cache` bits included.
        wire::encode_solve_request(&vc),
        wire::encode_solve_request(&vc.clone().no_cache()),
        wire::encode_solve_request(&sc),
        wire::encode_solve_request(&bcast),
        wire::encode_solve_request(&ps3),
        wire::encode_solve_request(&kvy),
        wire::encode_solve_request(&bchs),
        wire::encode_solve_request(&ps3_weighted),
        unknown_solver,
        // Async §3 run (deterministic per seed) and the structured
        // Unsupported rejections: async on a sync-only portfolio solver,
        // async broadcast.
        wire::encode_solve_request(&vc.clone().with_scenario(Scenario::LossyRadio, 42)),
        wire::encode_solve_request(&kvy.clone().with_scenario(Scenario::Ideal, 7)),
        wire::encode_solve_request(&bcast.clone().with_scenario(Scenario::Ideal, 1)),
        // Garbage after the magic: the Malformed arm.
        b"ANSVxxxxxx".to_vec(),
        // A repeated solve (every instance cached: answered at dispatch), a
        // partial hit (one cached instance, one new), and the async run
        // again on its two solvable instances (cached under their scenario
        // and seed: answered at dispatch).
        wire::encode_solve_request(&sc),
        wire::encode_solve_request(&partial),
        wire::encode_solve_request(&lossy_again),
        // Last: the 11×u64 stats counters after everything above, so both
        // models must also have counted the whole stream identically.
        wire::encode_stats_request(),
    ]
}

#[test]
fn reactor_answers_byte_identically_to_the_threads_oracle() {
    let frames = differential_stream();
    let cfg = || ServiceConfig { workers: 2, threads_per_job: 1, ..ServiceConfig::default() };
    let oracle = start(ConnModel::Threads, cfg());
    let reactor = start(ConnModel::Reactor, cfg());
    let want = roundtrip_raw(oracle.local_addr(), &frames);
    let got = roundtrip_raw(reactor.local_addr(), &frames);
    assert_eq!(want.len(), got.len());
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(w, g, "request {i}: reactor reply bytes diverge from the threads oracle");
    }
    oracle.shutdown();
    reactor.shutdown();
}

#[test]
fn busy_rejections_are_byte_identical_across_models() {
    // workers = 0: nothing drains, the queue fills deterministically, and
    // the third submission is rejected with Busy{retry_after: 7, queue: 2}
    // under either model.
    let cfg = || ServiceConfig {
        workers: 0,
        queue_cap: 2,
        retry_after_ms: 7,
        ..ServiceConfig::default()
    };
    let g = family::cycle(4);
    let blob = canon::encode_vc(&g, &[1, 1, 1, 1], 2, 1);
    let req = wire::encode_solve_request(&SolveRequest::new(SolverId::VC_PN, vec![blob]));

    let mut replies: Vec<Vec<u8>> = Vec::new();
    for model in [ConnModel::Threads, ConnModel::Reactor] {
        let server = start(model, cfg());
        // Two parked connections fill the queue and never read.
        let mut parked: Vec<TcpStream> = Vec::new();
        for _ in 0..2 {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            wire::write_frame(&mut s, &req).unwrap();
            parked.push(s);
        }
        let mut c = Client::connect(server.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.stats().unwrap().queue_len != 2 {
            assert!(std::time::Instant::now() < deadline, "{model:?}: queue never filled");
            std::thread::sleep(Duration::from_millis(10));
        }
        let reply = roundtrip_raw(server.local_addr(), std::slice::from_ref(&req));
        replies.push(reply.into_iter().next().unwrap());
        server.shutdown();
    }
    assert_eq!(replies[0], replies[1], "Busy reply bytes diverge across models");
    // And it really is the structured Busy response.
    let mut r = canon::ByteReader::new(&replies[0]);
    wire::read_header(&mut r).unwrap();
    match wire::decode_solve_response(&mut r).unwrap() {
        SolveResponse::Busy { retry_after_ms, queue_len } => {
            assert_eq!((retry_after_ms, queue_len), (7, 2));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
}

#[test]
fn pipelined_hits_and_misses_answer_in_order_under_both_models() {
    // Hits are answered at dispatch while the misses ahead of them are
    // still on a worker; the reactor must still reply in request order,
    // byte for byte as the threads model does.
    let blob = |n: usize| canon::encode_vc(&family::cycle(n), &vec![1u64; n], 2, 1);
    let req =
        |n: usize| wire::encode_solve_request(&SolveRequest::new(SolverId::VC_PN, vec![blob(n)]));
    let (hit_b, hit_d) = (req(5), req(9));
    let stream = [req(12), hit_b.clone(), req(13), hit_d.clone()];
    let mut replies: Vec<Vec<Vec<u8>>> = Vec::new();
    for model in [ConnModel::Threads, ConnModel::Reactor] {
        let server = start(model, ServiceConfig::default());
        roundtrip_raw(server.local_addr(), &[hit_b.clone(), hit_d.clone()]);
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        for frame in &stream {
            wire::write_frame(&mut s, frame).unwrap();
        }
        let got: Vec<Vec<u8>> =
            stream.iter().map(|_| wire::read_frame(&mut s).unwrap().expect("reply")).collect();
        let from_cache: Vec<bool> = got
            .iter()
            .map(|reply| {
                let mut r = canon::ByteReader::new(reply);
                wire::read_header(&mut r).unwrap();
                match wire::decode_solve_response(&mut r).unwrap() {
                    SolveResponse::Ok(results) => match &results[0] {
                        InstanceResult::Solved(sv) => sv.from_cache,
                        InstanceResult::Error(e) => panic!("{model:?}: {e}"),
                    },
                    other => panic!("{model:?}: {other:?}"),
                }
            })
            .collect();
        assert_eq!(from_cache, [false, true, false, true], "{model:?}: replies out of order");
        replies.push(got);
        server.shutdown();
    }
    assert_eq!(replies[0], replies[1], "pipelined replies diverge across models");
}

#[test]
fn pipelined_solves_on_one_connection_answer_in_order() {
    let server = start(ConnModel::Reactor, ServiceConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    // Distinct cycle sizes; write all requests before reading any reply,
    // then check each reply against the direct engine run for *its* size
    // (order preserved through queue + worker pool).
    let sizes = [4usize, 5, 6, 7, 8, 9, 10, 11];
    let graphs: Vec<_> = sizes.iter().map(|&n| (family::cycle(n), vec![1u64; n])).collect();
    for (g, w) in &graphs {
        let blob = canon::encode_vc(g, w, 2, 1);
        let req = SolveRequest::new(SolverId::VC_PN, vec![blob]);
        wire::write_frame(&mut s, &wire::encode_solve_request(&req)).unwrap();
    }
    for (i, (g, w)) in graphs.iter().enumerate() {
        let n = sizes[i];
        let direct = run_edge_packing_many::<BigRat>(&[VcInstance::new(g, w)], 1);
        let want = direct[0].as_ref().unwrap();
        let reply = wire::read_frame(&mut s).unwrap().expect("reply");
        let mut r = canon::ByteReader::new(&reply);
        wire::read_header(&mut r).unwrap();
        match wire::decode_solve_response(&mut r).unwrap() {
            SolveResponse::Ok(results) => match &results[0] {
                InstanceResult::Solved(sv) => {
                    assert_eq!(sv.cover, want.cover, "cycle {n}: reply out of pipeline order");
                    assert!(canon::certificate_bound_holds(&sv.certificate));
                }
                InstanceResult::Error(e) => panic!("cycle {n}: {e}"),
            },
            other => panic!("cycle {n}: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn reactor_metrics_ride_the_wire_frame() {
    let server = start(ConnModel::Reactor, ServiceConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::petersen();
    let blob = canon::encode_vc(&g, &[2u64; 10], 3, 2);
    c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blob])).unwrap();
    let snap = c.metrics().unwrap();
    assert_eq!(snap.scalar("net.conns"), Some(1), "this very connection is the gauge");
    assert_eq!(snap.scalar("net.shed_conns"), Some(0));
    assert_eq!(snap.scalar("net.idle_timeouts"), Some(0));
    let waits = snap.histo("net.epoll_wait_us").expect("epoll wait histogram");
    assert!(waits.count > 0, "the reactor must have polled");
    let batches = snap.histo("net.readiness_batch").expect("readiness batch histogram");
    assert!(batches.count > 0);
    // Phase histograms still ride along; transport phases are reactor-owned
    // and committed as 0 (documented), the rest are real.
    assert!(snap.histo("phase.solve_us").unwrap().count >= 1);
    server.shutdown();
}

#[test]
fn reactor_sheds_over_cap_and_stats_fold_the_count() {
    let server = start(ConnModel::Reactor, ServiceConfig { max_conns: 1, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.stats().unwrap(); // the slot is taken
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let _ = wire::write_frame(&mut s, &wire::encode_stats_request());
    assert!(
        matches!(wire::read_frame(&mut s), Ok(None) | Err(_)),
        "over-cap connection must be shed, not served"
    );
    // The reactor's shed counter is folded into the legacy stats field.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if c.stats().unwrap().shed_conns >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "shed never became visible");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn reactor_idle_timeout_frees_the_slot() {
    let server = start(
        ConnModel::Reactor,
        ServiceConfig { max_conns: 1, idle_timeout_ms: 50, ..Default::default() },
    );
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    // Once the idle peer expires, the freed slot serves a newcomer.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = Client::connect(server.local_addr()).unwrap();
        if c.stats().is_ok() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "idle slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(wire::read_frame(&mut idle), Ok(None) | Err(_)));
    server.shutdown();
}

// The injection flag is honoured in debug builds only.
#[cfg(debug_assertions)]
#[test]
fn worker_panics_still_answer_over_the_reactor() {
    // The panic path exercises ReactorReply::finish from the unwind arm:
    // the reply must come back (per-instance errors) instead of leaving the
    // connection's pipeline slot permanently in flight.
    let server = start(ConnModel::Reactor, ServiceConfig { workers: 1, ..Default::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let g = family::cycle(4);
    let blob = canon::encode_vc(&g, &[1, 1, 1, 1], 2, 1);
    let mut req = SolveRequest::new(SolverId::VC_PN, vec![blob.clone()]);
    req.flags |= wire::FLAG_TEST_PANIC;
    match c.solve(&req).unwrap() {
        SolveResponse::Ok(results) => {
            assert!(matches!(&results[0], InstanceResult::Error(e) if e.contains("panicked")));
        }
        other => panic!("expected Ok with per-instance errors, got {other:?}"),
    }
    // The worker survived and the connection still serves.
    let resp = c.solve(&SolveRequest::new(SolverId::VC_PN, vec![blob])).unwrap();
    assert!(matches!(resp, SolveResponse::Ok(_)));
    server.shutdown();
}

#[test]
fn loadgen_conns_mode_drives_the_reactor() {
    // The epoll-multiplexed loadgen against the reactor server: every
    // request solved and certified across 32 persistent pipelined
    // connections on one driver thread.
    use anonet_service::loadgen::{
        drive, synthesize, DriveConfig, FamilyKind, WorkloadSpec, PIPELINE_DEPTH,
    };
    let server = start(
        ConnModel::Reactor,
        ServiceConfig { workers: 2, max_conns: 64, queue_cap: 256, ..Default::default() },
    );
    let spec = WorkloadSpec {
        solver: SolverId::VC_PN,
        family: FamilyKind::Regular,
        n: 24,
        degree: 3,
        instances: 8,
        weights: WeightSpec::Uniform(16),
        seed: 3,
    };
    let blobs = synthesize(&spec);
    let cfg = DriveConfig {
        addr: server.local_addr().to_string(),
        requests: 96,
        conns: 32,
        depth: PIPELINE_DEPTH,
        ..DriveConfig::default()
    };
    let report = drive(SolverId::VC_PN, &blobs, &cfg).expect("conns drive");
    assert_eq!(report.errors, 0);
    assert_eq!(report.busy, 0);
    assert_eq!(report.ok, 96);
    assert_eq!(report.certified_instances, report.solved_instances);
    assert!(report.solved_instances > 0);
    assert!(report.latency_us.count == 96);
    server.shutdown();
}

/// A small regular-graph pool for the loadgen driver tests.
fn loadgen_blobs() -> Vec<Vec<u8>> {
    use anonet_service::loadgen::{synthesize, FamilyKind, WorkloadSpec};
    synthesize(&WorkloadSpec {
        solver: SolverId::VC_PN,
        family: FamilyKind::Regular,
        n: 24,
        degree: 3,
        instances: 4,
        weights: WeightSpec::Uniform(16),
        seed: 11,
    })
}

#[test]
fn loadgen_open_loop_keeps_its_schedule_under_both_models() {
    // 40 requests due 2.5 ms apart over 8 multiplexed connections: the run
    // cannot end before the last one is due, and every reply is solved and
    // certified.
    use anonet_service::loadgen::{drive, DriveConfig, LoopMode, PIPELINE_DEPTH};
    let blobs = loadgen_blobs();
    let (requests, rate) = (40, 400.0);
    for model in [ConnModel::Threads, ConnModel::Reactor] {
        let server = start(model, ServiceConfig { workers: 2, ..Default::default() });
        let cfg = DriveConfig {
            addr: server.local_addr().to_string(),
            conns: 8,
            depth: PIPELINE_DEPTH,
            requests,
            mode: LoopMode::Open { rate },
            ..DriveConfig::default()
        };
        let report = drive(SolverId::VC_PN, &blobs, &cfg).expect("open-loop drive");
        assert_eq!(report.ok, requests as u64, "{model:?}: {}", report.render());
        assert_eq!(report.certified_instances, report.solved_instances, "{model:?}");
        assert_eq!(report.latency_us.count, report.ok, "{model:?}");
        let last_due = Duration::from_secs_f64((requests - 1) as f64 / rate);
        assert!(
            report.elapsed >= last_due,
            "{model:?}: finished in {:?}, before the last request was due at {last_due:?}",
            report.elapsed
        );
        server.shutdown();
    }
}

#[test]
fn loadgen_closed_loop_at_depth_one_drives_the_threads_model() {
    // `loadgen --concurrency 4`: four connections, one request in flight
    // each, against one server thread per connection.
    use anonet_service::loadgen::{drive, DriveConfig};
    let blobs = loadgen_blobs();
    let server = start(ConnModel::Threads, ServiceConfig { workers: 2, ..Default::default() });
    let cfg = DriveConfig {
        addr: server.local_addr().to_string(),
        conns: 4,
        depth: 1,
        requests: 32,
        ..DriveConfig::default()
    };
    let report = drive(SolverId::VC_PN, &blobs, &cfg).expect("closed-loop drive");
    assert_eq!((report.ok, report.busy, report.errors), (32, 0, 0), "{}", report.render());
    assert_eq!(report.certified_instances, report.solved_instances);
    assert_eq!(report.solved_instances, 32);
    assert_eq!(report.latency_us.count, 32);
    server.shutdown();
}

#[test]
fn loadgen_closed_loop_holds_a_busy_connection_for_its_backoff() {
    // No queue slot: every request that needs a worker is answered Busy
    // with a 30 ms retry hint, which holds the one connection's next send.
    use anonet_service::loadgen::{drive, DriveConfig};
    let blobs = loadgen_blobs();
    let server = start(
        ConnModel::Reactor,
        ServiceConfig { workers: 0, queue_cap: 0, retry_after_ms: 30, ..Default::default() },
    );
    let cfg = DriveConfig {
        addr: server.local_addr().to_string(),
        conns: 1,
        depth: 1,
        requests: 3,
        no_cache: true,
        ..DriveConfig::default()
    };
    let report = drive(SolverId::VC_PN, &blobs, &cfg).expect("busy drive");
    assert_eq!((report.ok, report.busy, report.errors), (0, 3, 0), "{}", report.render());
    assert_eq!(report.latency_us.count, 0);
    assert!(report.elapsed >= Duration::from_millis(60), "two backoffs, got {:?}", report.elapsed);
    server.shutdown();
}
