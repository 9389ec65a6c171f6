//! Tests of the benchmark's own logic: percentiles, the quiet half, span
//! arithmetic, the residual identity, stream determinism, the served-body
//! check, and that `BENCHMARK.json` names exactly the metrics the code
//! reports.

use anonet_perfbench::check;
use anonet_perfbench::pipeline;
use anonet_perfbench::report;
use anonet_perfbench::spans::{self, SpanLog, ROOT};
use anonet_perfbench::stats::{self, LatencySummary, Quiet};
use anonet_perfbench::workload::{self, build_stream};
use anonet_service::wire;

#[test]
fn nearest_rank_percentiles_on_known_vectors() {
    let v: Vec<u64> = (1..=10).collect();
    assert_eq!(stats::quantile(&v, 500), Some(5));
    assert_eq!(stats::quantile(&v, 990), Some(10));
    assert_eq!(stats::quantile(&v, 100), Some(1));
    assert_eq!(stats::quantile(&v, 1000), Some(10));
    assert_eq!(stats::quantile::<u64>(&[], 500), None);
    // 1000 samples: p99 is rank 990 exactly, leaving 10 beyond it.
    assert_eq!(stats::nearest_rank(1000, 990), 990);
    assert_eq!(stats::beyond(1000, 990), 10);
    assert_eq!(stats::beyond(999, 990), 9);
    assert_eq!(stats::nearest_rank(1, 990), 1);
    let mut samples: Vec<u64> = (1..=2000).rev().collect();
    let s = LatencySummary::of(&mut samples);
    assert_eq!((s.n, s.p50_ns, s.p99_ns, s.beyond_p99), (2000, 1000, 1980, 20));
    assert_eq!(stats::median(&mut [7, 1, 3]), 3);
    assert_eq!(stats::median(&mut [4, 1, 3, 2]), 2);
}

#[test]
fn quiet_half_pools_the_least_stolen_slices() {
    // 4 one-second slices of 1000 samples; slice 1 saw 500 ms of steal and
    // 100× latency, slice 3 a little steal. Slices 0 and 2 cover half the
    // window and are pooled; the whole-window figures keep the burst.
    let samples: Vec<(u64, u64)> = (0..4_000u64)
        .map(|i| (7 + i * 1_000_000, if i / 1000 == 1 { 100_000 } else { 1_000 + i % 100 }))
        .collect();
    let q = Quiet::of(&samples, 7, 4 * stats::SLICE_NS, &[0, 500, 0, 20]);
    assert_eq!((q.pooled, q.slices, q.steal_ms), (2, 4, (0, 520)));
    assert_eq!((q.lat.n, q.lat.p50_ns, q.lat.p99_ns, q.lat.beyond_p99), (2000, 1_049, 1_098, 20));
    assert_eq!(q.ok_rps, 1000.0);
    assert_eq!((q.plain.n, q.plain.p50_ns, q.plain.p99_ns), (4000, 1_066, 100_000));
    // A short last slice: 2.5 s with no steal pools slices 0 and 2 (1.5 s).
    let q = Quiet::of(&samples[..2500], 7, 2_500_000_000, &[0, 0, 0]);
    assert_eq!((q.pooled, q.slices, q.lat.n), (2, 3, 1500));
    assert_eq!(q.ok_rps, 1000.0);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut log = SpanLog::default();
    let root = log.push(1, "root", "", ROOT, 0, 100);
    // Overlapping children [10,30) ∪ [20,50) = 40, plus [60,70) = 10, plus
    // one sticking out past the parent's end, clipped to [95,100) = 5.
    let a = log.push(1, "a", "", root, 10, 30);
    log.push(1, "b", "", root, 20, 50);
    log.push(1, "c", "", root, 60, 70);
    log.push(1, "d", "", root, 95, 120);
    // A grandchild reduces its parent's self time, not the root's.
    log.push(1, "e", "", a, 12, 18);
    let t = log.self_times();
    assert_eq!(t, vec![100 - 55, 20 - 6, 30, 10, 25, 6]);
    let m = log.median_self_us();
    assert_eq!(m["root_us"], 0.045);
}

#[test]
fn appended_logs_keep_their_parent_links() {
    let mut a = SpanLog::default();
    a.push(1, "x", "", ROOT, 0, 10);
    let mut b = SpanLog::default();
    let r = b.push(2, "y", "", ROOT, 0, 10);
    b.push(2, "z", "t", r, 2, 4);
    a.append(b);
    assert_eq!(a.spans[2].parent, 1);
    assert_eq!(a.self_times(), vec![10, 8, 2]);
    assert_eq!(a.spans[2].metric(), "z_us.t");
}

#[test]
fn residual_identity_holds() {
    for (client, layers) in
        [(1_000u64, vec![100u64, 200, 300]), (50, vec![40, 30]), (0, vec![]), (7, vec![7])]
    {
        let r = spans::residual_ns(client, &layers);
        assert_eq!(layers.iter().sum::<u64>() as i64 + r, client as i64);
    }
    // Per-request layer totals fold solver tags and count absent layers as 0.
    let mut log = SpanLog::default();
    let r1 = log.push(1, "replay.request", "", ROOT, 0, 100);
    log.push(1, "sim.run", "vc_pn", r1, 0, 40);
    log.push(1, "sim.run", "vc_pn", r1, 40, 50);
    let r2 = log.push(2, "replay.request", "", ROOT, 0, 100);
    log.push(2, "sim.run", "vc_bchs", r2, 0, 30);
    log.push(2, "wire.encode_body", "", r2, 30, 35);
    let totals = log.per_request_totals(&["sim.run", "wire.encode_body"], &[1, 2, 3]);
    assert_eq!(totals, vec![vec![50, 30, 0], vec![0, 5, 0]]);
}

#[test]
fn same_seed_gives_the_same_request_bytes() {
    for name in workload::NAMES {
        let a = build_stream(name, 7).request_bytes(64);
        let b = build_stream(name, 7).request_bytes(64);
        let c = build_stream(name, 8).request_bytes(64);
        assert!(!a.is_empty(), "{name}");
        assert_eq!(a, b, "{name}: same seed, different bytes");
        assert_ne!(a, c, "{name}: different seeds, same bytes");
    }
}

#[test]
fn served_bodies_are_checked_by_re_encoding() {
    let mut stream = build_stream("hot_hits", 3);
    stream.templates.truncate(2);
    pipeline::fill_expected(&mut stream, 1).expect("oracle solves");
    let tmpl = &stream.templates[0];
    let served = |body: Vec<u8>| {
        let payload = wire::encode_solve_response_raw(&[Ok((true, body))]);
        check::decode_reply(&payload).and_then(|r| check::verify(&r, tmpl))
    };
    assert_eq!(served(tmpl.expected[0].clone()), Ok(()));
    // Another instance's answer fails; so does a changed trace field.
    assert!(served(stream.templates[1].expected[0].clone()).is_err());
    let mut body = tmpl.expected[0].clone();
    *body.last_mut().expect("trace bytes") ^= 1;
    assert_eq!(served(body), Err(check::Failure::BodyMismatch));
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let doc = include_str!("../../BENCHMARK.json");
    let listed = |section: &str| -> Vec<String> {
        let start = doc.find(&format!("\"{section}\"")).expect("section present");
        let body = &doc[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    };
    let e2e: Vec<String> = report::END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed("per_layer"), layers);
    assert_eq!(listed("workloads"), workload::NAMES);
}
