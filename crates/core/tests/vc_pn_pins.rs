//! Golden pins for the §3 port-numbering edge packing: the full `Trace`,
//! the cover and every edge's packing value, as literals, under both exact
//! value types. The pins cover Δ ∈ {3, 8} and W ∈ {1, 2¹⁶, 2⁴⁰}; at Δ = 3,
//! W = 2⁴⁰ the Lemma 2 colour codes are wider than 128 bits, and at Δ = 8
//! they are wider still for every W with a forest, so both the word-sized
//! and the big-integer colour paths are pinned.

use anonet_bigmath::{AutoRat, BigRat, PackingValue};
use anonet_core::vc_pn::{run_edge_packing_scratch, VcConfig, VcInstance};
use anonet_gen::{family, WeightSpec};
use anonet_sim::{EngineScratch, Graph, Trace};

struct Pin {
    trace: Trace,
    cover: &'static str,
    /// `y(e)` in edge-id order, space separated.
    packing: &'static str,
    dual: &'static str,
}

fn pin_trace(rounds: u64, messages: u64, total_bits: u64, max_message_bits: u64) -> Trace {
    Trace { rounds, messages, total_bits, max_message_bits }
}

fn check_pin<V: PackingValue>(
    what: &str,
    g: &Graph,
    w: &[u64],
    delta: usize,
    wmax: u64,
    pin: &Pin,
) {
    let run = run_edge_packing_scratch::<V>(
        &VcInstance::with_bounds(g, w, delta, wmax),
        &mut EngineScratch::new(),
    )
    .unwrap();
    assert!(run.packing.is_maximal(g, w), "{what}: maximal");
    let cover: String = run.cover.iter().map(|&b| if b { '1' } else { '0' }).collect();
    let packing: Vec<String> = run.packing.y.iter().map(ToString::to_string).collect();
    assert_eq!(run.trace, pin.trace, "{what}: trace");
    assert_eq!(cover, pin.cover, "{what}: cover");
    assert_eq!(packing.join(" "), pin.packing, "{what}: packing");
    assert_eq!(run.packing.dual_value().to_string(), pin.dual, "{what}: dual value");
}

/// Weights for bound `wmax`: all ones for W = 1, log-uniform otherwise.
fn weights(n: usize, wmax: u64, seed: u64) -> Vec<u64> {
    if wmax == 1 {
        vec![1; n]
    } else {
        WeightSpec::LogUniform(wmax).draw_many(n, seed)
    }
}

fn check_both(what: &str, g: &Graph, w: &[u64], delta: usize, wmax: u64, pin: &Pin) {
    check_pin::<AutoRat>(what, g, w, delta, wmax, pin);
    check_pin::<BigRat>(what, g, w, delta, wmax, pin);
}

#[test]
fn golden_vc_pn_delta3_pins() {
    let g = family::random_regular(12, 3, 7);
    let cases: [(u64, Pin); 3] = [
        (
            1,
            Pin {
                trace: pin_trace(36, 1296, 1512, 5),
                cover: "111111111111",
                packing: "1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3",
                dual: "6",
            },
        ),
        (
            1 << 16,
            Pin {
                trace: pin_trace(36, 1296, 4750, 141),
                cover: "001011001111",
                packing: "22 22 22 149/3 262/3 262/3 262/3 232/3 24800 12411 22 22 22 336 \
                          506/3 4/3 4/3 4/3",
                dual: "114722/3",
            },
        ),
        (
            1 << 40,
            Pin {
                trace: pin_trace(37, 1332, 9645, 271),
                cover: "011110100111",
                packing: "16 16 16 1702817966/3 658104 39466/3 51929/3 3405635884/3 103178/3 \
                          19757/3 680/3 680/3 680/3 24572558/3 12287701/3 948 948 948",
                dual: "5147513467/3",
            },
        ),
    ];
    // The W = 2⁴⁰ codes do not fit in 128 bits.
    assert!(VcConfig::new(3, 1 << 40).encoder.code_bound().bits() > 128);
    for (i, (wmax, pin)) in cases.iter().enumerate() {
        let w = weights(g.n(), *wmax, 17 + i as u64);
        check_both(&format!("Δ = 3, W = {wmax}"), &g, &w, 3, *wmax, pin);
    }
}

#[test]
fn golden_vc_pn_delta8_pins() {
    let g = family::gnp_capped(10, 0.8, 8, 5);
    assert_eq!(g.max_degree(), 8);
    let cases: [(u64, Pin); 3] = [
        (
            1,
            Pin {
                trace: pin_trace(77, 5236, 8044, 18),
                cover: "1111111110",
                packing: "19/112 3/16 19/112 1/7 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 \
                          1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8 27/56 1/8 1/8 1/8 1/7 1/8 1/8 \
                          1/7 1/7 1/8",
                dual: "541/112",
            },
        ),
        (
            1 << 16,
            Pin {
                trace: pin_trace(77, 5236, 250_968, 6584),
                cover: "1111110111",
                packing: "126087/140 66/7 66/7 239 66/7 149/8 149/8 131/4 149/8 131/4 66/7 \
                          66/7 9309/280 25129/280 94461/56 357601/14 239 23663/10 149/8 \
                          131/4 3105/7 239 3569/8 66/7 891809/28 42575/8 149/8 131/4 66/7 \
                          66/5 66/5 66/5 66/5 66/5",
                dual: "9765653/140",
            },
        ),
        (
            1 << 40,
            Pin {
                trace: pin_trace(77, 5236, 247_859, 7640),
                cover: "0111011111",
                packing: "20718673/56 48/7 48/7 19757/5 48/7 19757/5 659068/7 7050067359/280 \
                          33721925/8 659068/7 48/7 48/7 4344233/280 51929/8 51929/8 19757/5 \
                          51929/8 51929/8 78483065448915433917449/65559797921100 33721925/8 \
                          659068/7 50559640814329689415493/32779898960550 19757/5 48/7 \
                          19757/5 51929/8 10340797/280 59226/5 48/7 136 136 136 136 136",
                dual: "776691578333/280",
            },
        ),
    ];
    for (i, (wmax, pin)) in cases.iter().enumerate() {
        let w = weights(g.n(), *wmax, 17 + i as u64);
        check_both(&format!("Δ = 8, W = {wmax}"), &g, &w, 8, *wmax, pin);
    }
}
