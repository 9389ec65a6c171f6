//! # anonet-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §4 and EXPERIMENTS.md for the index) plus shared reporting
//! utilities. All binaries print Markdown tables to stdout with fixed seeds,
//! so `cargo run -p anonet-bench --bin <exp>` regenerates any experiment
//! byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use anonet_sim::{BcastAlgorithm, PnAlgorithm};
use std::fmt::Display;

/// Shared engine-benchmark workload: gossip the running maximum of inputs,
/// halting at the per-node round packed into the input's low byte (the
/// `(value << 8) | halt_round` scheme of [`halting_inputs`]). The engine
/// and runtime rows of the `perf_baseline` bin (`BENCH_engine.json`) run it.
pub struct HaltingGossip {
    best: u64,
    halt_at: u64,
}

impl PnAlgorithm for HaltingGossip {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), _degree: usize, input: &u64) -> Self {
        HaltingGossip { best: *input >> 8, halt_at: (*input & 0xFF).max(1) }
    }
    fn send(&self, _: &(), _round: u64, out: &mut [u64]) {
        out.fill(self.best);
    }
    fn send_uniform(&self, _: &(), _round: u64) -> Option<u64> {
        Some(self.best)
    }
    fn receive(&mut self, _: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.best = self.best.max(m);
        }
        (round >= self.halt_at).then_some(self.best)
    }
}

/// Broadcast-model twin of [`HaltingGossip`]: each node broadcasts its
/// running maximum and halts at the round packed into its input's low byte.
/// Same input encoding ([`halting_inputs`]), one message per node per round —
/// this is the steady-state workload for the broadcast engine path and its
/// round-global canonicalisation (the `bcast_steady_*` rows in
/// `BENCH_engine.json`).
pub struct HaltingBcastGossip {
    best: u64,
    halt_at: u64,
}

impl BcastAlgorithm for HaltingBcastGossip {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), _degree: usize, input: &u64) -> Self {
        HaltingBcastGossip { best: *input >> 8, halt_at: (*input & 0xFF).max(1) }
    }
    fn send(&self, _: &(), _round: u64) -> u64 {
        self.best
    }
    fn receive(&mut self, _: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.best = self.best.max(m);
        }
        (round >= self.halt_at).then_some(self.best)
    }
}

/// Inputs for [`HaltingGossip`]: node v carries value `v` and halts at round
/// `halt_round(v)` (clamped to 1..=255 by the encoding).
pub fn halting_inputs(n: usize, halt_round: impl Fn(u64) -> u64) -> Vec<u64> {
    (0..n as u64).map(|v| (v << 8) | (halt_round(v) & 0xFF)).collect()
}

/// Prints a Markdown table.
pub fn md_table<S: Display>(title: &str, headers: &[&str], rows: &[Vec<S>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice.
pub fn fmax(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Cover weight helper.
pub fn cover_weight(cover: &[bool], weights: &[u64]) -> u64 {
    cover.iter().zip(weights).filter(|(&c, _)| c).map(|(_, &w)| w).sum()
}

/// Cover size helper.
pub fn cover_size(cover: &[bool]) -> usize {
    cover.iter().filter(|&&c| c).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(fmax(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(cover_weight(&[true, false, true], &[3, 9, 4]), 7);
        assert_eq!(cover_size(&[true, false, true]), 2);
        assert_eq!(f3(1.23456), "1.235");
    }
}
