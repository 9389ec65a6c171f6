//! The two anonymous-network computation models of the paper (§1.3).
//!
//! * **Port-numbering model** ([`PnAlgorithm`]): a node of degree d sends a
//!   vector of d messages and receives a vector of d messages; the i-th
//!   outgoing message corresponds to the same neighbour as the i-th incoming
//!   message.
//! * **Broadcast model** ([`BcastAlgorithm`]): a node sends one message to
//!   all neighbours and receives a **multiset** of messages. The engine
//!   enforces multiset semantics by sorting incoming messages canonically
//!   (`Msg: Ord`), so no algorithm can depend on sender identity.
//!
//! Anonymity is structural: `init` sees only the node's degree, its local
//! input, and the shared global configuration — never a node id. Algorithms
//! that *do* require unique identifiers (the Table 1 baselines) must thread
//! them through `Input` explicitly, which makes every departure from the
//! anonymous model visible in the type signature.

use std::fmt::Debug;
use std::hash::Hash;

/// Approximate wire size of a message, in bits.
///
/// Used by the engine's instrumentation to measure message complexity —
/// the cost the §5 simulation trades for fewer rounds. Sizes are
/// *informational* estimates (payload bits, ignoring framing).
pub trait MessageSize {
    /// `Some(b)` when **every** value of the type measures exactly `b` bits
    /// (fixed-width integers, `()`, `bool`, tuples thereof). The engine's
    /// accounting uses this to charge a round's sends by one term,
    /// recomputed only when the frontier changes, instead of measuring
    /// every message it sends; the value must therefore equal
    /// [`approx_bits`](MessageSize::approx_bits) for every possible value.
    /// Variable-size types (`Option`, `Vec`) keep the `None` default.
    const FIXED_BITS: Option<u64> = None;

    /// Approximate payload size in bits.
    fn approx_bits(&self) -> u64;
}

impl MessageSize for () {
    const FIXED_BITS: Option<u64> = Some(0);
    fn approx_bits(&self) -> u64 {
        0
    }
}

impl MessageSize for bool {
    const FIXED_BITS: Option<u64> = Some(1);
    fn approx_bits(&self) -> u64 {
        1
    }
}

macro_rules! impl_msgsize_int {
    ($($t:ty),*) => {$(
        impl MessageSize for $t {
            const FIXED_BITS: Option<u64> = Some(<$t>::BITS as u64);
            fn approx_bits(&self) -> u64 {
                <$t>::BITS as u64
            }
        }
    )*};
}
impl_msgsize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, u128, i128);

impl<T: MessageSize> MessageSize for Option<T> {
    fn approx_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, MessageSize::approx_bits)
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn approx_bits(&self) -> u64 {
        64 + self.iter().map(MessageSize::approx_bits).sum::<u64>()
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    const FIXED_BITS: Option<u64> = match (A::FIXED_BITS, B::FIXED_BITS) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    fn approx_bits(&self) -> u64 {
        self.0.approx_bits() + self.1.approx_bits()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize> MessageSize for (A, B, C) {
    const FIXED_BITS: Option<u64> = match (A::FIXED_BITS, B::FIXED_BITS, C::FIXED_BITS) {
        (Some(a), Some(b), Some(c)) => Some(a + b + c),
        _ => None,
    };
    fn approx_bits(&self) -> u64 {
        self.0.approx_bits() + self.1.approx_bits() + self.2.approx_bits()
    }
}

/// A deterministic synchronous algorithm in the **port-numbering model**.
///
/// The engine drives each node through synchronous rounds: at round r it
/// calls [`send`](PnAlgorithm::send) on every node, delivers messages, then
/// calls [`receive`](PnAlgorithm::receive) on every node. A node halts by
/// returning `Some(output)`; halted nodes send `Msg::default()` and no longer
/// observe incoming messages (their final output is fixed).
pub trait PnAlgorithm: Sized + Send + Sync {
    /// Message type; `Default` is the "no content" message sent by halted nodes.
    type Msg: Clone + Default + Send + Sync + MessageSize + 'static;
    /// Per-node local input (e.g. the node weight; ids for non-anonymous baselines).
    type Input: Clone + Sync;
    /// Per-node output (e.g. cover membership plus incident packing values).
    type Output: Clone + Send + Sync + Debug;
    /// Global configuration known to all nodes (e.g. Δ and W; never n).
    type Config: Sync;

    /// Creates the initial state of a node with `degree` ports.
    fn init(cfg: &Self::Config, degree: usize, input: &Self::Input) -> Self;

    /// Writes this round's outgoing messages (one per port) into `out`.
    /// `out.len() == degree`; entries are pre-filled with `Msg::default()`.
    fn send(&self, cfg: &Self::Config, round: u64, out: &mut [Self::Msg]);

    /// `Some(m)` when this round's [`send`](PnAlgorithm::send) would write
    /// `m` on every port. The engine then stores `m` once for the node
    /// instead of once per port; receivers see exactly what `send` would
    /// have delivered, and the [`Trace`](crate::engine::Trace) still counts
    /// `degree` messages of `m`'s size. `send` must stay correct for every
    /// round (the asynchronous runtime calls only `send`). The default,
    /// `None`, sends per port.
    fn send_uniform(&self, cfg: &Self::Config, round: u64) -> Option<Self::Msg> {
        let _ = (cfg, round);
        None
    }

    /// Consumes this round's incoming messages (one per port, same indexing
    /// as `send`; references into the engine's delivery buffer, so large
    /// messages are not cloned on delivery). Returning `Some` halts the node
    /// with that output.
    fn receive(
        &mut self,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&Self::Msg],
    ) -> Option<Self::Output>;
}

/// A deterministic synchronous algorithm in the **broadcast model**.
///
/// Strictly weaker than the port-numbering model: one outgoing message per
/// round, and incoming messages arrive as a canonically sorted multiset.
pub trait BcastAlgorithm: Sized + Send + Sync {
    /// Message type; `Ord` is required so the engine can canonicalise the
    /// incoming multiset (sender obliviousness is enforced, not assumed), and
    /// `Hash`, which must agree with `Eq`, lets it deduplicate a round's
    /// messages before sorting them.
    type Msg: Clone + Default + Ord + Hash + Send + Sync + MessageSize + 'static;
    /// Per-node local input.
    type Input: Clone + Sync;
    /// Per-node output.
    type Output: Clone + Send + Sync + Debug;
    /// Global configuration known to all nodes.
    type Config: Sync;

    /// Creates the initial state of a node with the given degree.
    fn init(cfg: &Self::Config, degree: usize, input: &Self::Input) -> Self;

    /// Produces this round's broadcast message.
    fn send(&self, cfg: &Self::Config, round: u64) -> Self::Msg;

    /// Whether this node reads its incoming multiset in `round`, asked of
    /// the node's state before that round's
    /// [`receive`](BcastAlgorithm::receive). When it answers `false` the
    /// engine gathers nothing for the node and hands `receive` an empty
    /// slice instead of the multiset, so `false` is allowed only where
    /// `receive` leaves the same state and returns the same output given
    /// `&[]` as given the real multiset (typically: a round in which the
    /// node's role ignores what it hears). `receive` must stay correct on
    /// the real multiset in every round (the asynchronous runtime always
    /// delivers it). The default, `true`, always gathers.
    fn listens(&self, cfg: &Self::Config, round: u64) -> bool {
        let _ = (cfg, round);
        true
    }

    /// Consumes the sorted multiset of incoming messages. Returning `Some`
    /// halts the node with that output.
    fn receive(
        &mut self,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&Self::Msg],
    ) -> Option<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes() {
        assert_eq!(().approx_bits(), 0);
        assert_eq!(true.approx_bits(), 1);
        assert_eq!(0u64.approx_bits(), 64);
        assert_eq!(0u32.approx_bits(), 32);
        assert_eq!(Some(1u8).approx_bits(), 9);
        assert_eq!(None::<u8>.approx_bits(), 1);
        assert_eq!(vec![1u16, 2, 3].approx_bits(), 64 + 48);
        assert_eq!((1u8, 2u8).approx_bits(), 16);
        assert_eq!((1u8, 2u8, true).approx_bits(), 17);
    }

    #[test]
    fn fixed_bits_agree_with_approx_bits() {
        assert_eq!(<() as MessageSize>::FIXED_BITS, Some(0));
        assert_eq!(<bool as MessageSize>::FIXED_BITS, Some(1));
        assert_eq!(<u64 as MessageSize>::FIXED_BITS, Some(64));
        assert_eq!(<(u8, u16) as MessageSize>::FIXED_BITS, Some(24));
        assert_eq!(<(u8, bool, u32) as MessageSize>::FIXED_BITS, Some(41));
        // Variable-size types must keep the None default — a wrong Some
        // here would silently corrupt the Trace bit accounting.
        assert_eq!(<Option<u8> as MessageSize>::FIXED_BITS, None);
        assert_eq!(<Vec<u8> as MessageSize>::FIXED_BITS, None);
        assert_eq!(<(u8, Vec<u8>) as MessageSize>::FIXED_BITS, None);
    }
}
