//! The self-stabilization transformer of Lenzen–Suomela–Wattenhofer
//! ("Local algorithms: self-stabilization on speed", SSS 2009) — the
//! "standard technique" the paper's §1.5 cites for converting its strictly
//! local algorithms into self-stabilizing ones.
//!
//! A T-round synchronous algorithm A becomes self-stabilizing by **full
//! layered recomputation**: each node stores the T+1 states
//! `L₀, …, L_T` of A (layer t = state after t rounds) and, on *every* round,
//! (a) sends, per port, the vector of A's T per-round messages — message t
//! derived from layer t−1 — and (b) recomputes every layer from scratch:
//! `L₀ = init(input)` and `L_t = receive(L_{t−1}, round t, neighbour
//! messages t)`. The input is assumed incorruptible (it is the node's local
//! configuration); everything else may be arbitrarily corrupted, and layer t
//! re-stabilizes t rounds after the faults stop — so outputs are correct
//! after at most **T+1 fault-free rounds**, matching the \[23\] bound.

use anonet_sim::{MessageSize, PnAlgorithm, PnEngine};

/// Configuration: the inner algorithm's config, its fixed round count T, and
/// the simulation horizon (the transformer itself runs forever; the horizon
/// only tells the harness when to stop).
#[derive(Clone, Debug)]
pub struct SelfStabConfig<C> {
    /// Configuration of the transformed algorithm.
    pub inner: C,
    /// The inner algorithm's fixed schedule length T.
    pub t_rounds: u64,
    /// Rounds to simulate before halting the harness.
    pub horizon: u64,
}

/// A stack of per-round messages: entry t−1 is A's round-t message.
#[derive(Clone, Debug, Default)]
pub struct LayeredMsg<M>(pub Vec<M>);

impl<M: MessageSize> MessageSize for LayeredMsg<M> {
    fn approx_bits(&self) -> u64 {
        64 + self.0.iter().map(MessageSize::approx_bits).sum::<u64>()
    }
}

/// A node of the transformed algorithm: the T+1 layered states of A plus the
/// current (possibly not yet stabilized) output.
#[derive(Clone, Debug)]
pub struct SelfStabNode<A: PnAlgorithm> {
    /// `layers[t]` = A's state after t rounds. `layers\[0\]` is rebuilt from
    /// the input every round, so it needs no storage — kept for clarity.
    pub layers: Vec<A>,
    /// The input (assumed incorruptible local configuration).
    input: A::Input,
    degree: usize,
    /// Output of the last layer's receive — the node's current answer.
    pub current_output: Option<A::Output>,
}

impl<A: PnAlgorithm + Clone> PnAlgorithm for SelfStabNode<A>
where
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq,
{
    type Msg = LayeredMsg<A::Msg>;
    type Input = A::Input;
    type Output = A::Output;
    type Config = SelfStabConfig<A::Config>;

    fn init(cfg: &Self::Config, degree: usize, input: &A::Input) -> Self {
        // Well-initialised start: layer t = A after t rounds would require
        // communication; instead start every layer at init. This *is* a
        // corrupted configuration — the whole point — and it stabilizes
        // within T+1 rounds like any other.
        let layers = (0..=cfg.t_rounds).map(|_| A::init(&cfg.inner, degree, input)).collect();
        SelfStabNode { layers, input: input.clone(), degree, current_output: None }
    }

    fn send(&self, cfg: &Self::Config, _round: u64, out: &mut [LayeredMsg<A::Msg>]) {
        let t_rounds = cfg.t_rounds as usize;
        // Build the per-round message matrix: row t from layer t.
        let mut rows: Vec<Vec<A::Msg>> = Vec::with_capacity(t_rounds);
        for t in 0..t_rounds {
            let mut row = vec![A::Msg::default(); self.degree];
            self.layers[t].send(&cfg.inner, t as u64 + 1, &mut row);
            rows.push(row);
        }
        for (p, slot) in out.iter_mut().enumerate() {
            slot.0 = rows.iter().map(|row| row[p].clone()).collect();
        }
    }

    fn receive(
        &mut self,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&LayeredMsg<A::Msg>],
    ) -> Option<A::Output> {
        let t_rounds = cfg.t_rounds as usize;
        // Full recomputation, bottom-up.
        self.layers[0] = A::init(&cfg.inner, self.degree, &self.input);
        let default_msg = A::Msg::default();
        let mut scratch: Vec<&A::Msg> = Vec::with_capacity(self.degree);
        for t in 0..t_rounds {
            let mut next = self.layers[t].clone();
            scratch.clear();
            for m in incoming {
                // A corrupted neighbour may have sent a short stack; treat
                // missing entries as default messages (they will be correct
                // next round).
                scratch.push(m.0.get(t).unwrap_or(&default_msg));
            }
            let out = next.receive(&cfg.inner, t as u64 + 1, &scratch);
            if t + 1 == t_rounds {
                self.current_output = out;
            }
            self.layers[t + 1] = next;
        }
        // The transformer never halts on its own; the harness horizon does.
        (round >= cfg.horizon)
            .then(|| self.current_output.clone().expect("inner algorithm outputs at round T"))
    }
}

/// Drives a transformed algorithm with fault injection and records, per
/// round, which nodes already produce the given reference output.
///
/// Fault injection uses the unified engine's `states_mut` hook (the one
/// white-box mutation point of `anonet_sim::Engine`, shared by both
/// delivery models). Transformed nodes never halt before the horizon, so
/// the engine's halted-frontier skipping never hides a corrupted node from
/// the sweep.
pub struct SelfStabHarness<'g, A: PnAlgorithm + Clone>
where
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq,
    A::Config: 'g,
    A: 'g,
{
    engine: PnEngine<'g, SelfStabNode<A>>,
}

impl<'g, A: PnAlgorithm + Clone + 'g> SelfStabHarness<'g, A>
where
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Clone,
    A::Config: 'g,
{
    /// Builds the harness.
    pub fn new(
        graph: &'g anonet_sim::Graph,
        cfg: &'g SelfStabConfig<A::Config>,
        inputs: &[A::Input],
    ) -> Self {
        let engine = PnEngine::<SelfStabNode<A>>::new(graph, cfg, inputs, None)
            .expect("input length matches");
        SelfStabHarness { engine }
    }

    /// Runs one round; `mutator` may corrupt arbitrary node states *before*
    /// the round executes (the adversary strikes between rounds).
    pub fn step_with_faults(&mut self, mutator: impl FnOnce(&mut [SelfStabNode<A>])) {
        mutator(self.engine.states_mut());
        self.engine.step();
    }

    /// Current per-node outputs (None while a node has not yet computed one).
    pub fn outputs(&self) -> Vec<Option<A::Output>> {
        self.engine.states().iter().map(|s| s.current_output.clone()).collect()
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.engine.round()
    }
}
