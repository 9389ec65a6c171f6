//! Batched multi-instance execution: run many independent (graph, config,
//! inputs) instances across **one** pool of worker threads.
//!
//! The paper's algorithms finish in rounds that depend only on local
//! parameters (Δ, W), never on n — so the interesting workloads are *many*
//! instances, not one giant one. This module is the "serve many requests"
//! entry point the bench binaries, the figure/table experiments, and
//! `anonet-core`'s `_many` runners funnel through: the workers of this OS
//! thread's persistent [`RoundPool`](crate::pool::RoundPool) (shared with
//! the engine machinery via [`pool::with_local_pool`], so repeated batches
//! reuse the spawned threads instead of nesting fresh scoped spawns) pull
//! jobs through [`pool::map_with`] and run each instance on a
//! single-threaded engine: all parallelism is across instances, where it is
//! embarrassingly effective, and each worker recycles one [`EngineScratch`]
//! across its jobs (the `map_with` per-worker state).

use crate::delivery::{Broadcast, Delivery, PortNumbering};
use crate::engine::{run_engine_scratch, EngineScratch, RunResult, SimError};
use crate::graph::Graph;
use crate::pool;
use std::marker::PhantomData;

/// One (graph, config, inputs) instance of a batch, under delivery model `D`.
///
/// Use the [`PnJob`] / [`BcastJob`] aliases to name the two models.
pub struct Job<'a, A, D: Delivery<A>> {
    /// Communication graph.
    pub graph: &'a Graph,
    /// Global configuration for this instance.
    pub cfg: &'a D::Config,
    /// Per-node inputs, indexed by node id.
    pub inputs: &'a [D::Input],
    /// Round limit for this instance.
    pub max_rounds: u64,
    _model: PhantomData<fn() -> (A, D)>,
}

impl<'a, A, D: Delivery<A>> Job<'a, A, D> {
    /// Describes one instance.
    pub fn new(
        graph: &'a Graph,
        cfg: &'a D::Config,
        inputs: &'a [D::Input],
        max_rounds: u64,
    ) -> Self {
        Job { graph, cfg, inputs, max_rounds, _model: PhantomData }
    }
}

/// A port-numbering batch job.
pub type PnJob<'a, A> = Job<'a, A, PortNumbering>;

/// A broadcast batch job.
pub type BcastJob<'a, A> = Job<'a, A, Broadcast>;

/// Executes batches of independent instances on a fixed-size worker pool.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with `threads` pool workers (1 = run the batch inline,
    /// `0` = auto: the machine's available parallelism; requests beyond the
    /// hardware are capped, logged once per process).
    pub fn new(threads: usize) -> Self {
        BatchRunner { threads }
    }

    /// Runs every job to completion; `results[i]` corresponds to `jobs[i]`.
    ///
    /// Jobs are pulled off a shared counter, so stragglers do not serialise
    /// the pool; each instance runs on a single-threaded engine.
    pub fn run<A: Send + Sync, D: Delivery<A>>(
        &self,
        jobs: &[Job<'_, A, D>],
    ) -> Vec<Result<RunResult<D::Output>, SimError>> {
        self.map(jobs, |job, scratch: &mut EngineScratch<A, D>| {
            run_engine_scratch::<A, D>(job.graph, job.cfg, job.inputs, job.max_rounds, 1, scratch)
        })
    }

    /// Maps `f` over `items` on this runner's pool; `results[i]` corresponds
    /// to `items[i]`. Each worker builds one `S` — typically an
    /// [`EngineScratch`] — and recycles it across the items it pulls, so
    /// every engine after a worker's first reuses the previous one's
    /// allocations. The per-instance runners of `anonet-core` fan out
    /// through here.
    pub fn map<T: Sync, S: Default, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T, &mut S) -> R + Sync,
    ) -> Vec<R> {
        let run = |pool: Option<&mut pool::RoundPool>| {
            pool::map_with(pool, items.iter().collect(), S::default, |scratch, _, item| {
                f(item, scratch)
            })
        };
        let width = pool::clamp_width(pool::resolve_threads(self.threads));
        if width <= 1 || items.len() <= 1 {
            return run(None);
        }
        // Fan out over this thread's persistent round pool — spawned once
        // per OS thread and reused across batches. The pool is cached at the
        // machine-derived width, *not* min(width, items): coupling it to the
        // batch size would respawn the threads whenever consecutive batches
        // differ in size, while an excess worker merely exits on its first
        // pull.
        pool::with_local_pool(width, |p| run(Some(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_pn;
    use crate::model::PnAlgorithm;

    /// Gossip the running maximum of inputs; halt at the config round.
    struct MaxGossip {
        best: u64,
        budget: u64,
    }

    impl PnAlgorithm for MaxGossip {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Config = u64;

        fn init(cfg: &u64, _degree: usize, input: &u64) -> Self {
            MaxGossip { best: *input, budget: *cfg }
        }
        fn send(&self, _cfg: &u64, _round: u64, out: &mut [u64]) {
            for o in out {
                *o = self.best;
            }
        }
        fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
            for &&m in incoming {
                self.best = self.best.max(m);
            }
            (round >= self.budget).then_some(self.best)
        }
    }

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn batch_matches_individual_runs() {
        let graphs: Vec<Graph> = [4usize, 9, 17, 33, 3].iter().map(|&n| cycle(n)).collect();
        let input_sets: Vec<Vec<u64>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (0..g.n() as u64).map(|v| v * (i as u64 + 1)).collect())
            .collect();
        let cfg = 3u64;
        let jobs: Vec<PnJob<'_, MaxGossip>> =
            graphs.iter().zip(&input_sets).map(|(g, inp)| Job::new(g, &cfg, inp, 10)).collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = BatchRunner::new(threads).run(&jobs);
            assert_eq!(batch.len(), jobs.len());
            for ((g, inp), res) in graphs.iter().zip(&input_sets).zip(batch) {
                let solo = run_pn::<MaxGossip>(g, &cfg, inp, 10).unwrap();
                let res = res.unwrap();
                assert_eq!(res.outputs, solo.outputs, "threads={threads}");
                assert_eq!(res.trace, solo.trace, "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_reports_per_instance_errors() {
        let g_ok = cycle(4);
        let g_slow = cycle(6);
        let inputs_ok: Vec<u64> = (0..4).collect();
        let inputs_slow: Vec<u64> = (0..6).collect();
        let (fast, slow) = (1u64, 50u64);
        let jobs: Vec<PnJob<'_, MaxGossip>> = vec![
            Job::new(&g_ok, &fast, &inputs_ok, 10),
            Job::new(&g_slow, &slow, &inputs_slow, 10), // hits the round limit
        ];
        let res = BatchRunner::new(2).run(&jobs);
        assert!(res[0].is_ok());
        assert_eq!(
            res[1].as_ref().unwrap_err(),
            &SimError::RoundLimit { limit: 10, halted: 0, n: 6 }
        );
    }

    #[test]
    fn empty_batch() {
        let jobs: Vec<PnJob<'_, MaxGossip>> = Vec::new();
        assert!(BatchRunner::new(4).run(&jobs).is_empty());
    }

    #[test]
    fn auto_threads_and_repeated_batches_match_inline_runs() {
        // `threads: 0` = auto, and running the same runner repeatedly goes
        // through the thread-local pool reuse path — results must stay
        // bit-identical to inline runs every time.
        let graphs: Vec<Graph> = [5usize, 12, 7, 20].iter().map(|&n| cycle(n)).collect();
        let input_sets: Vec<Vec<u64>> =
            graphs.iter().map(|g| (0..g.n() as u64).map(|v| v * 3 + 1).collect()).collect();
        let cfg = 2u64;
        let jobs: Vec<PnJob<'_, MaxGossip>> =
            graphs.iter().zip(&input_sets).map(|(g, inp)| Job::new(g, &cfg, inp, 10)).collect();
        let runner = BatchRunner::new(0);
        for repeat in 0..3 {
            let batch = runner.run(&jobs);
            for ((g, inp), res) in graphs.iter().zip(&input_sets).zip(batch) {
                let solo = run_pn::<MaxGossip>(g, &cfg, inp, 10).unwrap();
                let res = res.unwrap();
                assert_eq!(res.outputs, solo.outputs, "repeat={repeat}");
                assert_eq!(res.trace, solo.trace, "repeat={repeat}");
            }
        }
    }
}
