//! Batched multi-instance execution: map one function over many independent
//! instances across **one** pool of worker threads.
//!
//! The paper's algorithms finish in rounds that depend only on local
//! parameters (Δ, W), never on n — so the interesting workloads are *many*
//! instances, not one giant one. [`BatchRunner::map`] is the entry point
//! that `anonet-core`'s `_many` runners, the bench binaries and the
//! service's solve pipeline funnel through: the workers of this OS thread's
//! persistent [`RoundPool`](crate::pool::RoundPool) (lent by
//! [`pool::with_threads`], so repeated batches reuse the spawned threads)
//! pull the items through [`pool::map_with`], and each worker recycles one
//! state — typically an [`EngineScratch`](crate::engine::EngineScratch)
//! driving single-threaded engines — across the items it pulls. All
//! parallelism is across instances, where it is embarrassingly effective.

use crate::pool;

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

    /// Maps `f` over `items` on this runner's pool; `results[i]` corresponds
    /// to `items[i]`. Items are pulled one at a time, so stragglers do not
    /// serialise the pool. Each worker builds one `S` — typically an
    /// [`EngineScratch`](crate::engine::EngineScratch) — and recycles it
    /// across the items it pulls, so every engine after a worker's first
    /// reuses the previous one's allocations.
    pub fn map<T: Sync, S: Default, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T, &mut S) -> R + Sync,
    ) -> Vec<R> {
        // The pool is cached at the machine-derived width, *not*
        // min(width, items): coupling it to the batch size would respawn the
        // threads whenever consecutive batches differ in size, while an
        // excess worker merely finds the items gone. A batch of at most one
        // item needs no pool at all.
        let threads = if items.len() <= 1 { 1 } else { self.threads };
        pool::with_threads(threads, |pool| {
            pool::map_with(pool, items.iter().collect(), S::default, |scratch, _, item| {
                f(item, scratch)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::PortNumbering;
    use crate::engine::{run_engine_scratch, run_pn, EngineScratch, RunResult, SimError};
    use crate::graph::Graph;
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

    /// One instance: graph, inputs, gossip budget, round limit.
    type Job<'a> = (&'a Graph, &'a [u64], u64, u64);

    fn run_job(
        &(g, inputs, budget, limit): &Job<'_>,
        scratch: &mut EngineScratch<MaxGossip, PortNumbering>,
    ) -> Result<RunResult<u64>, SimError> {
        run_engine_scratch::<MaxGossip, PortNumbering>(g, &budget, inputs, limit, scratch)
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
        let jobs: Vec<Job<'_>> =
            graphs.iter().zip(&input_sets).map(|(g, inp)| (g, &inp[..], cfg, 10)).collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = BatchRunner::new(threads).map(&jobs, run_job);
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
        let jobs: Vec<Job<'_>> = vec![
            (&g_ok, &inputs_ok, fast, 10),
            (&g_slow, &inputs_slow, slow, 10), // hits the round limit
        ];
        let res = BatchRunner::new(2).map(&jobs, run_job);
        assert!(res[0].is_ok());
        assert_eq!(
            res[1].as_ref().unwrap_err(),
            &SimError::RoundLimit { limit: 10, halted: 0, n: 6 }
        );
    }

    #[test]
    fn empty_batch() {
        let jobs: Vec<Job<'_>> = Vec::new();
        assert!(BatchRunner::new(4).map(&jobs, run_job).is_empty());
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
        let jobs: Vec<Job<'_>> =
            graphs.iter().zip(&input_sets).map(|(g, inp)| (g, &inp[..], cfg, 10)).collect();
        let runner = BatchRunner::new(0);
        for repeat in 0..3 {
            let batch = runner.map(&jobs, run_job);
            for ((g, inp), res) in graphs.iter().zip(&input_sets).zip(batch) {
                let solo = run_pn::<MaxGossip>(g, &cfg, inp, 10).unwrap();
                let res = res.unwrap();
                assert_eq!(res.outputs, solo.outputs, "repeat={repeat}");
                assert_eq!(res.trace, solo.trace, "repeat={repeat}");
            }
        }
    }
}
