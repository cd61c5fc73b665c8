//! Bench-side delay oracles: a call counter for untraced runs, and a traced
//! composition of the downstream flow for the layer-attributed run.

use crate::sys;
use crate::trace::Recorder;
use isdc_ir::{Graph, NodeId};
use isdc_netlist::lower_subgraph;
use isdc_synth::{sta, DelayOracle, DelayReport, SynthScript};
use isdc_techlib::{Picos, TechLibrary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts calls into the wrapped oracle (one relaxed add per call, against
/// a synthesis run of hundreds of microseconds).
pub struct CountingOracle<'a, O: ?Sized> {
    inner: &'a O,
    calls: AtomicU64,
}

impl<'a, O: DelayOracle + ?Sized> CountingOracle<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        Self { inner, calls: AtomicU64::new(0) }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<O: DelayOracle + ?Sized> DelayOracle for CountingOracle<'_, O> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(graph, members)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// CPU times of threads that called a [`TracedOracle`] with worker clocks
/// on, pushed as each thread exits.
static WORKER_CPU_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

struct ExitClock;

impl Drop for ExitClock {
    fn drop(&mut self) {
        if let Ok(mut cpu) = WORKER_CPU_NS.lock() {
            cpu.push(sys::thread_cpu_ns());
        }
    }
}

thread_local! {
    static EXIT_CLOCK: ExitClock = const { ExitClock };
}

/// Takes the CPU times recorded so far, waiting up to a second for
/// `expected` threads: a scoped thread's exit hooks may still be running
/// when the scope has already returned.
pub fn take_worker_cpu(expected: usize) -> Vec<u64> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    loop {
        {
            let mut cpu = WORKER_CPU_NS.lock().expect("no exit hook panics");
            if cpu.len() >= expected || std::time::Instant::now() >= deadline {
                return std::mem::take(&mut *cpu);
            }
        }
        std::thread::yield_now();
    }
}

/// The synthesis oracle's flow (`lower_subgraph`, the `resyn` script,
/// `sta::analyze`) with a span around each step. Reports are identical to
/// `SynthesisOracle::new(lib)`'s.
pub struct TracedOracle<'r> {
    rec: &'r Recorder,
    lib: TechLibrary,
    script: SynthScript,
    name: String,
    /// Record each calling thread's CPU time when it exits (batch workers).
    worker_clocks: bool,
    calls: AtomicU64,
    aig_ands: AtomicU64,
}

impl<'r> TracedOracle<'r> {
    pub fn new(rec: &'r Recorder, lib: TechLibrary, name: &str, worker_clocks: bool) -> Self {
        Self {
            rec,
            lib,
            script: SynthScript::resyn(),
            name: name.to_string(),
            worker_clocks,
            calls: AtomicU64::new(0),
            aig_ands: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// AND nodes of every optimized netlist timed so far.
    pub fn aig_ands(&self) -> u64 {
        self.aig_ands.load(Ordering::Relaxed)
    }
}

impl DelayOracle for TracedOracle<'_> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        if self.worker_clocks {
            EXIT_CLOCK.with(|_| {});
        }
        let _span = self.rec.span("oracle");
        self.calls.fetch_add(1, Ordering::Relaxed);
        let lowered = {
            let _s = self.rec.span("lower");
            lower_subgraph(graph, members)
        };
        let optimized = {
            let _s = self.rec.span("synth");
            self.script.run(&lowered.aig)
        };
        let report = {
            let _s = self.rec.span("sta");
            sta::analyze(&optimized, &self.lib)
        };
        self.aig_ands.fetch_add(report.and_count as u64, Ordering::Relaxed);
        DelayReport {
            delay_ps: report.critical_path_ps,
            aig_depth: report.depth,
            and_count: report.and_count,
            output_arrivals: worst_per_node(&lowered.output_map, &report.output_arrivals_ps),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Per-bit output arrivals folded to the worst arrival per IR node, in
/// first-output order (what `SynthesisOracle` reports).
fn worst_per_node(output_map: &[(NodeId, u32)], arrivals: &[Picos]) -> Vec<(NodeId, Picos)> {
    let mut per_node: Vec<(NodeId, Picos)> = Vec::new();
    for (&(id, _bit), &a) in output_map.iter().zip(arrivals) {
        match per_node.iter_mut().find(|(n, _)| *n == id) {
            Some((_, worst)) => *worst = worst.max(a),
            None => per_node.push((id, a)),
        }
    }
    per_node
}

/// Puts a `cache` span around every call into the wrapped (caching) oracle,
/// so the cache's own cost is the span's time minus the inner oracle spans.
pub struct CacheSpan<'r, O> {
    pub rec: &'r Recorder,
    pub inner: O,
}

impl<O: DelayOracle> DelayOracle for CacheSpan<'_, O> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let _span = self.rec.span("cache");
        self.inner.evaluate(graph, members)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;
    use isdc_synth::SynthesisOracle;

    #[test]
    fn traced_reports_equal_the_synthesis_oracle() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let x = g.binary(OpKind::Mul, a, b).unwrap();
        let y = g.binary(OpKind::Add, x, b).unwrap();
        g.set_output(y);
        let lib = TechLibrary::sky130();
        let reference = SynthesisOracle::new(lib.clone());
        let rec = Recorder::new();
        let traced = TracedOracle::new(&rec, lib, reference.name(), false);
        for members in [vec![x], vec![x, y], vec![y]] {
            assert_eq!(traced.evaluate(&g, &members), reference.evaluate(&g, &members));
        }
        assert_eq!(traced.name(), reference.name());
        assert_eq!(traced.calls(), 3);
        assert_eq!(rec.drain().iter().filter(|s| s.name == "oracle").count(), 3);
    }
}
