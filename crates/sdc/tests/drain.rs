//! The batched SSP drain on a bulk retarget: every timing bound relaxed
//! one notch at once, which is what a clock-period step does to the warm
//! engine. The batched multi-source drain must reproduce the serial
//! reference drain's solution bit for bit while running fewer Dijkstra
//! passes. Both drains' work counters are pinned exactly: they are
//! deterministic, so any change to either drain's search shows here
//! instead of hiding in wall-clock noise.

use isdc_sdc::{DifferenceSystem, DrainStats, IncrementalSolver, VarId};

/// A retarget-shaped difference system: a dependency chain of 0-bounds plus
/// sliding-window timing constraints that force spacing (Eq. 2 at a tight
/// clock), under a many-sourced register-style objective (`-1` on the first
/// half, `+1` on the second), so the dual routes `n/2` units of flow over
/// the timing arcs. Returns the system, its weights and the timing arcs.
fn drain_workload(n: usize) -> (DifferenceSystem, Vec<i64>, Vec<usize>) {
    assert!(n.is_multiple_of(2), "balanced halves need an even n");
    let mut sys = DifferenceSystem::new(n);
    for i in 1..n {
        sys.add_constraint(VarId(i as u32 - 1), VarId(i as u32), 0);
    }
    let mut timing = Vec::new();
    for w in [2usize, 3, 5] {
        for i in 0..n - w {
            timing.push(sys.add_constraint(
                VarId(i as u32),
                VarId((i + w) as u32),
                -((w - 1) as i64),
            ));
        }
    }
    let weights: Vec<i64> = (0..n).map(|i| if i < n / 2 { -1 } else { 1 }).collect();
    (sys, weights, timing)
}

/// Solves the workload, relaxes every timing bound one notch, re-solves
/// warm with the batched and the reference drain, and returns both drains'
/// stats after checking that their solutions are bit-identical.
fn retarget_drains(n: usize) -> (DrainStats, DrainStats) {
    let (sys, weights, timing) = drain_workload(n);
    let mut primed = IncrementalSolver::new(sys, weights).expect("balanced");
    primed.solve().expect("solvable");
    let relax = |solver: &mut IncrementalSolver| {
        for &ci in &timing {
            let b = solver.bound(ci);
            solver.update_bound(ci, (b + 1).min(0));
        }
    };
    let mut batched = primed.clone();
    relax(&mut batched);
    let batched_solution = batched.solve().expect("solvable");
    let mut serial = primed;
    serial.use_reference_drain(true);
    relax(&mut serial);
    let serial_solution = serial.solve().expect("solvable");
    assert_eq!(batched_solution, serial_solution, "n={n}: drains must be bit-identical");
    assert!(batched.last_solve_was_warm() && serial.last_solve_was_warm(), "n={n}: warm");
    (batched.last_drain_stats(), serial.last_drain_stats())
}

#[test]
fn bulk_retarget_batched_drain_matches_reference_with_fewer_dijkstras() {
    for (n, batched_golden, serial_golden) in [
        (
            200,
            DrainStats { dijkstras: 96, nodes_settled: 4286, paths: 100, flow_pushed: 100 },
            DrainStats { dijkstras: 100, nodes_settled: 6760, paths: 100, flow_pushed: 100 },
        ),
        (
            600,
            DrainStats { dijkstras: 296, nodes_settled: 36886, paths: 300, flow_pushed: 300 },
            DrainStats { dijkstras: 300, nodes_settled: 61080, paths: 300, flow_pushed: 300 },
        ),
    ] {
        let (batched, serial) = retarget_drains(n);
        assert_eq!(batched, batched_golden, "n={n}: batched drain work changed");
        assert_eq!(serial, serial_golden, "n={n}: reference drain work changed");
        assert!(
            batched.dijkstras < serial.dijkstras,
            "n={n}: batching must save Dijkstra passes: {batched:?} vs {serial:?}"
        );
    }
}
