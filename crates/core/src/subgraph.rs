//! Subgraph extraction strategies (paper §III-B).
//!
//! Each ISDC iteration picks `m` combinational subgraphs from the previous
//! schedule and sends them downstream. Two orthogonal choices govern the
//! pick:
//!
//! - **Scoring** ([`ScoringStrategy`]): *delay-driven* ranks candidate paths
//!   by their estimated critical-path delay; *fanout-driven* ranks by Eq. 3,
//!   preferring wide registers with few consumers (cheap to reposition).
//! - **Shape** ([`ShapeStrategy`]): send the *path* itself, its fan-in
//!   *cone* (everything feeding the path's endpoint within the stage), or a
//!   *window* (the union of cones whose leaf sets overlap the endpoint's).
//!
//! A candidate path is a connected same-stage pair `(vi, vj)` where `vi`
//! starts the stage's combinational logic (all operands arrive from
//! registers or primary inputs) and `vj` produces a pipeline register (its
//! value crosses a stage boundary).

use crate::delay::DelayMatrix;
use crate::schedule::Schedule;
use isdc_ir::{Graph, NodeId};
use isdc_techlib::Picos;
use std::collections::BTreeSet;

/// How candidate paths are ranked (paper §III-B1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoringStrategy {
    /// Rank by estimated critical-path delay (the baseline the paper argues
    /// against).
    DelayDriven,
    /// Rank by Eq. 3: register width over register fanout, with the
    /// normalized delay as tie-breaker.
    FanoutDriven,
}

/// How a chosen path is expanded before evaluation (paper §III-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeStrategy {
    /// The nodes of the critical path only.
    Path,
    /// The register producer's in-stage transitive fan-in cone.
    Cone,
    /// The union of same-stage cones sharing leaves with the chosen cone.
    Window,
}

/// Extraction configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExtractionConfig {
    /// Path ranking strategy.
    pub scoring: ScoringStrategy,
    /// Path expansion strategy.
    pub shape: ShapeStrategy,
    /// Number of subgraphs per iteration (the paper's `m`, typically 4-16).
    pub max_subgraphs: usize,
    /// Target clock period, used by Eq. 3's normalized-delay tie-breaker.
    pub clock_period_ps: Picos,
}

/// One extracted subgraph, ready for downstream evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Subgraph {
    /// Member node ids, ascending and deduplicated.
    pub nodes: Vec<NodeId>,
    /// The scored path `(vi, vj)` this subgraph was grown from.
    pub seed: (NodeId, NodeId),
    /// The score that selected it (higher = extracted earlier).
    pub score: f64,
}

/// Extracts up to `config.max_subgraphs` subgraphs from the previous
/// schedule, ranked by the configured scoring strategy.
///
/// Distinctness is by node set: two paths expanding to the same cone yield
/// one subgraph.
pub fn extract_subgraphs(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    config: &ExtractionConfig,
) -> Vec<Subgraph> {
    let mut candidates = candidate_paths(graph, schedule, delays, config);
    // Highest score first; ties broken deterministically by the pair ids.
    candidates.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    let mut out: Vec<Subgraph> = Vec::new();
    let mut seen: Vec<BTreeSet<NodeId>> = Vec::new();
    for (vi, vj, score) in candidates {
        if out.len() >= config.max_subgraphs {
            break;
        }
        let nodes = match config.shape {
            ShapeStrategy::Path => critical_path_nodes(graph, schedule, delays, vi, vj),
            ShapeStrategy::Cone => cone_of(graph, schedule, vj),
            ShapeStrategy::Window => window_of(graph, schedule, vj),
        };
        if nodes.is_empty() {
            continue;
        }
        let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
        if seen.contains(&set) {
            continue;
        }
        seen.push(set);
        out.push(Subgraph { nodes, seed: (vi, vj), score });
    }
    out
}

/// Enumerates scored candidate paths `(vi, vj, score)`.
fn candidate_paths(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    config: &ExtractionConfig,
) -> Vec<(NodeId, NodeId, f64)> {
    let mut out = Vec::new();
    for stage in 0..schedule.num_stages() {
        let members = schedule.stage_members(stage);
        let starts: Vec<NodeId> =
            members.iter().copied().filter(|&v| starts_stage(graph, schedule, v)).collect();
        let ends: Vec<NodeId> =
            members.iter().copied().filter(|&v| produces_register(graph, schedule, v)).collect();
        for &vi in &starts {
            for &vj in &ends {
                let Some(d) = delays.get(vi, vj) else { continue };
                let score = match config.scoring {
                    ScoringStrategy::DelayDriven => d,
                    ScoringStrategy::FanoutDriven => {
                        fanout_score(graph, schedule, vj, d, config.clock_period_ps)
                    }
                };
                out.push((vi, vj, score));
            }
        }
    }
    out
}

/// Eq. 3: `(bit_count(r) + D/Tclk) / (num_users(r) + 1)`.
///
/// Our IR is single-result, so the paper's sum over a node's `k` results has
/// exactly one term. `num_users` counts the register's consumers — users
/// scheduled in later stages, the ones that read the register.
fn fanout_score(
    graph: &Graph,
    schedule: &Schedule,
    vj: NodeId,
    path_delay: Picos,
    clock_period_ps: Picos,
) -> f64 {
    let width = graph.node(vj).width as f64;
    let register_users =
        graph.users(vj).iter().filter(|&&u| schedule.cycle(u) > schedule.cycle(vj)).count();
    let tie_breaker = (path_delay / clock_period_ps).min(0.999_999);
    (width + tie_breaker) / (register_users as f64 + 1.0)
}

/// True if every operand of `v` arrives from an earlier stage (or `v` has no
/// operands): `v` starts the stage's combinational logic.
fn starts_stage(graph: &Graph, schedule: &Schedule, v: NodeId) -> bool {
    let node = graph.node(v);
    node.operands.iter().all(|&p| schedule.cycle(p) < schedule.cycle(v)) || node.operands.is_empty()
}

/// True if `v`'s value crosses a stage boundary (it feeds a pipeline
/// register): some user is in a later stage, or `v` is a graph output not in
/// the final stage.
fn produces_register(graph: &Graph, schedule: &Schedule, v: NodeId) -> bool {
    schedule.last_use_cycle(graph, v) > schedule.cycle(v)
}

/// Nodes on the maximum-delay `vi -> vj` path within the stage, by DP over
/// individual node delays with predecessor backtracking.
fn critical_path_nodes(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    vi: NodeId,
    vj: NodeId,
) -> Vec<NodeId> {
    let stage = schedule.cycle(vj);
    let mut best: Vec<f64> = vec![f64::NEG_INFINITY; graph.len()];
    let mut pred: Vec<Option<NodeId>> = vec![None; graph.len()];
    best[vi.index()] = delays.node_delay(vi);
    for v in graph.node_ids() {
        if v <= vi || schedule.cycle(v) != stage {
            continue;
        }
        for &p in &graph.node(v).operands {
            if schedule.cycle(p) != stage || best[p.index()] == f64::NEG_INFINITY {
                continue;
            }
            let cand = best[p.index()] + delays.node_delay(v);
            if cand > best[v.index()] {
                best[v.index()] = cand;
                pred[v.index()] = Some(p);
            }
        }
    }
    if best[vj.index()] == f64::NEG_INFINITY {
        return vec![];
    }
    let mut nodes = vec![vj];
    let mut cur = vj;
    while let Some(p) = pred[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    nodes
}

/// The in-stage transitive fan-in cone of `root`: DFS through operands until
/// a stage boundary or primary input (paper §III-B2).
pub fn cone_of(graph: &Graph, schedule: &Schedule, root: NodeId) -> Vec<NodeId> {
    let stage = schedule.cycle(root);
    let mut seen = BTreeSet::new();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        for &p in &graph.node(v).operands {
            if schedule.cycle(p) == stage {
                stack.push(p);
            }
        }
    }
    seen.into_iter().collect()
}

/// The leaves of a cone: out-of-stage operands feeding it (register or
/// primary-input bits).
fn cone_leaves(graph: &Graph, schedule: &Schedule, cone: &[NodeId]) -> BTreeSet<NodeId> {
    let stage = cone.first().map(|&v| schedule.cycle(v));
    let members: BTreeSet<NodeId> = cone.iter().copied().collect();
    let mut leaves = BTreeSet::new();
    for &v in cone {
        for &p in &graph.node(v).operands {
            if Some(schedule.cycle(p)) != stage || !members.contains(&p) {
                leaves.insert(p);
            }
        }
    }
    leaves
}

/// The window grown from `root`'s cone: union of same-stage cones (of other
/// register producers) whose leaf sets overlap the root cone's leaves.
pub fn window_of(graph: &Graph, schedule: &Schedule, root: NodeId) -> Vec<NodeId> {
    let base = cone_of(graph, schedule, root);
    let base_leaves = cone_leaves(graph, schedule, &base);
    if base_leaves.is_empty() {
        return base;
    }
    let stage = schedule.cycle(root);
    let mut merged: BTreeSet<NodeId> = base.iter().copied().collect();
    for v in schedule.stage_members(stage) {
        if v == root || !produces_register(graph, schedule, v) {
            continue;
        }
        let cone = cone_of(graph, schedule, v);
        let leaves = cone_leaves(graph, schedule, &cone);
        if leaves.intersection(&base_leaves).next().is_some() {
            merged.extend(cone);
        }
    }
    merged.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;

    /// Two stages: stage 0 computes x = a+b, y = x*c, w = a^b;
    /// stage 1 consumes y and w.
    fn setup() -> (Graph, Schedule, DelayMatrix, [NodeId; 7]) {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let c = g.param("c", 8);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        let y = g.binary(OpKind::Mul, x, c).unwrap();
        let w = g.binary(OpKind::Xor, a, b).unwrap();
        let z = g.binary(OpKind::Add, y, w).unwrap();
        g.set_output(z);
        let schedule = Schedule::new(vec![0, 0, 0, 0, 0, 0, 1]);
        let delays = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 100.0, 400.0, 60.0, 100.0]);
        (g, schedule, delays, [a, b, c, x, y, w, z])
    }

    fn config(scoring: ScoringStrategy, shape: ShapeStrategy) -> ExtractionConfig {
        ExtractionConfig { scoring, shape, max_subgraphs: 8, clock_period_ps: 1000.0 }
    }

    /// Several scored paths can expand to one cone or window, but
    /// extraction returns each node set once. The pipeline's `Dedupe`
    /// stage, and any per-iteration memo keyed by node set, rely on this.
    #[test]
    fn extraction_never_returns_two_equal_node_sets() {
        let (g, s, d, _) = setup();
        for scoring in [ScoringStrategy::DelayDriven, ScoringStrategy::FanoutDriven] {
            for shape in [ShapeStrategy::Path, ShapeStrategy::Cone, ShapeStrategy::Window] {
                let config = config(scoring, shape);
                let subs = extract_subgraphs(&g, &s, &d, &config);
                let sets: BTreeSet<BTreeSet<NodeId>> =
                    subs.iter().map(|sub| sub.nodes.iter().copied().collect()).collect();
                assert_eq!(sets.len(), subs.len(), "{scoring:?}/{shape:?}: repeated node set");
                if shape == ShapeStrategy::Cone {
                    // More candidate paths than distinct cones, below the
                    // budget: the repeats were really there and dropped.
                    assert!(subs.len() < config.max_subgraphs);
                    assert!(candidate_paths(&g, &s, &d, &config).len() > subs.len());
                }
            }
        }
    }

    #[test]
    fn delay_driven_prefers_long_path() {
        let (g, s, d, [a, _, _, _, y, _, _]) = setup();
        let subs = extract_subgraphs(
            &g,
            &s,
            &d,
            &config(ScoringStrategy::DelayDriven, ShapeStrategy::Path),
        );
        assert!(!subs.is_empty());
        // The top subgraph's seed must be the a->y (500ps) path.
        assert_eq!(subs[0].seed.1, y);
        assert_eq!(subs[0].seed.0, a);
        assert!(subs[0].score >= 500.0 - 1e-9);
    }

    #[test]
    fn fanout_driven_prefers_single_consumer_registers() {
        // y and w are both registers consumed once by z; both get the same
        // user count, so the wider/faster-tie wins. Give w two consumers to
        // push its score down.
        let (mut g, _, _, [a, b, _, _, y, w, _z]) = setup();
        let extra = g.binary(OpKind::Or, w, y).unwrap();
        g.set_name(extra, "extra");
        g.set_output(extra);
        let schedule = Schedule::new(vec![0, 0, 0, 0, 0, 0, 1, 1]);
        let delays = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 100.0, 400.0, 60.0, 100.0, 50.0]);
        let cfg = config(ScoringStrategy::FanoutDriven, ShapeStrategy::Path);
        let subs = extract_subgraphs(&g, &schedule, &delays, &cfg);
        assert!(!subs.is_empty());
        // y has 2 register consumers (z, extra), w has 2 as well; equal-width
        // so scores tie on users — instead check Eq.3 directly:
        let sy = fanout_score(&g, &schedule, y, 500.0, 1000.0);
        let sw = fanout_score(&g, &schedule, w, 60.0, 1000.0);
        assert!(sy > sw, "higher tie-breaker wins at equal width/users: {sy} vs {sw}");
        let _ = (a, b);
    }

    #[test]
    fn eq3_penalizes_fanout() {
        let (g, s, _, [_, _, _, _, y, _, _]) = setup();
        let one_user = fanout_score(&g, &s, y, 100.0, 1000.0);
        // Same node, pretend more users by computing with a denominator of 3:
        // construct the expectation manually.
        let width = g.node(y).width as f64;
        let expected = (width + 0.1) / 2.0;
        assert!((one_user - expected).abs() < 1e-9);
        assert!(one_user < width + 0.1); // divided by (users + 1) >= 2
    }

    #[test]
    fn path_shape_is_a_connected_chain() {
        let (g, s, d, [a, _, _, x, y, _, _]) = setup();
        let subs = extract_subgraphs(
            &g,
            &s,
            &d,
            &config(ScoringStrategy::DelayDriven, ShapeStrategy::Path),
        );
        let top = &subs[0];
        assert_eq!(top.nodes, vec![a, x, y]);
    }

    #[test]
    fn cone_covers_in_stage_fanin() {
        let (g, s, _, [a, b, c, x, y, _, _]) = setup();
        let cone = cone_of(&g, &s, y);
        // y's in-stage fan-in: params are stage 0 too, so the cone reaches
        // them: {a, b, c, x, y}.
        assert_eq!(cone, vec![a, b, c, x, y]);
    }

    #[test]
    fn cone_stops_at_stage_boundary() {
        let (g, _, _, [a, b, c, x, y, w, z]) = setup();
        // Re-schedule: params in stage 0, x/w in stage 1, y in stage 2, z in 3.
        let s = Schedule::new(vec![0, 0, 0, 1, 2, 1, 3]);
        let cone = cone_of(&g, &s, y);
        assert_eq!(cone, vec![y], "x and c are in earlier stages");
        let _ = (a, b, c, x, w, z);
    }

    #[test]
    fn window_merges_overlapping_cones() {
        let (g, _, _, [a, b, c, x, y, w, z]) = setup();
        // Schedule so that x and w are both register producers in stage 1
        // with overlapping leaves {a, b}: x feeds y (stage 2), w feeds z
        // (stage 3).
        let s = Schedule::new(vec![0, 0, 0, 1, 2, 1, 3]);
        let win_x = window_of(&g, &s, x);
        assert!(win_x.contains(&w), "w's cone shares leaves a, b with x's");
        assert!(win_x.contains(&x));
        assert!(!win_x.contains(&y), "window stays within the stage");
        let _ = (a, b, c, z);
    }

    #[test]
    fn window_without_leaves_is_the_cone() {
        let (g, s, _, [_, _, _, _, y, _, _]) = setup();
        // Params are in-stage, so y's cone has no out-of-stage leaves and
        // the window cannot grow.
        assert_eq!(window_of(&g, &s, y), cone_of(&g, &s, y));
    }

    #[test]
    fn window_is_superset_of_cone() {
        let (g, _, _, _) = setup();
        let s2 = Schedule::new(vec![0, 0, 0, 1, 1, 1, 1]);
        for v in g.node_ids() {
            let cone: BTreeSet<NodeId> = cone_of(&g, &s2, v).into_iter().collect();
            let win: BTreeSet<NodeId> = window_of(&g, &s2, v).into_iter().collect();
            assert!(win.is_superset(&cone), "window({v}) must contain cone({v})");
        }
    }

    #[test]
    fn extraction_respects_limit_and_dedups() {
        let (g, s, d, _) = setup();
        let mut cfg = config(ScoringStrategy::DelayDriven, ShapeStrategy::Cone);
        cfg.max_subgraphs = 1;
        let subs = extract_subgraphs(&g, &s, &d, &cfg);
        assert_eq!(subs.len(), 1);
        cfg.max_subgraphs = 100;
        let subs = extract_subgraphs(&g, &s, &d, &cfg);
        let sets: Vec<BTreeSet<NodeId>> =
            subs.iter().map(|s| s.nodes.iter().copied().collect()).collect();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert_ne!(a, b, "duplicate subgraphs extracted");
            }
        }
    }

    #[test]
    fn single_stage_schedule_yields_no_candidates() {
        let (g, _, d, _) = setup();
        let s = Schedule::new(vec![0; 7]);
        let subs = extract_subgraphs(
            &g,
            &s,
            &d,
            &config(ScoringStrategy::FanoutDriven, ShapeStrategy::Window),
        );
        assert!(subs.is_empty(), "no registers, nothing to reposition");
    }
}
