//! Global routing over the data NoC with negotiated congestion
//! (PathFinder-style, as in effcc/VPR — §5 of the paper).
//!
//! The routing graph is the PE grid with one directed channel per cardinal
//! direction per tile edge, each with capacity `fabric.tracks`. Each DFG
//! output port is one physical signal: all of its fanout branches are routed
//! as a single **Steiner tree** (greedy nearest-terminal construction) so
//! trunk wires are shared, exactly as a broadcast wire on a real tracked
//! NoC would be.
//!
//! PathFinder iterates rip-up-and-reroute with history and present-sharing
//! costs until no channel is over capacity, or fails with the residual
//! overuse count — which the auto-parallelizer treats as "PnR failed".

use crate::netlist::Netlist;
use crate::PnrError;
use nupea_fabric::{Fabric, PeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of routing.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Per routed tree: (source PE, per-terminal path depth in hops).
    pub trees: Vec<RoutedTree>,
    /// Longest source→terminal path, in hops ("maximum path delay", Fig 17).
    pub max_hops: u32,
    /// Total channel segments occupied.
    pub wire_segments: usize,
    /// PathFinder iterations used.
    pub iterations: u32,
}

/// One routed broadcast tree.
#[derive(Debug, Clone)]
pub struct RoutedTree {
    /// Source PE.
    pub src: PeId,
    /// `(terminal PE, hops from source)` for each distinct destination PE.
    pub terminals: Vec<(PeId, u32)>,
}

/// Channel occupancy grid: 4 directed channels per PE (E, W, S, N).
struct Channels {
    cols: usize,
    rows: usize,
    occupancy: Vec<u16>,
    history: Vec<f32>,
    capacity: u16,
}

const DIRS: [(isize, isize); 4] = [(0, 1), (0, -1), (1, 0), (-1, 0)];

impl Channels {
    fn new(fabric: &Fabric) -> Self {
        Channels {
            cols: fabric.cols(),
            rows: fabric.rows(),
            occupancy: vec![0; fabric.num_pes() * 4],
            history: vec![0.0; fabric.num_pes() * 4],
            capacity: fabric.tracks.max(1) as u16,
        }
    }

    #[inline]
    fn edge_id(&self, node: usize, dir: usize) -> usize {
        node * 4 + dir
    }

    #[inline]
    fn step(&self, node: usize, dir: usize) -> Option<usize> {
        let (r, c) = (node / self.cols, node % self.cols);
        let (dr, dc) = DIRS[dir];
        let nr = r as isize + dr;
        let nc = c as isize + dc;
        if nr < 0 || nc < 0 || nr >= self.rows as isize || nc >= self.cols as isize {
            None
        } else {
            Some(nr as usize * self.cols + nc as usize)
        }
    }

    fn cost(&self, e: usize, pres_fac: f32) -> f32 {
        let over = (self.occupancy[e] + 1).saturating_sub(self.capacity);
        1.0 + self.history[e] + pres_fac * f32::from(over)
    }

    fn overused(&self) -> usize {
        self.occupancy
            .iter()
            .filter(|&&o| o > self.capacity)
            .count()
    }

    fn bump_history(&mut self) {
        for (o, h) in self.occupancy.iter().zip(self.history.iter_mut()) {
            if *o > self.capacity {
                *h += 0.4;
            }
        }
    }
}

/// A signal to route: source PE and its distinct destination PEs.
struct Signal {
    src: PeId,
    dsts: Vec<PeId>,
}

/// Per-PE search state, allocated once per [`route`] call and reused by
/// every tree in every PathFinder iteration. Only the entries the last
/// search touched are reset before the next, so a tree costs what it
/// explores.
struct Search {
    dist: Vec<f32>,
    prev: Vec<(u32, u8)>,
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Hops from the source for nodes in the current tree; `u32::MAX`
    /// marks nodes outside it.
    depth: Vec<u32>,
    /// Nodes of the current tree, in insertion order.
    tree: Vec<usize>,
    /// Walk-back edges `(node, dir)` of the current attachment path.
    path: Vec<(usize, usize)>,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: vec![f32::INFINITY; n],
            prev: vec![(u32::MAX, 0); n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            depth: vec![u32::MAX; n],
            tree: Vec::new(),
            path: Vec::new(),
        }
    }

    fn add_to_tree(&mut self, node: usize, depth: u32) {
        if self.depth[node] == u32::MAX {
            self.depth[node] = depth;
            self.tree.push(node);
        }
    }

    fn clear_tree(&mut self) {
        for &t in &self.tree {
            self.depth[t] = u32::MAX;
        }
        self.tree.clear();
    }

    fn clear_dijkstra(&mut self) {
        for &t in &self.touched {
            self.dist[t] = f32::INFINITY;
            self.prev[t] = (u32::MAX, 0);
        }
        self.touched.clear();
        self.heap.clear();
    }
}

/// Route all placed signals.
///
/// # Errors
///
/// Returns [`PnrError::Unroutable`] if congestion cannot be resolved within
/// the iteration budget.
pub fn route(fabric: &Fabric, netlist: &Netlist, pe_of: &[PeId]) -> Result<Routing, PnrError> {
    // Group fanout branches by driving (node, output port): sorted and
    // deduplicated, each run of equal keys is one signal.
    let mut branches: Vec<(u32, u8, u32)> = netlist
        .nets
        .iter()
        .filter_map(|net| {
            let src_pe = pe_of[net.src.index()];
            let dst_pe = pe_of[net.dst.index()];
            (src_pe != dst_pe).then_some((net.src.0, net.src_port, dst_pe.0))
        })
        .collect();
    branches.sort_unstable();
    branches.dedup();
    let signals: Vec<Signal> = branches
        .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .map(|group| {
            let src = pe_of[group[0].0 as usize];
            let mut dsts: Vec<PeId> = group.iter().map(|&(_, _, d)| PeId(d)).collect();
            // Nearest terminals first: short trunks get built early.
            dsts.sort_by_key(|&d| (fabric.dist(src, d), d.0));
            Signal { src, dsts }
        })
        .collect();

    let mut ch = Channels::new(fabric);
    let mut search = Search::new(fabric.num_pes());
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); signals.len()];
    let mut trees: Vec<RoutedTree> = signals
        .iter()
        .map(|s| RoutedTree {
            src: s.src,
            terminals: Vec::with_capacity(s.dsts.len()),
        })
        .collect();
    let max_iters = 90;
    let mut pres_fac = 0.6f32;

    for iter in 0..max_iters {
        for ((sig, tree_edges), tree) in signals.iter().zip(&mut edges).zip(&mut trees) {
            for &e in tree_edges.iter() {
                ch.occupancy[e] -= 1;
            }
            route_tree(&ch, sig, pres_fac, &mut search, tree_edges, tree);
            for &e in tree_edges.iter() {
                ch.occupancy[e] += 1;
            }
        }
        if ch.overused() == 0 {
            let max_hops = trees
                .iter()
                .flat_map(|t| t.terminals.iter().map(|&(_, h)| h))
                .max()
                .unwrap_or(0);
            let wire_segments = edges.iter().map(Vec::len).sum();
            return Ok(Routing {
                trees,
                max_hops,
                wire_segments,
                iterations: iter + 1,
            });
        }
        ch.bump_history();
        pres_fac *= 1.5;
    }
    Err(PnrError::Unroutable {
        overused: ch.overused(),
    })
}

/// Greedy Steiner tree: terminals are attached one at a time via
/// multi-source Dijkstra from the current tree. Overwrites `tree_edges`
/// and `tree.terminals`.
///
/// The heap pops in the total order `(cost, node)`, so the order in which
/// tree nodes are seeded does not affect the route.
fn route_tree(
    ch: &Channels,
    sig: &Signal,
    pres_fac: f32,
    s: &mut Search,
    tree_edges: &mut Vec<usize>,
    tree: &mut RoutedTree,
) {
    tree_edges.clear();
    tree.terminals.clear();
    s.clear_tree();
    s.add_to_tree(sig.src.index(), 0);

    for &dst in &sig.dsts {
        let goal = dst.index();
        if s.depth[goal] != u32::MAX {
            tree.terminals.push((dst, s.depth[goal]));
            continue;
        }
        // Multi-source Dijkstra seeded from every tree node.
        s.clear_dijkstra();
        // Seed every tree node, biased by its depth so attachments prefer
        // shallow points — keeps source→sink delay (and thus the clock
        // divider) close to what a delay-aware track router would achieve.
        for &node in &s.tree {
            let depth = s.depth[node];
            let seed_cost = 0.35 * f32::from(u16::try_from(depth).unwrap_or(u16::MAX));
            s.dist[node] = seed_cost;
            s.touched.push(node);
            s.heap
                .push(Reverse(((seed_cost * 1024.0) as u64, node as u32)));
        }
        while let Some(Reverse((dcost, u))) = s.heap.pop() {
            let u = u as usize;
            if (dcost as f32) / 1024.0 > s.dist[u] + 1e-3 {
                continue;
            }
            if u == goal {
                break;
            }
            for dir in 0..4 {
                let Some(v) = ch.step(u, dir) else { continue };
                let e = ch.edge_id(u, dir);
                let nd = s.dist[u] + ch.cost(e, pres_fac);
                if nd + 1e-6 < s.dist[v] {
                    if s.dist[v].is_infinite() {
                        s.touched.push(v);
                    }
                    s.dist[v] = nd;
                    s.prev[v] = (u as u32, dir as u8);
                    s.heap.push(Reverse(((nd * 1024.0) as u64, v as u32)));
                }
            }
        }
        // Walk back to the attachment point, then extend the tree forward
        // from it by popping the path.
        let mut cur = goal;
        while s.prev[cur].0 != u32::MAX {
            let (p, dir) = s.prev[cur];
            s.path.push((p as usize, dir as usize));
            cur = p as usize;
        }
        debug_assert!(s.depth[cur] != u32::MAX, "walkback must land on the tree");
        let mut depth = s.depth[cur];
        let mut node = cur;
        while let Some((p, dir)) = s.path.pop() {
            debug_assert_eq!(p, node);
            tree_edges.push(ch.edge_id(p, dir));
            node = ch.step(p, dir).expect("in-bounds step");
            depth += 1;
            s.add_to_tree(node, depth);
        }
        tree.terminals.push((dst, s.depth[goal]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use nupea_ir::graph::Dfg;
    use nupea_ir::op::{BinOpKind, Op};

    fn chain_graph(n: usize) -> Dfg {
        let mut g = Dfg::new("chain");
        let (p, _) = g.add_param("x");
        let mut prev = p;
        for _ in 0..n {
            let add = g.add_node(Op::BinOp(BinOpKind::Add));
            g.connect(prev, 0, add, 0);
            g.set_imm(add, 1, 1);
            prev = add;
        }
        let (s, _) = g.add_sink("out");
        g.connect(prev, 0, s, 0);
        g
    }

    #[test]
    fn routes_a_simple_chain_with_unit_hops() {
        let fabric = Fabric::monaco(8, 8, 2).unwrap();
        let g = chain_graph(6);
        let nl = Netlist::from_dfg(&g);
        let pe_of: Vec<PeId> = (0..nl.len()).map(|i| fabric.at(0, i % 8)).collect();
        let r = route(&fabric, &nl, &pe_of).unwrap();
        assert_eq!(r.max_hops, 1);
    }

    #[test]
    fn same_pe_nets_cost_nothing() {
        let fabric = Fabric::monaco(8, 8, 2).unwrap();
        let g = chain_graph(2);
        let nl = Netlist::from_dfg(&g);
        let pe_of: Vec<PeId> = vec![fabric.at(0, 0); nl.len()];
        let r = route(&fabric, &nl, &pe_of).unwrap();
        assert!(r.trees.is_empty());
        assert_eq!(r.max_hops, 0);
        assert_eq!(r.wire_segments, 0);
    }

    #[test]
    fn broadcast_fanout_shares_trunk_wires() {
        // One source broadcasting to 8 consumers in a line: tree wiring uses
        // at most 8 segments (a straight trunk), not 1+2+..+8.
        let fabric = Fabric::monaco(4, 12, 3).unwrap();
        let mut g = Dfg::new("bcast");
        let (p, _) = g.add_param("x");
        for i in 0..8 {
            let (s, _) = g.add_sink(format!("s{i}"));
            g.connect(p, 0, s, 0);
        }
        let nl = Netlist::from_dfg(&g);
        let mut pe_of = vec![fabric.at(0, 0); nl.len()];
        for (i, cell) in nl.cells.iter().enumerate() {
            if let Op::Sink(sid) = g.node(cell.node).op {
                pe_of[i] = fabric.at(0, 1 + sid.0 as usize);
            }
        }
        let r = route(&fabric, &nl, &pe_of).unwrap();
        assert_eq!(r.wire_segments, 8, "trunk is shared");
        assert_eq!(r.max_hops, 8);
    }

    #[test]
    fn congestion_forces_detours_or_fails() {
        let mut fabric = Fabric::monaco(4, 4, 1).unwrap();
        fabric.tracks = 1;
        let mut g = Dfg::new("parallel");
        // 6 distinct sources each feeding a sink across the fabric.
        let mut pairs = Vec::new();
        for i in 0..6 {
            let (p, _) = g.add_param(format!("p{i}"));
            let (s, _) = g.add_sink(format!("s{i}"));
            g.connect(p, 0, s, 0);
            pairs.push((p, s));
        }
        let nl = Netlist::from_dfg(&g);
        let mut pe_of = vec![fabric.at(0, 0); nl.len()];
        for (i, (p, s)) in pairs.iter().enumerate() {
            pe_of[p.index()] = fabric.at(i % 4, 0);
            pe_of[s.index()] = fabric.at((i + 1) % 4, 3);
        }
        match route(&fabric, &nl, &pe_of) {
            Ok(r) => assert!(r.max_hops >= 4, "detours expected, got {}", r.max_hops),
            Err(PnrError::Unroutable { overused }) => assert!(overused > 0),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
