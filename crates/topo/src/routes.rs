//! Topology-derived routing: shortest paths compiled into per-node
//! DIR-24-8 FIBs.
//!
//! Every node `i` owns the /24 prefix `10.(i >> 8).(i & 255).0/24`.
//! Routes are min-hop with a **lowest-neighbor-id tie-break**, computed
//! by one BFS per destination — a pure function of the graph, so every
//! run (and every worker) derives the identical forwarding state. The
//! next-hop tables are then compiled into one [`Dir248Fib`] per node:
//! the same flat lookup structure the single-router ingress path uses,
//! so network-level forwarding exercises the production FIB code. The
//! node prefixes are consecutive /24s, so each FIB's base window holds
//! N entries and N per-node instances cost O(N²) words in total.

use crate::topology::Topology;
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{Dir248Fib, Fib};

/// The /24 prefix owned by `node` (valid for node ids < 2¹⁶).
pub fn node_prefix(node: u32) -> Ipv4Prefix {
    assert!(node < 1 << 16, "node id exceeds the 10.x.y/24 plan");
    Ipv4Prefix::new(
        Ipv4Addr((10 << 24) | ((node >> 8) << 16) | ((node & 0xff) << 8)),
        24,
    )
}

/// A host address inside `node`'s prefix (low byte from `host`).
pub fn node_addr(node: u32, host: u64) -> Ipv4Addr {
    Ipv4Addr(node_prefix(node).addr().0 | (host as u32 & 0xff))
}

/// Dense next-hop tables: `next_port[n][d]` is the egress port of
/// node `n` for traffic to node `d` (`n`'s host port when `n == d`).
#[derive(Debug, Clone)]
pub struct RouteTables {
    /// Per-node, per-destination egress ports.
    pub next_port: Vec<Vec<u16>>,
    /// Links on the longest min-hop route (the graph's diameter): no
    /// packet following these tables forwards more often than this.
    pub max_hops: u32,
}

impl RouteTables {
    /// Derive min-hop routes for `topo` (BFS per destination,
    /// lowest-id tie-break).
    pub fn derive(topo: &Topology) -> RouteTables {
        let n = topo.n_nodes();
        let mut next_port = vec![vec![0u16; n]; n];
        let mut max_hops = 0;
        let mut dist = vec![0u32; n];
        let mut queue = std::collections::VecDeque::new();
        for dst in 0..n as u32 {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst as usize] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(v) = queue.pop_front() {
                for &w in &topo.adj[v as usize] {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[v as usize] + 1;
                        max_hops = max_hops.max(dist[w as usize]);
                        queue.push_back(w);
                    }
                }
            }
            for node in 0..n as u32 {
                if node == dst {
                    next_port[node as usize][dst as usize] = topo.host_port(node);
                    continue;
                }
                assert!(dist[node as usize] != u32::MAX, "unreachable node");
                // Sorted adjacency + strict `<` ⇒ lowest-id tie-break.
                let mut best: Option<(u32, u16)> = None;
                for (p, &nb) in topo.adj[node as usize].iter().enumerate() {
                    let d = dist[nb as usize];
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, p as u16));
                    }
                }
                let (bd, bp) = best.expect("connected graph");
                debug_assert_eq!(bd, dist[node as usize] - 1, "min-hop step");
                next_port[node as usize][dst as usize] = bp;
            }
        }
        RouteTables {
            next_port,
            max_hops,
        }
    }

    /// Hop count from `src` to `dst` following the tables (for tests
    /// and latency sanity bounds).
    pub fn hops(&self, topo: &Topology, src: u32, dst: u32) -> usize {
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let p = self.next_port[at as usize][dst as usize];
            at = topo.adj[at as usize][p as usize];
            hops += 1;
            assert!(hops <= topo.n_nodes(), "routing loop {src}->{dst}");
        }
        hops
    }
}

/// Compile the route tables into one DIR-24-8 FIB per node: prefix of
/// every destination node → egress port.
pub fn compile_fibs(topo: &Topology, routes: &RouteTables) -> Vec<Dir248Fib> {
    let n = topo.n_nodes();
    (0..n)
        .map(|node| {
            let mut fib = Dir248Fib::new();
            for dst in 0..n {
                fib.insert(node_prefix(dst as u32), routes.next_port[node][dst]);
            }
            fib
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    #[test]
    fn prefixes_are_disjoint_per_node() {
        let a = node_prefix(3);
        let b = node_prefix(259); // 10.1.3.0/24 vs 10.0.3.0/24
        assert_ne!(a, b);
        assert!(a.contains(node_addr(3, 77)));
        assert!(!a.contains(node_addr(259, 77)));
    }

    #[test]
    fn routes_terminate_min_hop_on_all_topologies() {
        for kind in [
            TopologyKind::FatTree { k: 4 },
            TopologyKind::Mesh2D { rows: 4, cols: 4 },
            TopologyKind::BarabasiAlbert {
                n: 32,
                m: 2,
                seed: 9,
            },
        ] {
            let topo = Topology::build(kind);
            let routes = RouteTables::derive(&topo);
            let n = topo.n_nodes() as u32;
            for s in 0..n {
                for d in 0..n {
                    let h = routes.hops(&topo, s, d);
                    if s == d {
                        assert_eq!(h, 0);
                    } else {
                        assert!(h >= 1 && h <= topo.n_nodes());
                    }
                }
            }
            let longest = (0..n)
                .flat_map(|s| (0..n).map(move |d| (s, d)))
                .map(|(s, d)| routes.hops(&topo, s, d))
                .max();
            assert_eq!(longest, Some(routes.max_hops as usize), "{kind:?}");
            // Mesh distances are Manhattan; spot-check corners.
            if kind == (TopologyKind::Mesh2D { rows: 4, cols: 4 }) {
                assert_eq!(routes.hops(&topo, 0, 15), 6);
                assert_eq!(routes.max_hops, 6);
            }
        }
    }

    #[test]
    fn fibs_agree_with_tables() {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 3, cols: 3 });
        let routes = RouteTables::derive(&topo);
        let fibs = compile_fibs(&topo, &routes);
        for (node, fib) in fibs.iter().enumerate() {
            assert_eq!(fib.len(), topo.n_nodes());
            for dst in 0..topo.n_nodes() as u32 {
                assert_eq!(
                    fib.lookup(node_addr(dst, 42)),
                    Some(routes.next_port[node][dst as usize]),
                );
            }
        }
    }
}
