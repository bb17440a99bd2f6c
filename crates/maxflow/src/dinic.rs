//! Dinic's blocking-flow maximum flow algorithm.

use crate::network::FlowNetwork;

/// Capacities below this threshold are treated as exhausted, which keeps the
/// algorithm robust with floating-point capacities.
const EPS: f64 = 1e-9;

/// Computes the maximum flow from `source` to `sink` with Dinic's algorithm.
///
/// The network is mutated in place (flow is recorded on the residual arcs);
/// call [`FlowNetwork::reset`] to reuse it. Returns the total flow value.
///
/// Complexity: `O(V² · E)` in general, much faster in practice; on unit
/// networks it is `O(E · √V)`.
pub fn dinic(net: &mut FlowNetwork, source: usize, sink: usize) -> f64 {
    assert!(source < net.node_count(), "source out of range");
    assert!(sink < net.node_count(), "sink out of range");
    if source == sink {
        return 0.0;
    }
    let n = net.node_count();
    let mut total = 0.0;
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];
    loop {
        // BFS to build the level graph.
        level.iter_mut().for_each(|l| *l = -1);
        level[source] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &a in net.adjacency(v) {
                let to = net.arc_to(a);
                if net.arc_cap(a) > EPS && level[to] < 0 {
                    level[to] = level[v] + 1;
                    queue.push_back(to);
                }
            }
        }
        if level[sink] < 0 {
            break;
        }
        // DFS blocking flow.
        iter.iter_mut().for_each(|i| *i = 0);
        loop {
            let pushed = dfs(net, source, sink, f64::INFINITY, &level, &mut iter);
            if pushed <= EPS {
                break;
            }
            total += pushed;
        }
    }
    total
}

/// Iterative DFS that pushes one augmenting path of the level graph.
fn dfs(
    net: &mut FlowNetwork,
    source: usize,
    sink: usize,
    _limit: f64,
    level: &[i32],
    iter: &mut [usize],
) -> f64 {
    // Path of (node, arc chosen from node).
    let mut path: Vec<usize> = Vec::new();
    let mut current = source;
    loop {
        if current == sink {
            // Bottleneck along the recorded arc path.
            let mut bottleneck = f64::INFINITY;
            for &a in &path {
                bottleneck = bottleneck.min(net.arc_cap(a));
            }
            for &a in &path {
                net.push(a, bottleneck);
            }
            return bottleneck;
        }
        let adjacency_len = net.adjacency(current).len();
        let mut advanced = false;
        while iter[current] < adjacency_len {
            let a = net.adjacency(current)[iter[current]];
            let to = net.arc_to(a);
            if net.arc_cap(a) > EPS && level[to] == level[current] + 1 {
                path.push(a);
                current = to;
                advanced = true;
                break;
            }
            iter[current] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: retreat.
        if current == source {
            return 0.0;
        }
        let a = path
            .pop()
            .expect("non-source dead end must have a parent arc");
        // Find the node we came from: the residual companion's target.
        let parent = net.arc_to(a ^ 1);
        iter[parent] += 1;
        current = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Edmonds–Karp (BFS augmenting paths between distinct nodes): the
    /// independent reference Dinic is checked against on random cyclic
    /// networks.
    fn edmonds_karp(net: &mut FlowNetwork, source: usize, sink: usize) -> f64 {
        let n = net.node_count();
        let mut total = 0.0;
        loop {
            // BFS recording the arc used to reach every node.
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut visited = vec![false; n];
            visited[source] = true;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(source);
            'bfs: while let Some(v) = queue.pop_front() {
                for &a in net.adjacency(v) {
                    let to = net.arc_to(a);
                    if !visited[to] && net.arc_cap(a) > EPS {
                        visited[to] = true;
                        pred[to] = Some(a);
                        if to == sink {
                            break 'bfs;
                        }
                        queue.push_back(to);
                    }
                }
            }
            if !visited[sink] {
                break;
            }
            // Bottleneck along the path.
            let mut bottleneck = f64::INFINITY;
            let mut v = sink;
            while v != source {
                let a = pred[v].expect("path reconstruction");
                bottleneck = bottleneck.min(net.arc_cap(a));
                v = net.arc_to(a ^ 1);
            }
            // Apply.
            let mut v = sink;
            while v != source {
                let a = pred[v].expect("path reconstruction");
                net.push(a, bottleneck);
                v = net.arc_to(a ^ 1);
            }
            total += bottleneck;
        }
        total
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::with_nodes(2);
        net.add_arc(0, 1, 7.5);
        assert_close(dinic(&mut net, 0, 1), 7.5);
    }

    #[test]
    fn series_takes_the_minimum() {
        let mut net = FlowNetwork::with_nodes(3);
        net.add_arc(0, 1, 4.0);
        net.add_arc(1, 2, 9.0);
        assert_close(dinic(&mut net, 0, 2), 4.0);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut net = FlowNetwork::with_nodes(4);
        net.add_arc(0, 1, 3.0);
        net.add_arc(1, 3, 3.0);
        net.add_arc(0, 2, 2.0);
        net.add_arc(2, 3, 5.0);
        assert_close(dinic(&mut net, 0, 3), 5.0);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1: max flow 23.
        let mut net = FlowNetwork::with_nodes(6);
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        net.add_arc(s, v1, 16.0);
        net.add_arc(s, v2, 13.0);
        net.add_arc(v1, v3, 12.0);
        net.add_arc(v2, v1, 4.0);
        net.add_arc(v2, v4, 14.0);
        net.add_arc(v3, v2, 9.0);
        net.add_arc(v3, t, 20.0);
        net.add_arc(v4, v3, 7.0);
        net.add_arc(v4, t, 4.0);
        assert_close(dinic(&mut net, s, t), 23.0);
    }

    #[test]
    fn requires_residual_edges_to_reroute() {
        // Without residual arcs, a greedy routing through the middle edge
        // gets stuck at 1; the true max flow is 2.
        let mut net = FlowNetwork::with_nodes(4);
        net.add_arc(0, 1, 1.0);
        net.add_arc(0, 2, 1.0);
        net.add_arc(1, 2, 1.0);
        net.add_arc(1, 3, 1.0);
        net.add_arc(2, 3, 1.0);
        assert_close(dinic(&mut net, 0, 3), 2.0);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::with_nodes(4);
        net.add_arc(0, 1, 5.0);
        net.add_arc(2, 3, 5.0);
        assert_close(dinic(&mut net, 0, 3), 0.0);
    }

    #[test]
    fn source_equals_sink() {
        let mut net = FlowNetwork::with_nodes(2);
        net.add_arc(0, 1, 5.0);
        assert_close(dinic(&mut net, 0, 0), 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::with_nodes(4);
        net.add_arc(0, 1, 0.25);
        net.add_arc(0, 2, 0.5);
        net.add_arc(1, 3, 1.0);
        net.add_arc(2, 3, 0.3);
        assert_close(dinic(&mut net, 0, 3), 0.55);
    }

    #[test]
    fn flow_is_recorded_on_arcs() {
        let mut net = FlowNetwork::with_nodes(3);
        let a = net.add_arc(0, 1, 4.0);
        let b = net.add_arc(1, 2, 2.0);
        dinic(&mut net, 0, 2);
        assert_close(net.flow(a), 2.0);
        assert_close(net.flow(b), 2.0);
        assert_close(net.residual(a), 2.0);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut net = FlowNetwork::with_nodes(3);
        net.add_arc(0, 1, 4.0);
        net.add_arc(1, 2, 2.0);
        assert_close(dinic(&mut net, 0, 2), 2.0);
        net.reset();
        assert_close(dinic(&mut net, 0, 2), 2.0);
    }

    #[test]
    fn larger_layered_network() {
        // A 3-layer network where each layer halves the available capacity.
        let mut net = FlowNetwork::with_nodes(2 + 3 + 3);
        let s = 0;
        let t = 1;
        let a: Vec<usize> = vec![2, 3, 4];
        let b: Vec<usize> = vec![5, 6, 7];
        for &x in &a {
            net.add_arc(s, x, 10.0);
        }
        for &x in &a {
            for &y in &b {
                net.add_arc(x, y, 2.0);
            }
        }
        for &y in &b {
            net.add_arc(y, t, 5.0);
        }
        // Bottleneck: 3 middle nodes * min(10, 3*2)=6 but outgoing capacity
        // to t is 5 per node -> total 15.
        assert_close(dinic(&mut net, s, t), 15.0);
    }

    #[test]
    fn agrees_with_dinic_on_random_networks() {
        // Deterministic pseudo-random layered networks.
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for trial in 0..20 {
            let n = 6 + (trial % 5);
            let mut a = FlowNetwork::with_nodes(n);
            let mut b = FlowNetwork::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && next() < 0.4 {
                        let cap = (next() * 10.0 * 100.0).round() / 100.0;
                        a.add_arc(u, v, cap);
                        b.add_arc(u, v, cap);
                    }
                }
            }
            let f1 = edmonds_karp(&mut a, 0, n - 1);
            let f2 = dinic(&mut b, 0, n - 1);
            assert!(
                (f1 - f2).abs() < 1e-6,
                "trial {trial}: EK {f1} vs Dinic {f2}"
            );
        }
    }
}
