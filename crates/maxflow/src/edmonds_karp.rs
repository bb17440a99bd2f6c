//! Edmonds–Karp maximum flow (BFS augmenting paths).
//!
//! Used as an independent cross-check of [`crate::dinic()`] in tests and as the
//! baseline the paper's complexity discussion refers to (Section 4.2.1 cites
//! Edmonds–Karp for the quadratic bound on the time-expanded network).

use crate::network::FlowNetwork;

const EPS: f64 = 1e-9;

/// Computes the maximum flow from `source` to `sink` by repeatedly
/// augmenting along shortest (fewest-arc) paths.
///
/// The network is mutated in place; call [`FlowNetwork::reset`] to reuse it.
pub fn edmonds_karp(net: &mut FlowNetwork, source: usize, sink: usize) -> f64 {
    assert!(source < net.node_count(), "source out of range");
    assert!(sink < net.node_count(), "sink out of range");
    if source == sink {
        return 0.0;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::dinic;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn matches_known_values() {
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
        assert_close(edmonds_karp(&mut net, s, t), 23.0);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut net = FlowNetwork::with_nodes(3);
        net.add_arc(0, 1, 3.0);
        assert_close(edmonds_karp(&mut net, 0, 2), 0.0);
    }

    #[test]
    fn source_equals_sink_is_zero() {
        let mut net = FlowNetwork::with_nodes(1);
        assert_close(edmonds_karp(&mut net, 0, 0), 0.0);
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
