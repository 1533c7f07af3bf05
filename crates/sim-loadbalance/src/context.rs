//! The routing context: what the balancer sees when it picks a server.

use harvest_core::SimpleContext;
use serde::Serialize;

/// The decision context at request-arrival time.
///
/// Matches what Nginx can know without touching the backends: the active
/// connection count it maintains per upstream (paper §5: "Nginx and Azure
/// Front Door may know the load of each endpoint because all requests are
/// routed back through them") plus request-intrinsic attributes like the
/// URI class (Table 1: context is "request type, server load").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LbContext {
    /// Open connections per server at decision time.
    pub connections: Vec<u32>,
    /// The request's class (derived from its URI), `< num_classes`.
    pub request_class: usize,
    /// Total number of request classes in the workload.
    pub num_classes: usize,
}

impl LbContext {
    /// A single-class context (the homogeneous Fig 5 cartoon).
    pub fn single_class(connections: Vec<u32>) -> Self {
        LbContext {
            connections,
            request_class: 0,
            num_classes: 1,
        }
    }

    /// Number of routable servers.
    pub fn num_servers(&self) -> usize {
        self.connections.len()
    }

    /// The index of a least-loaded server (lowest connection count, ties to
    /// the lowest index — Nginx's `least_conn` behaviour is equivalent up
    /// to tie-breaking). Ignores the request class, which is exactly why a
    /// class-aware CB policy can beat it.
    pub fn least_loaded(&self) -> usize {
        let mut best = 0;
        for (i, &c) in self.connections.iter().enumerate() {
            if c < self.connections[best] {
                best = i;
            }
        }
        best
    }

    /// Converts to the CB context.
    ///
    /// Shared features: per-server connection counts (scaled) and the
    /// request-class one-hot. Per-action features: the candidate server's
    /// own connection count, a server-identity one-hot (so a pooled model
    /// can learn per-server base latencies), and the server-one-hot ×
    /// class-one-hot interaction terms (so it can learn per-server fast
    /// paths for specific classes).
    pub fn to_cb_context(&self) -> SimpleContext {
        let k = self.connections.len();
        let mut shared: Vec<f64> = self.connections.iter().map(|&c| c as f64 / 10.0).collect();
        for cl in 0..self.num_classes {
            shared.push(if cl == self.request_class { 1.0 } else { 0.0 });
        }
        let per_action: Vec<Vec<f64>> = self
            .connections
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut f = Vec::with_capacity(1 + k + k * self.num_classes);
                f.push(c as f64 / 10.0);
                for j in 0..k {
                    f.push(if i == j { 1.0 } else { 0.0 });
                }
                // Interaction block: server i × class of this request.
                for j in 0..k {
                    for cl in 0..self.num_classes {
                        f.push(if i == j && cl == self.request_class {
                            1.0
                        } else {
                            0.0
                        });
                    }
                }
                f
            })
            .collect();
        SimpleContext::with_action_features(shared, per_action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::Context;

    #[test]
    fn least_loaded_breaks_ties_low() {
        let ctx = LbContext::single_class(vec![3, 1, 1, 5]);
        assert_eq!(ctx.least_loaded(), 1);
        let ctx = LbContext::single_class(vec![0, 0]);
        assert_eq!(ctx.least_loaded(), 0);
    }

    #[test]
    fn cb_context_shape_single_class() {
        let ctx = LbContext::single_class(vec![10, 20]);
        let cb = ctx.to_cb_context();
        assert_eq!(cb.num_actions(), 2);
        // Shared: conns/10 then class one-hot (single class -> [1.0]).
        assert_eq!(cb.shared_features(), &[1.0, 2.0, 1.0]);
        // Action 1: own conns, identity one-hot, interaction block.
        assert_eq!(cb.action_features(1), &[2.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn cb_context_encodes_class_interactions() {
        let ctx = LbContext {
            connections: vec![0, 0],
            request_class: 1,
            num_classes: 2,
        };
        let cb = ctx.to_cb_context();
        // Shared: conns (2) + class one-hot (2).
        assert_eq!(cb.shared_features(), &[0.0, 0.0, 0.0, 1.0]);
        // Action 0 features: conn, id one-hot (2), interactions (2×2).
        // Interactions for action 0: (srv0,cl0)=0, (srv0,cl1)=1, (srv1,*)=0.
        assert_eq!(cb.action_features(0), &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(cb.action_features(1), &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }
}
