//! Consistent-hash request steering — the per-core RSS model one
//! level up.
//!
//! Each server owns a fixed set of virtual nodes on a 64-bit hash
//! ring. A flow hashes to a ring position and walks clockwise to the
//! first *healthy* server, so removing (ejecting) one server only
//! re-steers the flows that hashed to its arcs — everyone else keeps
//! their affinity, exactly the property consistent hashing buys a
//! real front-end tier. All hashing is FNV-1a over fixed-width
//! little-endian bytes: a pure integer function, byte-identical on
//! every platform.

/// Virtual nodes per server. 64 arcs per server keeps the worst-case
/// share imbalance in the few-percent range for single-digit fleets.
const VNODES: u64 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Hashes a flow (plus its connection incarnation) to a ring key. A
/// new incarnation models a reconnect: the new connection gets a
/// fresh source port, so it lands on a fresh ring position. The fleet
/// keeps every flow at incarnation 0.
pub fn flow_key(flow: u64, incarnation: u64) -> u64 {
    fnv1a(&[flow, incarnation])
}

/// A consistent-hash ring over `servers` backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(ring position, server)`, sorted by position.
    points: Vec<(u64, usize)>,
    servers: usize,
}

impl HashRing {
    /// A ring with [`VNODES`] virtual nodes per server. A zero-server
    /// ring is valid but steers everything to server 0 (callers
    /// validate fleet sizes before building one).
    pub fn new(servers: usize) -> Self {
        let mut points = Vec::with_capacity(servers * VNODES as usize);
        for server in 0..servers {
            for replica in 0..VNODES {
                points.push((fnv1a(&[server as u64, replica, 0x5e1f]), server));
            }
        }
        points.sort_unstable();
        HashRing { points, servers }
    }

    /// Number of backends on the ring.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The first healthy server clockwise from `key`. Falls back to
    /// the raw ring successor when every server is unhealthy (keep
    /// steering; the dispatch path will fail and count the loss).
    pub fn steer(&self, key: u64, healthy: &[bool]) -> usize {
        self.walk(key, healthy, None)
    }

    /// The first healthy server clockwise from `key` that is not
    /// `exclude` — the hedge/failover target. Falls back to `exclude`
    /// itself when it is the only server left.
    pub fn successor(&self, key: u64, exclude: usize, healthy: &[bool]) -> usize {
        self.walk(key, healthy, Some(exclude))
    }

    fn walk(&self, key: u64, healthy: &[bool], exclude: Option<usize>) -> usize {
        if self.points.is_empty() {
            return 0;
        }
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        let n = self.points.len();
        let mut fallback = None;
        for i in 0..n {
            let (_, server) = self.points[(start + i) % n];
            if Some(server) == exclude {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(server);
            }
            if healthy.get(server).copied().unwrap_or(false) {
                return server;
            }
        }
        // Nothing healthy (or only the excluded server exists).
        fallback.or(exclude).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_is_deterministic_and_in_range() {
        let ring = HashRing::new(8);
        let healthy = vec![true; 8];
        for flow in 0..1000u64 {
            let key = flow_key(flow, 0);
            let a = ring.steer(key, &healthy);
            let b = ring.steer(key, &healthy);
            assert_eq!(a, b);
            assert!(a < 8);
        }
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = HashRing::new(8);
        let healthy = vec![true; 8];
        let mut counts = [0u32; 8];
        for flow in 0..8000u64 {
            counts[ring.steer(flow_key(flow, 0), &healthy)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (400..=1800).contains(&c),
                "server {s} got {c}/8000 flows — ring badly skewed"
            );
        }
    }

    #[test]
    fn ejection_only_moves_the_ejected_servers_flows() {
        let ring = HashRing::new(8);
        let healthy = vec![true; 8];
        let mut degraded = healthy.clone();
        degraded[3] = false;
        for flow in 0..2000u64 {
            let key = flow_key(flow, 0);
            let before = ring.steer(key, &healthy);
            let after = ring.steer(key, &degraded);
            if before != 3 {
                assert_eq!(before, after, "flow {flow} moved without cause");
            } else {
                assert_ne!(after, 3, "flow {flow} still steered to ejected server");
            }
        }
    }

    #[test]
    fn successor_skips_the_primary() {
        let ring = HashRing::new(4);
        let healthy = vec![true; 4];
        for flow in 0..500u64 {
            let key = flow_key(flow, 0);
            let primary = ring.steer(key, &healthy);
            let hedge = ring.successor(key, primary, &healthy);
            assert_ne!(hedge, primary);
        }
    }

    #[test]
    fn single_server_successor_falls_back_to_it() {
        let ring = HashRing::new(1);
        let healthy = vec![true];
        assert_eq!(ring.successor(flow_key(7, 0), 0, &healthy), 0);
    }

    #[test]
    fn all_unhealthy_still_steers_deterministically() {
        let ring = HashRing::new(4);
        let dead = vec![false; 4];
        let s = ring.steer(flow_key(42, 0), &dead);
        assert!(s < 4);
        assert_eq!(s, ring.steer(flow_key(42, 0), &dead));
    }

    #[test]
    fn incarnation_changes_the_key() {
        assert_ne!(flow_key(9, 0), flow_key(9, 1));
    }
}
