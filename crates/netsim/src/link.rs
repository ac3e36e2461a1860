//! Link and switch delay model.
//!
//! The paper's testbed connects client and server through a D-Link
//! 10 GbE switch (§6.1). We model the one-way path as a fixed
//! propagation + switch latency plus per-byte serialization at line
//! rate. End-to-end response time = client→server link + server
//! processing + server→client link, matching the paper's client-side
//! measurement.

use crate::packet::Packet;
use simcore::SimDuration;

/// One-way link delay model.
///
/// # Examples
///
/// ```
/// use netsim::{LinkModel, Packet, RequestId, FlowId};
/// use simcore::{SimTime, SimDuration};
///
/// let link = LinkModel::ten_gbe();
/// let pkt = Packet::request(RequestId(1), FlowId(1), 1250, SimTime::ZERO);
/// let d = link.delay(&pkt);
/// // 20 µs base + 1250 B at 1 ns/byte
/// assert_eq!(d, SimDuration::from_nanos(21_250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// Fixed one-way latency (propagation, switch, client stack).
    pub base: SimDuration,
    /// Serialization time per byte.
    pub per_byte: SimDuration,
}

impl LinkModel {
    /// A 10 GbE link through one switch: 20 µs one-way base latency,
    /// 1 ns/byte serialization (0.8 ns line rate rounded up to the
    /// integer-nanosecond grid).
    pub fn ten_gbe() -> Self {
        LinkModel {
            base: SimDuration::from_micros(20),
            per_byte: SimDuration::from_nanos(1),
        }
    }

    /// A zero-delay link (unit tests that isolate server latency).
    pub fn instant() -> Self {
        LinkModel {
            base: SimDuration::ZERO,
            per_byte: SimDuration::ZERO,
        }
    }

    /// One-way delay for `pkt`.
    #[inline]
    pub fn delay(&self, pkt: &Packet) -> SimDuration {
        self.delay_bytes(pkt.size_bytes)
    }

    /// One-way delay for a `bytes`-byte packet.
    #[inline]
    pub fn delay_bytes(&self, bytes: u32) -> SimDuration {
        self.base + self.per_byte * bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, RequestId};
    use simcore::SimTime;

    #[test]
    fn bigger_packets_take_longer() {
        let link = LinkModel::ten_gbe();
        let small = Packet::request(RequestId(1), FlowId(1), 64, SimTime::ZERO);
        let large = Packet::request(RequestId(2), FlowId(1), 9000, SimTime::ZERO);
        assert!(link.delay(&large) > link.delay(&small));
    }

    #[test]
    fn instant_link_is_free() {
        let link = LinkModel::instant();
        let pkt = Packet::request(RequestId(1), FlowId(1), 1500, SimTime::ZERO);
        assert_eq!(link.delay(&pkt), SimDuration::ZERO);
    }

    #[test]
    fn delay_is_base_plus_linear_serialization() {
        let link = LinkModel {
            base: SimDuration::from_micros(7),
            per_byte: SimDuration::from_nanos(3),
        };
        let zero = Packet::request(RequestId(1), FlowId(1), 0, SimTime::ZERO);
        assert_eq!(link.delay(&zero), SimDuration::from_micros(7));
        let big = Packet::request(RequestId(2), FlowId(1), 9000, SimTime::ZERO);
        assert_eq!(
            link.delay(&big),
            SimDuration::from_micros(7) + SimDuration::from_nanos(27_000)
        );
        // Delay depends on size alone, not kind.
        let resp = Packet::response_to(&big, 9000);
        assert_eq!(link.delay(&resp), link.delay(&big));
    }
}
