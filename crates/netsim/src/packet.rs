//! Packets, requests, and flows.

use simcore::SimTime;
use std::fmt;

/// Globally unique id of an application-level request. Responses
/// carry the id of the request they answer, which is how the client
/// measures end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A transport flow (client connection). RSS hashes the flow id to
/// pick the Rx queue, so all packets of one connection hit one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A client request (Rx at the server).
    Request,
    /// A server response (Tx at the server).
    Response,
    /// Transport-layer companion traffic (TCP ACKs and friends):
    /// costs kernel processing at the server but carries no
    /// application payload.
    Ack,
}

/// A network packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// The request this packet belongs to.
    pub id: RequestId,
    /// The flow (connection) it travels on.
    pub flow: FlowId,
    /// Request or response.
    pub kind: PacketKind,
    /// Payload size in bytes (drives serialization delay).
    pub size_bytes: u32,
    /// When the original request left the client — carried through so
    /// the client can compute end-to-end latency from the response.
    pub client_sent_at: SimTime,
    /// When the packet was accepted into an Rx ring (stamped by the
    /// NIC on enqueue; [`SimTime::ZERO`] until then). The latency
    /// attribution profiler anchors the kernel-side decomposition of
    /// the ring-residency interval on this timestamp.
    pub nic_rx_at: SimTime,
}

impl Packet {
    /// Builds a request packet.
    #[inline]
    pub fn request(id: RequestId, flow: FlowId, size_bytes: u32, client_sent_at: SimTime) -> Self {
        Packet {
            id,
            flow,
            kind: PacketKind::Request,
            size_bytes,
            client_sent_at,
            nic_rx_at: SimTime::ZERO,
        }
    }

    /// Builds the response to an existing request, preserving the
    /// flow and client timestamp.
    #[inline]
    pub fn response_to(request: &Packet, size_bytes: u32) -> Self {
        Packet {
            id: request.id,
            flow: request.flow,
            kind: PacketKind::Response,
            size_bytes,
            client_sent_at: request.client_sent_at,
            nic_rx_at: SimTime::ZERO,
        }
    }

    /// Builds an ACK-class companion packet on the same flow as
    /// `reference` (models the TCP traffic accompanying a request).
    #[inline]
    pub fn ack_on(reference: &Packet) -> Self {
        Packet {
            id: reference.id,
            flow: reference.flow,
            kind: PacketKind::Ack,
            size_bytes: 64,
            client_sent_at: reference.client_sent_at,
            nic_rx_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_preserves_identity() {
        let req = Packet::request(RequestId(9), FlowId(4), 64, SimTime::from_micros(5));
        let resp = Packet::response_to(&req, 128);
        assert_eq!(resp.id, req.id);
        assert_eq!(resp.flow, req.flow);
        assert_eq!(resp.kind, PacketKind::Response);
        assert_eq!(resp.client_sent_at, req.client_sent_at);
        assert_eq!(resp.size_bytes, 128);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RequestId(3).to_string(), "req3");
    }

    #[test]
    fn ack_rides_the_reference_flow() {
        let req = Packet::request(RequestId(7), FlowId(2), 512, SimTime::from_micros(11));
        let ack = Packet::ack_on(&req);
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.id, req.id);
        assert_eq!(ack.flow, req.flow, "ACK must hash to the same RSS queue");
        assert_eq!(ack.client_sent_at, req.client_sent_at);
        assert_eq!(ack.size_bytes, 64, "ACKs are minimum-size frames");
    }
}
