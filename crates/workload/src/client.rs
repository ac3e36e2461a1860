//! The client side: request generation and end-to-end latency
//! recording.
//!
//! The client is open-loop (sends follow the arrival process
//! regardless of outstanding responses, like mutilate's agent mode)
//! and measures latency from the moment a request is handed to the
//! client NIC to the moment the response arrives back — the paper's
//! client-side "end-to-end response time".

use netsim::{FlowId, Packet, PacketKind, RequestId};
use simcore::{Cdf, RngStream, SimDuration, SimTime};

/// Client state: id allocation, flow selection, latency statistics.
///
/// # Examples
///
/// ```
/// use workload::Client;
/// use netsim::Packet;
/// use simcore::{RngStream, SimTime, SimDuration};
///
/// let mut client = Client::new(64, 64);
/// let mut rng = RngStream::from_seed(1);
/// let req = client.build_request(SimTime::ZERO, &mut rng);
/// let resp = Packet::response_to(&req, 256);
/// client.on_response(&resp, SimTime::ZERO + SimDuration::from_micros(150));
/// assert_eq!(client.received(), 1);
/// assert_eq!(client.latencies().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    flows: u64,
    /// Base added to every generated flow id — bumped by
    /// [`churn_flows`](Client::churn_flows) to model connection churn
    /// (old connections close, new 5-tuples hash to new queues).
    flow_offset: u64,
    request_size: u32,
    next_id: u64,
    sent: u64,
    received: u64,
    latencies: Cdf,
    /// Per-response `(receive time at client, latency)` — the raw
    /// series behind Fig 3/10/16, recorded only while `log_responses`
    /// is set (see
    /// [`set_response_log_enabled`](Client::set_response_log_enabled)).
    response_log: Vec<(SimTime, SimDuration)>,
    log_responses: bool,
}

impl Client {
    /// Creates a client with `flows` connections sending
    /// `request_size`-byte requests.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: u64, request_size: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        Client {
            flows,
            flow_offset: 0,
            request_size,
            next_id: 0,
            sent: 0,
            received: 0,
            latencies: Cdf::new(),
            response_log: Vec::new(),
            log_responses: false,
        }
    }

    /// Builds the next request, stamped with `sent_at` as the client
    /// send time, on a uniformly chosen flow.
    #[inline]
    pub fn build_request(&mut self, sent_at: SimTime, rng: &mut RngStream) -> Packet {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.sent += 1;
        let flow = FlowId(self.flow_offset + rng.below(self.flows));
        Packet::request(id, flow, self.request_size, sent_at)
    }

    /// The size of every request this client builds, in bytes.
    pub fn request_size(&self) -> u32 {
        self.request_size
    }

    /// Replaces the connection pool: every live flow id shifts by
    /// `shift`, so subsequent requests carry fresh 5-tuples that hash
    /// to (generally) different RSS queues. In-flight requests keep
    /// their old flow ids, exactly like real connections draining
    /// during churn.
    pub fn churn_flows(&mut self, shift: u64) {
        self.flow_offset = self.flow_offset.wrapping_add(shift);
    }

    /// The current flow-id base (0 until churn occurs).
    pub fn flow_offset(&self) -> u64 {
        self.flow_offset
    }

    /// A response arrived back at the client at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a response (requests don't come
    /// back).
    #[inline]
    pub fn on_response(&mut self, pkt: &Packet, now: SimTime) -> SimDuration {
        assert_eq!(pkt.kind, PacketKind::Response, "client received a request");
        let latency = now.saturating_since(pkt.client_sent_at);
        self.received += 1;
        self.latencies.record_duration(latency);
        if self.log_responses {
            self.response_log.push((now, latency));
        }
        latency
    }

    /// Requests built so far. The testbed builds a request when it
    /// reaches the server's end of the link, so this count leaves out
    /// the requests still on the wire.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Responses received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Requests still in flight (sent − received).
    pub fn outstanding(&self) -> u64 {
        self.sent - self.received
    }

    /// The latency distribution (mutable: quantile queries sort).
    pub fn latencies_mut(&mut self) -> &mut Cdf {
        &mut self.latencies
    }

    /// The latency distribution.
    pub fn latencies(&self) -> &Cdf {
        &self.latencies
    }

    /// Turns recording of the raw `(receive time, latency)` series on
    /// or off (off by default). The series grows by one entry per
    /// response, so only its readers turn it on: a testbed whose
    /// trace buffer records (`RunConfig::with_traces` in
    /// `experiments`, which moves it into `RunTraces::responses`),
    /// and the `cluster` fleet, which drains it every epoch. The
    /// latency distribution is recorded either way.
    pub fn set_response_log_enabled(&mut self, enabled: bool) {
        self.log_responses = enabled;
    }

    /// Raw `(receive time, latency)` series recorded since the last
    /// reset, take or drain (empty unless
    /// [enabled](Client::set_response_log_enabled)).
    pub fn response_log(&self) -> &[(SimTime, SimDuration)] {
        &self.response_log
    }

    /// Moves the raw series out, leaving it empty (and unallocated).
    pub fn take_response_log(&mut self) -> Vec<(SimTime, SimDuration)> {
        std::mem::take(&mut self.response_log)
    }

    /// Drains the raw series, keeping its storage for the entries
    /// that follow.
    pub fn drain_response_log(&mut self) -> std::vec::Drain<'_, (SimTime, SimDuration)> {
        self.response_log.drain(..)
    }

    /// Discards all recorded statistics (used to cut off warm-up).
    pub fn reset_stats(&mut self) {
        self.latencies = Cdf::new();
        self.response_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_flows_bounded() {
        let mut c = Client::new(8, 64);
        let mut rng = RngStream::from_seed(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = c.build_request(SimTime::ZERO, &mut rng);
            assert!(seen.insert(p.id), "duplicate id {:?}", p.id);
            assert!(p.flow.0 < 8);
        }
        assert_eq!(c.sent(), 1000);
    }

    #[test]
    fn latency_is_measured_from_send_to_receive() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let req = c.build_request(SimTime::from_micros(100), &mut rng);
        let resp = Packet::response_to(&req, 128);
        let lat = c.on_response(&resp, SimTime::from_micros(350));
        assert_eq!(lat, SimDuration::from_micros(250));
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn response_log_records_only_when_enabled() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let a = c.build_request(SimTime::ZERO, &mut rng);
        c.on_response(&Packet::response_to(&a, 1), SimTime::from_micros(10));
        assert!(c.response_log().is_empty(), "off by default");
        assert_eq!(c.latencies().len(), 1, "the distribution still records");
        c.set_response_log_enabled(true);
        let b = c.build_request(SimTime::from_micros(20), &mut rng);
        c.on_response(&Packet::response_to(&b, 1), SimTime::from_micros(50));
        let d = c.build_request(SimTime::from_micros(60), &mut rng);
        c.on_response(&Packet::response_to(&d, 1), SimTime::from_micros(70));
        let drained: Vec<_> = c.drain_response_log().collect();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_micros(50), SimDuration::from_micros(30)),
                (SimTime::from_micros(70), SimDuration::from_micros(10)),
            ]
        );
        assert!(c.response_log().is_empty());
        let e = c.build_request(SimTime::from_micros(80), &mut rng);
        c.on_response(&Packet::response_to(&e, 1), SimTime::from_micros(90));
        assert_eq!(c.take_response_log().len(), 1);
        assert!(c.response_log().is_empty());
    }

    #[test]
    fn reset_stats_clears_but_keeps_accounting_consistent() {
        let mut c = Client::new(1, 64);
        c.set_response_log_enabled(true);
        let mut rng = RngStream::from_seed(2);
        let a = c.build_request(SimTime::ZERO, &mut rng);
        let _b = c.build_request(SimTime::ZERO, &mut rng);
        c.on_response(&Packet::response_to(&a, 1), SimTime::from_micros(10));
        c.reset_stats();
        assert_eq!(c.latencies().len(), 0);
        assert!(c.response_log().is_empty());
        assert_eq!(c.outstanding(), 1, "the unanswered request is still out");
    }

    #[test]
    fn churn_shifts_flow_ids_without_breaking_bounds() {
        let mut c = Client::new(8, 64);
        let mut rng = RngStream::from_seed(2);
        c.churn_flows(1000);
        for _ in 0..100 {
            let p = c.build_request(SimTime::ZERO, &mut rng);
            assert!(p.flow.0 >= 1000 && p.flow.0 < 1008);
        }
        assert_eq!(c.flow_offset(), 1000);
    }

    #[test]
    #[should_panic(expected = "client received a request")]
    fn rejects_non_responses() {
        let mut c = Client::new(1, 64);
        let mut rng = RngStream::from_seed(2);
        let req = c.build_request(SimTime::ZERO, &mut rng);
        c.on_response(&req.clone(), SimTime::from_micros(10));
    }
}
