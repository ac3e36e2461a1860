//! Application service-time models.
//!
//! Requests cost a lognormally distributed number of CPU cycles
//! (heavy right tail, as measured for both applications), so service
//! *time* scales inversely with the core's current frequency — the
//! mechanism DVFS acts through.
//!
//! Calibration (DESIGN.md §5): memcached ≈ 2.2 µs mean at 3.2 GHz;
//! nginx ≈ 50 µs of user time at 3.2 GHz on top of a kernel-heavy
//! per-packet cost. Together with the kernel-stack costs in
//! [`napisim::StackParams`] these put the three load levels in the
//! regimes the paper reports (low safe even at Pmin, medium
//! overloading Pmin, high overloading everything but the top states).

use simcore::{RngStream, SimDuration};
use workload::AppKind;

/// A latency-critical application's resource model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppModel {
    /// Which application this models.
    pub kind: AppKind,
    /// Mean service cost in CPU cycles.
    pub service_cycles_mean: f64,
    /// Sigma of the underlying normal (lognormal shape).
    pub service_sigma: f64,
    /// Request payload size in bytes.
    pub request_size: u32,
    /// Response payload size in bytes.
    pub response_size: u32,
    /// Rx packets per request hitting the server NIC (the request
    /// itself plus TCP companion traffic such as ACKs to response
    /// segments) — all cost kernel processing.
    pub rx_packets_per_request: u32,
    /// Wire segments per response (MTU-sized), each leaving a Tx
    /// completion descriptor for NAPI to clean.
    pub tx_segments_per_response: u32,
    /// The SLO on P99 end-to-end latency (§3.1: the latency-load
    /// curve's inflection point).
    pub slo: SimDuration,
}

impl AppModel {
    /// memcached: ~7 000 cycles (≈2.2 µs at 3.2 GHz), 64 B GETs with
    /// 256 B values, SLO 1 ms.
    pub fn memcached() -> Self {
        AppModel {
            kind: AppKind::Memcached,
            service_cycles_mean: 7_000.0,
            service_sigma: 0.30,
            request_size: 64,
            response_size: 256,
            rx_packets_per_request: 2, // GET + TCP ACK
            tx_segments_per_response: 1,
            slo: SimDuration::from_millis(1),
        }
    }

    /// nginx: ~160 000 user-space cycles (≈50 µs at 3.2 GHz) serving
    /// static pages of a few tens of KB — 24 MTU segments per response
    /// plus the client's ACK clock (~12 Rx packets per request). Most
    /// of an nginx request's CPU time is *kernel* time (TCP transmit,
    /// segmentation, skb management — see
    /// [`StackParams`](napisim::StackParams) via
    /// [`stack_for`](crate::testbed::stack_for)), which is what makes
    /// nginx's NAPI load an order of magnitude above its request
    /// rate. SLO 10 ms.
    pub fn nginx() -> Self {
        AppModel {
            kind: AppKind::Nginx,
            service_cycles_mean: 160_000.0,
            service_sigma: 0.40,
            request_size: 256,
            response_size: 36_864,
            rx_packets_per_request: 12,
            tx_segments_per_response: 24,
            slo: SimDuration::from_millis(10),
        }
    }

    /// The model for an [`AppKind`].
    pub fn for_kind(kind: AppKind) -> Self {
        match kind {
            AppKind::Memcached => Self::memcached(),
            AppKind::Nginx => Self::nginx(),
        }
    }

    /// The per-request service-cost distribution, with the
    /// lognormal's location computed once.
    ///
    /// # Panics
    ///
    /// Panics if the mean is not positive or the sigma is negative.
    pub(crate) fn service_sampler(&self) -> ServiceSampler {
        ServiceSampler {
            mu: RngStream::lognormal_mu(self.service_cycles_mean, self.service_sigma),
            sigma: self.service_sigma,
        }
    }

    /// Mean service time at a given core frequency.
    pub fn mean_service_time(&self, freq_hz: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.service_cycles_mean / freq_hz as f64)
    }
}

/// An [`AppModel`]'s lognormal service cost in cycles: mean
/// `service_cycles_mean`, shape `service_sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServiceSampler {
    mu: f64,
    sigma: f64,
}

impl ServiceSampler {
    /// Samples one request's service cost in cycles (≥ 100 cycles so
    /// a pathological draw can never be free).
    #[inline]
    pub(crate) fn sample(&self, rng: &mut RngStream) -> u64 {
        rng.lognormal(self.mu, self.sigma).max(100.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcached_is_microsecond_scale_at_p0() {
        let m = AppModel::memcached();
        let t = m.mean_service_time(3_200_000_000);
        assert!(
            t > SimDuration::from_nanos(1_000) && t < SimDuration::from_micros(5),
            "{t}"
        );
        assert_eq!(m.slo, SimDuration::from_millis(1));
        assert!(m.rx_packets_per_request >= 1);
        assert!(m.tx_segments_per_response >= 1);
    }

    #[test]
    fn nginx_is_heavier_with_larger_responses() {
        let n = AppModel::nginx();
        let m = AppModel::memcached();
        assert!(n.service_cycles_mean > 10.0 * m.service_cycles_mean);
        assert!(n.response_size > m.response_size);
        assert_eq!(n.slo, SimDuration::from_millis(10));
    }

    #[test]
    fn sampled_cycles_mean_converges() {
        let m = AppModel::memcached();
        let mut rng = RngStream::from_seed(5);
        let n = 100_000;
        let sampler = m.service_sampler();
        let sum: u64 = (0..n).map(|_| sampler.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - m.service_cycles_mean).abs() < 0.03 * m.service_cycles_mean,
            "mean {mean}"
        );
    }

    #[test]
    fn sampler_draws_a_lognormal_of_the_model_mean() {
        for m in [AppModel::memcached(), AppModel::nginx()] {
            let sampler = m.service_sampler();
            let mut a = RngStream::from_seed(9);
            let mut b = a.clone();
            for _ in 0..10_000 {
                let expect = b.lognormal_mean(m.service_cycles_mean, m.service_sigma);
                assert_eq!(sampler.sample(&mut a), expect.max(100.0) as u64);
            }
        }
    }

    #[test]
    fn slower_core_means_longer_service() {
        let m = AppModel::nginx();
        assert!(m.mean_service_time(1_200_000_000) > m.mean_service_time(3_200_000_000));
    }

    #[test]
    fn for_kind_roundtrip() {
        assert_eq!(
            AppModel::for_kind(AppKind::Memcached).kind,
            AppKind::Memcached
        );
        assert_eq!(AppModel::for_kind(AppKind::Nginx).kind, AppKind::Nginx);
    }
}
