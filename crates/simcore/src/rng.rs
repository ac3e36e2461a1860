//! Deterministic random-number streams.
//!
//! Every stochastic component (arrival process, service-time sampler,
//! RSS hash, …) draws from its own [`RngStream`], derived from a
//! master seed plus a component label. Runs with the same master seed
//! are bit-for-bit reproducible regardless of event interleaving,
//! which the experiment harness relies on for paper-figure
//! regeneration.

/// A named, seeded random stream.
///
/// Internally a xoshiro256++ generator (the same family `rand`'s
/// `SmallRng` uses on 64-bit targets), seeded through splitmix64 so
/// that even adjacent seeds produce decorrelated streams. The
/// implementation is local to keep the simulator free of external
/// dependencies and bit-stable across toolchain upgrades.
///
/// # Examples
///
/// ```
/// use simcore::RngStream;
/// let mut a = RngStream::derive(42, "client", 0);
/// let mut b = RngStream::derive(42, "client", 0);
/// assert_eq!(a.next_u64(), b.next_u64()); // same derivation → same stream
/// let mut c = RngStream::derive(42, "client", 1);
/// assert_ne!(a.next_u64(), c.next_u64()); // different index → different stream
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    state: [u64; 4],
}

/// splitmix64 step — expands a 64-bit seed into the xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RngStream {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        RngStream {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives a stream from a master seed, a component label, and an
    /// instance index (e.g. a queue or core id). The derivation is a
    /// stable FNV-1a hash, so streams never collide accidentally
    /// between components.
    pub fn derive(master: u64, label: &str, index: u64) -> Self {
        let bytes = master
            .to_le_bytes()
            .into_iter()
            .chain(label.bytes())
            .chain(index.to_le_bytes());
        Self::from_seed(crate::hash::fnv1a(bytes))
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of one draw.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Debiased multiply-shift (Lemire): rejection keeps the
        // distribution exactly uniform for any n.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal variate via Box–Muller (one value per call;
    /// the twin is discarded to keep the stream stateless).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    #[inline]
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        mu + sigma * self.standard_normal()
    }

    /// Log-normal variate parameterized by the *target* mean and the
    /// sigma of the underlying normal. Used for heavy-tailed service
    /// times: the returned distribution has mean `mean` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `sigma` is negative.
    #[inline]
    pub fn lognormal_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        self.lognormal(Self::lognormal_mu(mean, sigma), sigma)
    }

    /// The location `mu` of the normal underlying a log-normal with
    /// mean `mean` and shape `sigma`: `E[lognormal(mu, sigma)] =
    /// exp(mu + sigma²/2) = mean`. Samplers that draw many variates of
    /// one shape compute it once and call [`lognormal`](Self::lognormal).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `sigma` is negative.
    pub fn lognormal_mu(mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        mean.ln() - sigma * sigma / 2.0
    }

    /// Log-normal variate `exp(mu + sigma·Z)` with `Z` standard normal.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Pareto variate with minimum `xm` and shape `alpha` (bounded
    /// heavy tail for burst sizes).
    ///
    /// # Panics
    ///
    /// Panics if `xm` or `alpha` is not positive.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        xm / (1.0 - self.uniform()).powf(1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_distinct() {
        let mut a = RngStream::derive(1, "nic", 3);
        let mut b = RngStream::derive(1, "nic", 3);
        let mut c = RngStream::derive(1, "nic", 4);
        let mut d = RngStream::derive(1, "app", 3);
        let va = a.next_u64();
        assert_eq!(va, b.next_u64());
        assert_ne!(va, c.next_u64());
        assert_ne!(va, d.next_u64());
    }

    /// Every seeded stream in the simulator hangs off this derivation;
    /// a change to it moves every result.
    #[test]
    fn derivation_is_pinned() {
        assert_eq!(
            RngStream::derive(42, "fault", 0).next_u64(),
            0x5411_98e2_029a_8793
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = RngStream::from_seed(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = RngStream::from_seed(11);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.05 * mean, "estimated {est}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = RngStream::from_seed(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let mut r = RngStream::from_seed(17);
        let n = 400_000;
        let target = 2.2;
        let sum: f64 = (0..n).map(|_| r.lognormal_mean(target, 0.5)).sum();
        let est = sum / n as f64;
        assert!((est - target).abs() < 0.03 * target, "estimated {est}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut r = RngStream::from_seed(19);
        for _ in 0..10_000 {
            assert!(r.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = RngStream::from_seed(23);
        for _ in 0..1_000 {
            assert!(r.below(8) < 8);
        }
    }
}
