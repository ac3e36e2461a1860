//! Statistics toolkit used by the experiment harness: latency
//! histograms with percentile queries, exact CDFs, running
//! mean/stdev, and streaming percentiles with the SLO watchdog.

pub mod cdf;
pub mod histogram;
pub mod running;
pub mod streaming;
