//! Microbenches of single layers, with inputs shaped like a
//! workload's traced pass (batch sizes, polls per IRQ, idle gaps,
//! hook mix). Each reports ns per call; ns/call × the pass's call
//! count estimates that layer's share of the event loop.

use std::hint::black_box;
use std::time::Instant;

use appsim::AppModel;
use cpusim::{CState, Core, CoreId, ProcessorProfile};
use experiments::{GovernorKind, SleepKind};
use governors::Action;
use napisim::{NapiContext, PollClass, ProcContext};
use netsim::{FlowId, Nic, NicConfig, Packet, QueueId, RequestId};
use simcore::{
    MetricsRegistry, RngStream, SimDuration, SimTime, SloWatchdog, Stage, TimeSeriesSampler,
    TimelineConfig,
};
use workload::{AppKind, ArrivalProcess, LoadSpec};

/// Repetitions per microbench; the median repetition is reported.
const REPS: usize = 7;

/// Workload-shaped inputs, taken from a traced pass's counts.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Rx packets per poll batch.
    pub rx_batch: usize,
    /// Poll batches per IRQ.
    pub polls_per_irq: usize,
    /// Share of poll batches attributed to polling mode.
    pub polling_share: f64,
    /// Mean simulated time between calls into the core model.
    pub idle_gap: SimDuration,
    /// Share of wakes that leave CC6 (the rest leave C1).
    pub c6_share: f64,
    /// Typical end-to-end latency, ns.
    pub latency_ns: u64,
    /// Relative frequency of each governor hook: request latency,
    /// poll batch, core sample, NIC window, ksoftirqd, telemetry.
    pub hook_mix: [u64; 6],
    /// The offered load the arrival process draws from.
    pub load: LoadSpec,
    /// Fleet size for steering.
    pub servers: usize,
}

/// Median of `samples` (which it sorts).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Runs `rep` [`REPS`] times; each call returns (elapsed ns, calls
/// made) and the median ns/call is reported.
fn per_call(mut rep: impl FnMut() -> (f64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, calls) = rep();
            ns / calls.max(1) as f64
        })
        .collect();
    median(&mut v)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// NIC Rx enqueue and poll, per call: a few batches are enqueued,
/// then polled out `rx_batch` at a time.
pub fn netsim(shape: &Shape) -> (f64, f64) {
    let batch = shape.rx_batch.max(1);
    let depth = (batch * 8).min(1000);
    let rounds = 20_000 / depth + 1;
    let pkt = Packet::request(RequestId(1), FlowId(3), 64, SimTime::ZERO);
    let mut enq = Vec::new();
    let mut poll = Vec::new();
    for _ in 0..REPS {
        let mut nic = Nic::new(NicConfig::intel_82599(1));
        let q = QueueId(0);
        let (mut t_enq, mut t_poll, mut polls) = (0.0, 0.0, 0u64);
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            let t = Instant::now();
            for _ in 0..depth {
                now += SimDuration::from_nanos(100);
                black_box(nic.enqueue_rx(q, black_box(pkt), now));
            }
            t_enq += elapsed_ns(t);
            let t = Instant::now();
            while nic.rx_backlog(q) > 0 {
                black_box(nic.poll(q, batch));
                polls += 1;
            }
            t_poll += elapsed_ns(t);
        }
        enq.push(t_enq / (rounds * depth) as f64);
        poll.push(t_poll / polls as f64);
    }
    (median(&mut enq), median(&mut poll))
}

/// NAPI poll-batch bookkeeping: one IRQ, then `polls_per_irq` batches,
/// the last one draining the ring. The IRQ entry is amortized in.
pub fn napisim(shape: &Shape) -> f64 {
    let per_irq = shape.polls_per_irq.max(1);
    let irqs = 40_000 / per_irq as u64 + 1;
    let stack = appsim::testbed::stack_for(AppKind::Memcached);
    per_call(|| {
        let mut napi = NapiContext::new(stack);
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        for _ in 0..irqs {
            now += SimDuration::from_micros(5);
            napi.on_irq(now);
            for j in 0..per_irq {
                now += SimDuration::from_micros(1);
                let drained = j + 1 == per_irq;
                black_box(napi.record_poll(
                    shape.rx_batch,
                    0,
                    drained,
                    false,
                    ProcContext::SoftIrq,
                    now,
                ));
            }
        }
        (elapsed_ns(t), irqs * per_irq as u64)
    })
}

/// Core energy/residency integration (`account`) and one
/// sleep-then-wake pair (`enter_sleep` + `wake`), per call.
pub fn cpusim(shape: &Shape) -> (f64, f64) {
    let profile = ProcessorProfile::xeon_gold_6134();
    let gap = shape.idle_gap.max(SimDuration::from_nanos(100));
    let account = per_call(|| {
        let mut core = Core::new(CoreId(0), &profile);
        let mut now = SimTime::ZERO;
        let n = 50_000u64;
        let t = Instant::now();
        for i in 0..n {
            now += gap;
            if i % 2 == 0 {
                core.account(now, &profile);
            } else {
                core.set_busy(i % 4 == 1, now, &profile);
            }
        }
        black_box(core.energy_uj(now, &profile));
        (elapsed_ns(t), n)
    });
    let every_c6 = if shape.c6_share > 0.0 {
        (1.0 / shape.c6_share).round().max(1.0) as u64
    } else {
        u64::MAX
    };
    let wake = per_call(|| {
        let mut core = Core::new(CoreId(0), &profile);
        let mut rng = RngStream::derive(1, "perfbench-wake", 0);
        let mut now = SimTime::ZERO;
        let n = 20_000u64;
        let t = Instant::now();
        for i in 0..n {
            let state = if i % every_c6 == 0 {
                CState::C6
            } else {
                CState::C1
            };
            core.enter_sleep(state, now, &profile);
            now += gap;
            black_box(core.wake(now, &profile, &mut rng));
            now += SimDuration::from_micros(1);
        }
        (elapsed_ns(t), n)
    });
    (account, wake)
}

/// One governor's hooks, called in the workload's hook mix.
pub fn governor_hooks(kind: &GovernorKind, shape: &Shape) -> f64 {
    let profile = ProcessorProfile::xeon_gold_6134();
    let app = AppModel::for_kind(AppKind::Memcached);
    let (mut gov, _sleep) = cluster::build_policies(kind, SleepKind::Menu, &profile, &app);
    let cores = profile.cores;
    let tap = TimeSeriesSampler::new(cores, TimelineConfig::default());
    let sequence = interleave(&shape.hook_mix, 4096);
    let interval = gov.sampling_interval();
    let mut actions: Vec<Action> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    per_call(|| {
        let n = 40_000u64;
        let t = Instant::now();
        for _ in 0..n {
            let hook = sequence[(i % sequence.len() as u64) as usize];
            let core = CoreId((i % cores as u64) as usize);
            now += SimDuration::from_nanos(500);
            match hook {
                0 => {
                    let lat = shape.latency_ns + (i * 7919) % 20_000;
                    gov.on_request_latency(SimDuration::from_nanos(lat), now, &mut actions)
                }
                1 => {
                    let class = if ((i % 100) as f64) < shape.polling_share * 100.0 {
                        PollClass::Polling
                    } else {
                        PollClass::Interrupt
                    };
                    gov.on_poll_batch(core, class, shape.rx_batch as u64, now, &mut actions)
                }
                2 => {
                    let busy = ((i * 37) % 100) as f64 / 100.0;
                    let sample = cpusim::core::UtilSample {
                        busy_frac: busy,
                        c0_frac: (busy + 0.1).min(1.0),
                        window: interval,
                    };
                    gov.on_core_sample(core, sample, now, &mut actions)
                }
                3 => gov.on_nic_window((i * 131) % 20_000, now, &mut actions),
                4 => gov.on_ksoftirqd(core, i.is_multiple_of(2), now, &mut actions),
                _ => gov.on_telemetry(&tap, now, &mut actions),
            }
            black_box(&actions);
            actions.clear();
            i += 1;
        }
        (elapsed_ns(t), n)
    })
}

/// A length-`len` sequence of hook indices whose frequencies follow
/// `mix` (largest-deficit interleaving, so every hook is spread out).
fn interleave(mix: &[u64], len: usize) -> Vec<usize> {
    let total: u64 = mix.iter().sum();
    if total == 0 {
        return vec![0];
    }
    let mut given = vec![0u64; mix.len()];
    (1..=len as u64)
        .map(|k| {
            let pick = (0..mix.len())
                .max_by_key(|&h| (mix[h] * k).saturating_sub(given[h] * total))
                .unwrap_or(0);
            given[pick] += 1;
            pick
        })
        .collect()
}

/// The arrival process's next-send draw.
pub fn next_arrival(shape: &Shape) -> f64 {
    let mut arrivals = shape.load.arrivals();
    let mut rng = RngStream::derive(1, "perfbench-arrivals", 0);
    let mut t = SimTime::ZERO;
    per_call(|| {
        let n = 100_000u64;
        let start = Instant::now();
        for _ in 0..n {
            t = arrivals.next_after(t, &mut rng).unwrap_or(SimTime::ZERO);
        }
        black_box(t);
        (elapsed_ns(start), n)
    })
}

/// One string-keyed stage-histogram observation, cycling through the
/// attribution stages the way each response does.
pub fn observe() -> f64 {
    let keys: Vec<&'static str> = Stage::ALL.iter().map(|s| s.metric_key()).collect();
    let mut m = MetricsRegistry::default();
    per_call(|| {
        let n = 100_000u64;
        let t = Instant::now();
        for i in 0..n {
            m.observe(
                keys[(i % keys.len() as u64) as usize],
                1_000 + (i * 613) % 50_000,
            );
        }
        black_box(&m);
        (elapsed_ns(t), n)
    })
}

/// One SLO-watchdog latency sample.
pub fn watchdog_record(shape: &Shape) -> f64 {
    let cores = ProcessorProfile::xeon_gold_6134().cores;
    let slo = AppModel::for_kind(AppKind::Memcached).slo;
    let mut wd = SloWatchdog::new(slo, SimDuration::from_millis(5), cores);
    let mut events = Vec::new();
    let gap = SimDuration::from_nanos((1e9 / shape.load.avg_rps.max(1.0)) as u64);
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    per_call(|| {
        let n = 100_000u64;
        let t = Instant::now();
        for _ in 0..n {
            now += gap;
            let lat = shape.latency_ns + (i * 7919) % 20_000;
            wd.record((i % cores as u64) as usize, lat, now, &mut events);
            events.clear();
            i += 1;
        }
        (elapsed_ns(t), n)
    })
}

/// One consistent-hash steering decision over the fleet, with one
/// server ejected an eighth of the time.
pub fn steer(shape: &Shape) -> f64 {
    let servers = shape.servers.max(1);
    let ring = cluster::HashRing::new(servers);
    let mut healthy = vec![true; servers];
    per_call(|| {
        let n = 100_000u64;
        let t = Instant::now();
        for i in 0..n {
            if servers > 1 {
                healthy[1] = i % 8 != 0;
            }
            let key = cluster::ring::flow_key(i % 512, 0);
            black_box(ring.steer(key, &healthy));
        }
        (elapsed_ns(t), n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn interleave_follows_the_mix() {
        let seq = interleave(&[3, 1, 0], 400);
        let zeros = seq.iter().filter(|&&h| h == 0).count();
        let ones = seq.iter().filter(|&&h| h == 1).count();
        assert_eq!(zeros + ones, 400);
        assert_eq!(zeros, 300);
        assert!(!seq.contains(&2));
        assert!(seq[..8].contains(&1), "the rare hook is spread out");
    }
}
