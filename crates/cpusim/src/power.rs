//! Analytic power model.
//!
//! Per-core power as a function of the operating point and activity:
//!
//! * executing in CC0: `P = c_dyn · V² · f_GHz + c_leak · V`
//! * idle in CC0 (clocks running, no instructions — the `disable`
//!   sleep policy): the dynamic term is scaled by `c0_idle_dyn_frac`
//!   and leakage remains;
//! * CC1: clock-gated — leakage only;
//! * CC6: power-gated — a small residual.
//!
//! Package power adds a constant uncore term. The coefficients are
//! calibrated (see DESIGN.md §5) so an 8-core Gold 6134 at P0 fully
//! busy draws ≈115 W — near its 130 W TDP — and so the paper's
//! menu/disable/c6only energy ordering (Fig 8: +53.2 % / −10.3 % vs
//! menu) is reproducible.

use crate::cstate::CState;
use crate::pstate::OperatingPoint;

/// What a core is doing, for power purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreActivity {
    /// Executing instructions in CC0.
    Busy,
    /// In CC0 but not executing (polling idle / `disable` policy).
    IdleC0,
    /// In CC1 (clock-gated).
    SleepC1,
    /// In CC6 (power-gated).
    SleepC6,
}

impl CoreActivity {
    /// Number of activities (the variants above, numbered from 0).
    pub(crate) const COUNT: usize = 4;

    /// The activity corresponding to idling in `state`.
    #[inline]
    pub fn idle_in(state: CState) -> Self {
        match state {
            CState::C0 => CoreActivity::IdleC0,
            CState::C1 => CoreActivity::SleepC1,
            CState::C6 => CoreActivity::SleepC6,
        }
    }

    /// True if the core occupies CC0 (busy or idle) — the residency
    /// definition `intel_pstate` uses for its utilization estimate.
    #[inline]
    pub fn is_c0(self) -> bool {
        matches!(self, CoreActivity::Busy | CoreActivity::IdleC0)
    }
}

/// Power-model coefficients for one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Dynamic coefficient: W per (V² · GHz).
    pub c_dyn: f64,
    /// Leakage coefficient: W per volt (CC0 states).
    pub c_leak: f64,
    /// Fraction of dynamic power burned while idling in CC0.
    pub c0_idle_dyn_frac: f64,
    /// CC1 coefficient: W per V² — clock gating removes switching but
    /// the domain stays at the P-state's voltage, so halted power
    /// still tracks V (this is what makes "performance + shallow
    /// idle" expensive, the effect behind Fig 13's low-load spread).
    pub c1_w_per_v2: f64,
    /// CC6 core power in watts (power-gated; V-independent).
    pub c6_power_w: f64,
    /// Constant package (uncore, LLC, memory controller) power in watts.
    pub uncore_w: f64,
}

impl PowerModel {
    /// Calibrated coefficients for the 8-core Xeon server profiles
    /// (DESIGN.md §5: ≈130 W package fully busy at P0; menu/disable/
    /// c6only energy ordering of Fig 8; ~35 % low-load headroom
    /// between P0 and Pmin operation as in Fig 13).
    pub fn server_8core() -> Self {
        PowerModel {
            c_dyn: 4.0,
            c_leak: 1.9,
            c0_idle_dyn_frac: 0.35,
            c1_w_per_v2: 3.2,
            c6_power_w: 0.12,
            uncore_w: 10.0,
        }
    }

    /// Calibrated coefficients for the 4-core desktop profiles.
    pub fn desktop_4core() -> Self {
        PowerModel {
            c_dyn: 3.2,
            c_leak: 1.5,
            c0_idle_dyn_frac: 0.35,
            c1_w_per_v2: 2.2,
            c6_power_w: 0.10,
            uncore_w: 6.0,
        }
    }

    /// Instantaneous power of one core in watts.
    #[inline]
    pub fn core_power(&self, op: OperatingPoint, activity: CoreActivity) -> f64 {
        let f_ghz = op.frequency_hz as f64 / 1e9;
        let v = op.voltage_v;
        let dynamic = self.c_dyn * v * v * f_ghz;
        let leak = self.c_leak * v;
        match activity {
            CoreActivity::Busy => dynamic + leak,
            CoreActivity::IdleC0 => dynamic * self.c0_idle_dyn_frac + leak,
            CoreActivity::SleepC1 => self.c1_w_per_v2 * v * v,
            CoreActivity::SleepC6 => self.c6_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p0() -> OperatingPoint {
        OperatingPoint {
            frequency_hz: 3_200_000_000,
            voltage_v: 1.05,
        }
    }

    fn pmin() -> OperatingPoint {
        OperatingPoint {
            frequency_hz: 1_200_000_000,
            voltage_v: 0.70,
        }
    }

    #[test]
    fn busy_power_ordering_across_pstates() {
        let m = PowerModel::server_8core();
        assert!(m.core_power(p0(), CoreActivity::Busy) > m.core_power(pmin(), CoreActivity::Busy));
    }

    #[test]
    fn activity_ordering() {
        let m = PowerModel::server_8core();
        let busy = m.core_power(p0(), CoreActivity::Busy);
        let idle = m.core_power(p0(), CoreActivity::IdleC0);
        let c1 = m.core_power(p0(), CoreActivity::SleepC1);
        let c6 = m.core_power(p0(), CoreActivity::SleepC6);
        assert!(busy > idle && idle > c1 && c1 > c6);
    }

    #[test]
    fn package_at_p0_near_tdp() {
        let m = PowerModel::server_8core();
        let pkg = 8.0 * m.core_power(p0(), CoreActivity::Busy) + m.uncore_w;
        assert!((110.0..150.0).contains(&pkg), "package power {pkg} W");
    }

    #[test]
    fn dvfs_saves_substantial_power() {
        let m = PowerModel::server_8core();
        let hi = m.core_power(p0(), CoreActivity::Busy);
        let lo = m.core_power(pmin(), CoreActivity::Busy);
        // V² · f scaling: Pmin should be well under half of P0 power.
        assert!(lo < 0.5 * hi, "lo={lo} hi={hi}");
    }

    #[test]
    fn activity_ordering_holds_at_every_characterized_operating_point() {
        // Exhaustive: every shipped profile × every P-state in its
        // table keeps P(Busy) ≥ P(IdleC0) ≥ P(SleepC1) ≥ P(SleepC6) ≥ 0.
        for profile in crate::profiles::ProcessorProfile::all_characterized() {
            for i in 0..profile.pstates.len() {
                let op = profile.pstates.point(crate::pstate::PState::new(i as u8));
                let m = &profile.power;
                let busy = m.core_power(op, CoreActivity::Busy);
                let idle = m.core_power(op, CoreActivity::IdleC0);
                let c1 = m.core_power(op, CoreActivity::SleepC1);
                let c6 = m.core_power(op, CoreActivity::SleepC6);
                assert!(
                    busy >= idle && idle >= c1 && c1 >= c6 && c6 >= 0.0,
                    "{} P{i}: busy={busy} idle={idle} c1={c1} c6={c6}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn activity_ordering_property_over_random_operating_points() {
        // Property form: sample (profile, P-state) pairs under the
        // shared property seed. Raw random (V, f) pairs can violate
        // IdleC0 ≥ C1 for physically meaningless combinations, so the
        // property quantifies over the characterized V/F tables the
        // simulator can actually run at.
        simcore::check::forall("power activity ordering", 512, |rng| {
            let profiles = crate::profiles::ProcessorProfile::all_characterized();
            let profile = &profiles[rng.below(profiles.len() as u64) as usize];
            let i = rng.below(profile.pstates.len() as u64) as usize;
            let op = profile.pstates.point(crate::pstate::PState::new(i as u8));
            let m = &profile.power;
            let busy = m.core_power(op, CoreActivity::Busy);
            let idle = m.core_power(op, CoreActivity::IdleC0);
            let c1 = m.core_power(op, CoreActivity::SleepC1);
            let c6 = m.core_power(op, CoreActivity::SleepC6);
            assert!(busy >= idle, "busy={busy} < idle={idle} ({op:?})");
            assert!(idle >= c1, "idle={idle} < c1={c1} ({op:?})");
            assert!(c1 >= c6, "c1={c1} < c6={c6} ({op:?})");
            assert!(c6 >= 0.0, "c6={c6} negative ({op:?})");
        });
    }

    #[test]
    fn c0_residency_flag() {
        assert!(CoreActivity::Busy.is_c0());
        assert!(CoreActivity::IdleC0.is_c0());
        assert!(!CoreActivity::SleepC1.is_c0());
        assert!(!CoreActivity::SleepC6.is_c0());
        assert_eq!(CoreActivity::idle_in(CState::C6), CoreActivity::SleepC6);
    }
}
