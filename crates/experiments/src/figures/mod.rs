//! One module per paper artifact. Every function returns a
//! [`crate::report::FigureReport`] whose body is the
//! text rendering of the table/figure the paper shows.
//!
//! | id | paper artifact |
//! |---|---|
//! | `fig2` | NAPI mode counts, ksoftirqd wakes, ondemand P-state timeline |
//! | `fig3` | per-request latency over 0.5 s, ondemand vs performance |
//! | `fig4` | latency CDF, ondemand vs performance |
//! | `table1` | re-transition latency, 4 CPUs × 6 transitions |
//! | `table2` | C-state wake-up latency, 4 CPUs |
//! | `fig7` | CC6 entries vs packet modes, low & high load |
//! | `fig8` | latency-load curve + energy across sleep policies |
//! | `fig9` | NMAP timeline (as fig2 under NMAP) |
//! | `fig10` | per-request latency under NMAP |
//! | `fig11` | latency CDF under NMAP |
//! | `fig12` | P99 matrix: 5 governors × 3 sleep policies × 3 loads × 2 apps |
//! | `fig13` | energy matrix (same cells, normalized to performance+menu) |
//! | `fig14` | P99 vs state of the art (NCAP variants), normalized to SLO |
//! | `fig15` | energy vs state of the art |
//! | `fig16` | varying-load trace: NMAP vs Parties |
//! | `ablation` | NI_TH/CU_TH/timer/scope/re-transition sensitivity |
//! | `extra` | beyond-paper: online threshold adaptation, schedutil |
//! | `breakdown` | beyond-paper: latency attribution + SLO watchdog |
//! | `energy` | beyond-paper: energy attribution + governor flight recorder |
//! | `timeline` | beyond-paper: telemetry sparklines (P99/mode/power over time) |
//! | `chaos` | beyond-paper: chaos soak under composed fault schedules |
//! | `fleet` | beyond-paper: fault-tolerant fleet tier (failover, retry/hedge, conservation) |
//! | `overload` | beyond-paper: overload control vs metastable failure (admission, retry budgets, brownout) |

pub mod ablations;
pub mod breakdown;
pub mod chaos;
pub mod comparison;
pub mod energy;
pub mod extensions;
pub mod fleet;
pub mod motivation;
pub mod nmap_behavior;
pub mod overload;
pub mod sleep;
pub mod sota;
pub mod tables;
pub mod timeline;
pub mod varying;

use crate::report::FigureReport;
use crate::runner::{GovernorKind, RunConfig, Scale};
use crate::supervisor::Supervisor;
use crate::thresholds;
use workload::{AppKind, LoadLevel, LoadSpec};

/// All artifact ids in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "fig2",
        "fig3",
        "fig4",
        "table1",
        "table2",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "ablation",
        "extra",
        "breakdown",
        "energy",
        "timeline",
        "chaos",
        "fleet",
        "overload",
    ]
}

/// Generates the artifacts for `id` (some ids share their underlying
/// sweep and are produced together; the requested one is returned
/// along with any siblings computed for free).
///
/// Runs under an ephemeral [`Supervisor`] (no checkpoint); use
/// [`generate_with`] to supply one that checkpoints the sweep cells.
pub fn generate(id: &str, scale: Scale) -> Vec<FigureReport> {
    generate_with(id, scale, &Supervisor::new())
}

/// [`generate`], with every multi-cell sweep, box or fleet, driven
/// through `sup` — each distinct cell runs once, a failing one is
/// quarantined, and cells `sup` already holds (from its checkpoint, or
/// an earlier sweep sharing the config) are not run again.
/// Trace-collecting single-cell figures (fig2-4, fig7, fig9-11, fig16)
/// run directly: their results embed full event traces, which are
/// never checkpointed.
pub fn generate_with(id: &str, scale: Scale, sup: &Supervisor) -> Vec<FigureReport> {
    match id {
        "fig2" => vec![motivation::fig2(scale)],
        "fig3" => vec![motivation::fig3(scale)],
        "fig4" => vec![motivation::fig4(scale)],
        "table1" => vec![tables::table1()],
        "table2" => vec![tables::table2()],
        "fig7" => vec![sleep::fig7(scale)],
        "fig8" => vec![sleep::fig8(scale, sup)],
        "fig9" => vec![nmap_behavior::fig9(scale)],
        "fig10" => vec![nmap_behavior::fig10(scale)],
        "fig11" => vec![nmap_behavior::fig11(scale)],
        "fig12" | "fig13" => {
            let (a, b) = comparison::fig12_13(scale, sup);
            vec![a, b]
        }
        "fig14" | "fig15" => {
            let (a, b) = sota::fig14_15(scale, sup);
            vec![a, b]
        }
        "fig16" => vec![varying::fig16(scale)],
        "ablation" => ablations::all(scale, sup),
        "extra" | "extra-online" | "extra-schedutil" => extensions::all(scale, sup),
        "breakdown" => vec![breakdown::breakdown(scale, sup)],
        "energy" => vec![energy::energy(scale, sup)],
        "timeline" => vec![timeline::timeline(scale, sup)],
        "chaos" => vec![chaos::chaos(scale, sup)],
        "fleet" => vec![fleet::fleet(scale, sup)],
        "overload" => vec![overload::overload(scale, sup)],
        _ => Vec::new(),
    }
}

/// The single most representative simulation cell behind an artifact,
/// configured for trace collection — what `repro --trace-out` runs to
/// dump a Perfetto timeline for that figure. Pure tables (`table1`,
/// `table2`) and the fleet artifacts (`fleet`, `overload`) have no
/// single-box cell and return `None`.
pub fn representative_cell(id: &str, scale: Scale) -> Option<RunConfig> {
    let app = AppKind::Memcached;
    let gov = match id {
        // Motivation and conventional-governor matrices: the paper's
        // problem case is ondemand.
        "fig2" | "fig3" | "fig4" | "fig12" | "fig13" => GovernorKind::Ondemand,
        // The sleep-policy study holds the governor at performance.
        "fig7" | "fig8" => GovernorKind::Performance,
        // The state-of-the-art comparison centers on NCAP.
        "fig14" | "fig15" => GovernorKind::Ncap(thresholds::ncap_threshold(app)),
        // NMAP behavior, varying load, ablations, extensions, the
        // attribution breakdown, and the energy decomposition all
        // showcase NMAP itself.
        // The chaos soak's representative cell is NMAP under the
        // kernel-layer schedule — the one that exercises its
        // graceful-degradation state machine.
        "fig9" | "fig10" | "fig11" | "fig16" | "ablation" | "extra" | "breakdown" | "energy"
        | "timeline" | "chaos" => GovernorKind::Nmap(thresholds::nmap_config(app)),
        _ => return None,
    };
    let load = LoadSpec::preset(app, LoadLevel::High);
    let mut cfg = RunConfig::new(app, load, gov, scale).with_traces();
    if id == "chaos" {
        let plan = chaos::plans().swap_remove(1).1;
        cfg = cfg.with_fault_plan(plan);
    }
    Some(cfg)
}
