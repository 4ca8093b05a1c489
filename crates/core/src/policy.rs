//! Cross-layer configuration objectives and the trade-off explorer.

use mlcx_nand::ProgramAlgorithm;

use crate::model::{Metrics, OperatingPoint, SubsystemModel};

/// What the host asks the memory sub-system to optimize for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Factory default: ISPP-SV, ECC tracking the UBER target.
    Baseline,
    /// Mission-critical storage (web payments, OS upgrades, backups):
    /// minimize UBER without giving up read throughput.
    MinUber,
    /// Multimedia/read-intensive storage: maximize read throughput
    /// without giving up UBER.
    MaxReadThroughput,
}

impl Objective {
    /// All objectives, baseline first.
    pub const ALL: [Objective; 3] = [
        Objective::Baseline,
        Objective::MinUber,
        Objective::MaxReadThroughput,
    ];
}

/// An evaluated configuration alternative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alternative {
    /// The configuration.
    pub op: OperatingPoint,
    /// Its evaluated metrics.
    pub metrics: Metrics,
}

/// The *controller-only* attempt at maximizing read throughput that the
/// paper argues against (Section 6.3.2): reduce `t` below the SV schedule
/// without touching the physical layer. Returns the configuration that
/// matches the read latency of the cross-layer solution — and its now
/// degraded UBER.
pub fn controller_only_read_boost(model: &SubsystemModel, cycles: u64) -> Alternative {
    let cross = model.configure(Objective::MaxReadThroughput, cycles);
    let op = OperatingPoint {
        algorithm: ProgramAlgorithm::IsppSv,
        correction: cross.correction,
    };
    Alternative {
        op,
        metrics: model.metrics(&op, cycles),
    }
}

/// Enumerates the whole (algorithm x capability) plane at a wear level —
/// the raw material for Pareto analysis.
pub(crate) fn enumerate_plane(
    model: &SubsystemModel,
    cycles: u64,
    t_stride: u32,
) -> Vec<Alternative> {
    let mut out = Vec::new();
    for algorithm in ProgramAlgorithm::ALL {
        let mut t = model.tmin;
        while t <= model.tmax {
            let op = OperatingPoint {
                algorithm,
                correction: t,
            };
            out.push(Alternative {
                op,
                metrics: model.metrics(&op, cycles),
            });
            t += t_stride;
        }
    }
    out
}

/// Filters the `(algorithm, t)` plane down to the Pareto frontier over
/// (UBER, read throughput, write throughput) — lower UBER and higher
/// throughputs dominate.
pub fn pareto_frontier(model: &SubsystemModel, cycles: u64, t_stride: u32) -> Vec<Alternative> {
    let all = enumerate_plane(model, cycles, t_stride);
    let dominates = |a: &Metrics, b: &Metrics| {
        let not_worse = a.log10_uber <= b.log10_uber
            && a.read_mbps >= b.read_mbps
            && a.write_mbps >= b.write_mbps;
        let strictly_better =
            a.log10_uber < b.log10_uber || a.read_mbps > b.read_mbps || a.write_mbps > b.write_mbps;
        not_worse && strictly_better
    };
    all.iter()
        .filter(|cand| {
            !all.iter()
                .any(|other| dominates(&other.metrics, &cand.metrics))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_only_boost_sacrifices_uber() {
        // The paper's core argument: at the architecture layer alone, the
        // read gain is paid in UBER; the cross-layer solution is not.
        let model = SubsystemModel::date2012();
        let cycles = 1_000_000;
        let strawman = controller_only_read_boost(&model, cycles);
        let cross = model.configure(Objective::MaxReadThroughput, cycles);
        let cross_m = model.metrics(&cross, cycles);

        // Same decode latency (same t), hence same read throughput...
        assert!((strawman.metrics.read_mbps - cross_m.read_mbps).abs() < 1e-9);
        // ...but the strawman misses the 1e-11 target by orders of
        // magnitude, while the cross-layer point holds it.
        assert!(strawman.metrics.log10_uber > -11.0 + 3.0);
        assert!(cross_m.log10_uber <= -11.0);
    }

    #[test]
    fn plane_enumeration_covers_both_algorithms() {
        let model = SubsystemModel::date2012();
        let plane = enumerate_plane(&model, 1_000, 10);
        assert!(plane.len() >= 14);
        assert!(plane
            .iter()
            .any(|a| a.op.algorithm == ProgramAlgorithm::IsppSv));
        assert!(plane
            .iter()
            .any(|a| a.op.algorithm == ProgramAlgorithm::IsppDv));
    }

    #[test]
    fn pareto_frontier_is_nonempty_subset() {
        let model = SubsystemModel::date2012();
        let plane = enumerate_plane(&model, 100_000, 8);
        let frontier = pareto_frontier(&model, 100_000, 8);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= plane.len());
        // Every frontier point must actually come from the plane.
        for alt in &frontier {
            assert!(plane.iter().any(|p| p.op == alt.op));
        }
    }

    #[test]
    fn frontier_contains_extreme_reliability_point() {
        // DV at max capability minimizes UBER; nothing dominates it.
        let model = SubsystemModel::date2012();
        let frontier = pareto_frontier(&model, 100_000, 4);
        assert!(frontier.iter().any(|a| {
            a.op.algorithm == ProgramAlgorithm::IsppDv && a.op.correction >= model.tmax - 4
        }));
    }
}
