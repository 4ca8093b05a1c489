//! Section 6.3.2's power-budget claim, quantified.
//!
//! "The relaxation of ECC performance allows to keep the memory power
//! budget constant since the increased power needs of the physical layer
//! are compensated by the lower power of the ECC sub-system" — the ECC
//! drops from 7 mW to ~1 mW while ISPP-DV adds ~7.5 mW of program power.

use mlcx_nand::AgingModel;

use crate::model::SubsystemModel;
use crate::policy::Objective;
use crate::report::Table;

/// One lifetime point of the power ledger (milliwatts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Row {
    /// Program/erase cycles.
    pub cycles: u64,
    /// Baseline NAND program power, mW.
    pub nand_sv_mw: f64,
    /// Cross-layer NAND program power, mW.
    pub nand_dv_mw: f64,
    /// Baseline ECC power, mW.
    pub ecc_sv_mw: f64,
    /// Cross-layer (relaxed) ECC power, mW.
    pub ecc_dv_mw: f64,
}

impl Row {
    /// NAND power increase of the cross-layer mode, mW.
    pub(super) fn nand_penalty_mw(&self) -> f64 {
        self.nand_dv_mw - self.nand_sv_mw
    }

    /// ECC power saving of the cross-layer mode, mW.
    pub(super) fn ecc_saving_mw(&self) -> f64 {
        self.ecc_sv_mw - self.ecc_dv_mw
    }

    /// Net budget change (positive = more power), mW.
    pub(super) fn net_mw(&self) -> f64 {
        self.nand_penalty_mw() - self.ecc_saving_mw()
    }
}

/// Generates the ledger over the lifetime grid.
pub(super) fn generate(model: &SubsystemModel) -> Vec<Row> {
    AgingModel::lifetime_grid(1, 1_000_000, 1)
        .into_iter()
        .map(|cycles| {
            let base = model.configure(Objective::Baseline, cycles);
            let fast = model.configure(Objective::MaxReadThroughput, cycles);
            let mb = model.metrics(&base, cycles);
            let mf = model.metrics(&fast, cycles);
            Row {
                cycles,
                nand_sv_mw: mb.program_power_w * 1e3,
                nand_dv_mw: mf.program_power_w * 1e3,
                ecc_sv_mw: mb.ecc_power_w * 1e3,
                ecc_dv_mw: mf.ecc_power_w * 1e3,
            }
        })
        .collect()
}

/// Renders the table.
pub(super) fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(vec![
        "P/E cycles",
        "NAND SV",
        "NAND DV",
        "ECC SV",
        "ECC DV",
        "net",
    ]);
    for r in rows {
        t.row(vec![
            r.cycles.to_string(),
            format!("{:.1}", r.nand_sv_mw),
            format!("{:.1}", r.nand_dv_mw),
            format!("{:.2}", r.ecc_sv_mw),
            format!("{:.2}", r.ecc_dv_mw),
            format!("{:+.1}", r.net_mw()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_relaxation_at_end_of_life_matches_quotes() {
        // 7 mW -> ~1 mW (Section 6.3.2).
        let model = SubsystemModel::date2012();
        let rows = generate(&model);
        let last = rows.last().unwrap();
        assert!((6.5..7.5).contains(&last.ecc_sv_mw), "{}", last.ecc_sv_mw);
        assert!((0.7..1.5).contains(&last.ecc_dv_mw), "{}", last.ecc_dv_mw);
    }

    #[test]
    fn compensation_shrinks_the_net_change() {
        // At end of life the ECC saving covers most of the NAND penalty:
        // the net budget change is well below the raw penalty.
        let model = SubsystemModel::date2012();
        let last = *generate(&model).last().unwrap();
        assert!(last.nand_penalty_mw() > 3.0);
        assert!(last.net_mw().abs() < last.nand_penalty_mw());
    }

    #[test]
    fn ledger_arithmetic() {
        let r = Row {
            cycles: 1,
            nand_sv_mw: 160.0,
            nand_dv_mw: 167.5,
            ecc_sv_mw: 7.0,
            ecc_dv_mw: 1.0,
        };
        assert!((r.nand_penalty_mw() - 7.5).abs() < 1e-12);
        assert!((r.ecc_saving_mw() - 6.0).abs() < 1e-12);
        assert!((r.net_mw() - 1.5).abs() < 1e-12);
    }
}
