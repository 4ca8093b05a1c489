//! One generator per figure of the paper's evaluation (Section 6).
//!
//! Each module produces the same series its figure plots, as typed rows
//! plus a rendered [`crate::report::Table`]. The `reproduce_figures`
//! example prints every table; `EXPERIMENTS.md` records
//! paper-vs-measured.
//!
//! | Module | Paper figure | Content |
//! |--------|--------------|---------|
//! | [`fig04`] | Fig. 4 | compact-model fit: VTH vs. VCG staircase |
//! | [`fig05`] | Fig. 5 | RBER vs. P/E cycles, ISPP-SV vs. ISPP-DV |
//! | [`fig06`] | Fig. 6 | program power, {SV, DV} x {L1, L2, L3} |
//! | [`fig07`] | Fig. 7 | UBER vs. RBER, ISPP-SV capability set |
//! | [`fig07dv`] | "Fig. ??" | UBER vs. RBER, ISPP-DV capability set |
//! | [`fig08`] | Fig. 8 | ECC encode/decode latency over lifetime |
//! | [`fig09`] | Fig. 9 | write-throughput loss over lifetime |
//! | [`fig10`] | Fig. 10 | UBER: nominal vs. physical-layer modification |
//! | [`fig11`] | Fig. 11 | read-throughput gain over lifetime |
//! | `power_budget` | Section 6.3.2 | ECC vs. NAND power compensation |
//! | `ablation` | (extension) | sensitivity of the headline numbers to h, p, bus rate and load strategy |

mod ablation;
mod power_budget;

pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig07dv;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;

use crate::model::SubsystemModel;
use crate::report::Table;

/// Every experiment table, in paper order (the ablations last), as
/// `(file stem, section title, table)`.
pub fn tables(model: &SubsystemModel) -> Vec<(&'static str, &'static str, Table)> {
    vec![
        (
            "fig04",
            "Fig. 4 — compact model fit (VTH vs VCG, 7us pulses, 1V steps)",
            fig04::table(&fig04::generate()),
        ),
        (
            "fig05",
            "Fig. 5 — RBER vs P/E cycles",
            fig05::table(&fig05::generate(model)),
        ),
        (
            "fig06",
            "Fig. 6 — program power vs P/E cycles [W]",
            fig06::table(&fig06::generate(model)),
        ),
        (
            "fig07",
            "Fig. 7 — UBER vs RBER (ISPP-SV), log10(UBER)",
            fig07::table(&fig07::generate(model)),
        ),
        (
            "fig07dv",
            "Fig. ?? — UBER vs RBER (ISPP-DV), log10(UBER)",
            fig07dv::table(&fig07dv::generate(model)),
        ),
        (
            "fig08",
            "Fig. 8 — ECC latency vs P/E cycles (80 MHz) [us]",
            fig08::table(&fig08::generate(model)),
        ),
        (
            "fig09",
            "Fig. 9 — write throughput loss [%]",
            fig09::table(&fig09::generate(model)),
        ),
        (
            "fig10",
            "Fig. 10 — UBER improvement (nominal vs physical-layer mod)",
            fig10::table(&fig10::generate(model)),
        ),
        (
            "fig11",
            "Fig. 11 — read throughput gain [%]",
            fig11::table(&fig11::generate(model)),
        ),
        (
            "power_budget",
            "Section 6.3.2 — power budget compensation [mW]",
            power_budget::table(&power_budget::generate(model)),
        ),
        (
            "ablation_chien",
            "Ablation — Chien multiplier pool",
            ablation::chien_table(&ablation::chien_parallelism(model, &[1, 2, 4, 8, 16])),
        ),
        (
            "ablation_bus",
            "Ablation — flash bus rate",
            ablation::bus_table(&ablation::bus_rate(
                model,
                &[16.0, 32.0, 66.0, 133.0, 200.0],
            )),
        ),
        (
            "ablation_load",
            "Ablation — buffer load strategy",
            ablation::load_table(&ablation::load_strategy(model)),
        ),
    ]
}

/// Renders every experiment table, in paper order, with headers.
pub fn render_all(model: &SubsystemModel) -> String {
    let mut out = String::new();
    for (_, title, table) in tables(model) {
        out.push_str("== ");
        out.push_str(title);
        out.push_str(" ==\n");
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_all_contains_every_section() {
        let model = SubsystemModel::date2012();
        let all = render_all(&model);
        for needle in [
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Fig. ??",
            "Fig. 8",
            "Fig. 9",
            "Fig. 10",
            "Fig. 11",
            "power budget",
            "Chien multiplier pool",
            "flash bus rate",
            "buffer load strategy",
        ] {
            assert!(all.contains(needle), "missing section {needle}");
        }
    }
}
