//! Architecture ablations — sensitivity of the paper's headline numbers
//! to the design choices the reproduction had to fix.
//!
//! Not a paper figure: these sweeps justify (a) the Chien multiplier-pool
//! basis `h = 4` and datapath width `p = 8` behind the Fig. 8 latency
//! envelope, (b) the 32 MB/s flash bus behind the Fig. 11 read gain, and
//! (c) the two-round load mitigation of Section 6.3.3.

use mlcx_controller::LoadStrategy;

use crate::model::SubsystemModel;
use crate::policy::Objective;
use crate::report::Table;

/// One row of the Chien-parallelism ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct ChienRow {
    /// Pool basis `h` (evaluations per clock at `t = tmax`).
    pub h: u32,
    /// Worst-case decode latency (t = 65), microseconds.
    pub decode_t65_us: f64,
    /// End-of-life read gain of the cross-layer mode, percent.
    pub eol_read_gain_percent: f64,
}

/// Sweeps the Chien multiplier-pool basis.
pub(super) fn chien_parallelism(model: &SubsystemModel, h_values: &[u32]) -> Vec<ChienRow> {
    h_values
        .iter()
        .map(|&h| {
            let mut m = model.clone();
            m.ecc_hw.chien_parallelism = h;
            let n65 = m.k_bits + m.parity_bits(65);
            let base = m.configure(Objective::Baseline, 1_000_000);
            let fast = m.configure(Objective::MaxReadThroughput, 1_000_000);
            let rb = m.read_path(base.correction).throughput_mbps(m.k_bits / 8);
            let rf = m.read_path(fast.correction).throughput_mbps(m.k_bits / 8);
            ChienRow {
                h,
                decode_t65_us: m.ecc_hw.decode_latency_s(n65, 65) * 1e6,
                eol_read_gain_percent: (rf / rb - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Renders the Chien ablation.
pub(super) fn chien_table(rows: &[ChienRow]) -> Table {
    let mut t = Table::new(vec!["h", "decode(t=65) [us]", "EOL read gain [%]"]);
    for r in rows {
        t.row(vec![
            r.h.to_string(),
            format!("{:.1}", r.decode_t65_us),
            format!("{:.1}", r.eol_read_gain_percent),
        ]);
    }
    t
}

/// One row of the bus-rate ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct BusRow {
    /// Flash bus rate, MB/s.
    pub bus_mbps: f64,
    /// Baseline end-of-life read throughput, MB/s.
    pub baseline_read_mbps: f64,
    /// End-of-life read gain of the cross-layer mode, percent.
    pub eol_read_gain_percent: f64,
}

/// Sweeps the flash bus rate: faster buses make the decode latency a
/// larger share of the read path, *amplifying* the cross-layer gain.
pub(super) fn bus_rate(model: &SubsystemModel, rates_mbps: &[f64]) -> Vec<BusRow> {
    rates_mbps
        .iter()
        .map(|&rate| {
            let mut m = model.clone();
            m.bus.bus_rate_bps = rate * 1e6;
            let base = m.configure(Objective::Baseline, 1_000_000);
            let fast = m.configure(Objective::MaxReadThroughput, 1_000_000);
            let rb = m.read_path(base.correction).throughput_mbps(m.k_bits / 8);
            let rf = m.read_path(fast.correction).throughput_mbps(m.k_bits / 8);
            BusRow {
                bus_mbps: rate,
                baseline_read_mbps: rb,
                eol_read_gain_percent: (rf / rb - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Renders the bus ablation.
pub(super) fn bus_table(rows: &[BusRow]) -> Table {
    let mut t = Table::new(vec!["bus [MB/s]", "baseline read [MB/s]", "EOL gain [%]"]);
    for r in rows {
        t.row(vec![
            format!("{:.0}", r.bus_mbps),
            format!("{:.2}", r.baseline_read_mbps),
            format!("{:.1}", r.eol_read_gain_percent),
        ]);
    }
    t
}

/// One row of the load-strategy ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct LoadRow {
    /// Whether two-round loading is enabled.
    pub two_round: bool,
    /// Fresh ISPP-DV write throughput, MB/s (what the mitigation buys).
    pub fresh_dv_write_mbps: f64,
    /// Fresh write loss, percent.
    pub fresh_loss_percent: f64,
    /// End-of-life write loss, percent.
    pub eol_loss_percent: f64,
}

/// Compares the write loss under both buffer-load strategies.
pub(super) fn load_strategy(model: &SubsystemModel) -> Vec<LoadRow> {
    [LoadStrategy::OneRound, LoadStrategy::TwoRound]
        .into_iter()
        .map(|strategy| {
            let mut m = model.clone();
            m.load_strategy = strategy;
            let eval = |cycles: u64| {
                let base = m.configure(Objective::Baseline, cycles);
                let cross = m.configure(Objective::MaxReadThroughput, cycles);
                let wb = m.write_path(&base, cycles).throughput_mbps(m.k_bits / 8);
                let wc = m.write_path(&cross, cycles).throughput_mbps(m.k_bits / 8);
                (wc, (1.0 - wc / wb) * 100.0)
            };
            let (fresh_dv, fresh_loss) = eval(1);
            let (_, eol_loss) = eval(1_000_000);
            LoadRow {
                two_round: strategy == LoadStrategy::TwoRound,
                fresh_dv_write_mbps: fresh_dv,
                fresh_loss_percent: fresh_loss,
                eol_loss_percent: eol_loss,
            }
        })
        .collect()
}

/// Renders the load-strategy ablation.
pub(super) fn load_table(rows: &[LoadRow]) -> Table {
    let mut t = Table::new(vec![
        "two-round",
        "DV write [MB/s]",
        "fresh loss [%]",
        "EOL loss [%]",
    ]);
    for r in rows {
        t.row(vec![
            r.two_round.to_string(),
            format!("{:.2}", r.fresh_dv_write_mbps),
            format!("{:.1}", r.fresh_loss_percent),
            format!("{:.1}", r.eol_loss_percent),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chien_pool_sizing_explains_fig8() {
        let model = SubsystemModel::date2012();
        let rows = chien_parallelism(&model, &[2, 4, 8]);
        // Decode latency halves-ish with each doubling of h.
        assert!(rows[0].decode_t65_us > rows[1].decode_t65_us);
        assert!(rows[1].decode_t65_us > rows[2].decode_t65_us);
        // h = 4 is the configuration that reproduces the paper's ~160 us.
        assert!((150.0..170.0).contains(&rows[1].decode_t65_us));
        // Bigger pools shrink the decode share, and with it the gain.
        assert!(rows[0].eol_read_gain_percent > rows[2].eol_read_gain_percent);
    }

    #[test]
    fn slower_buses_dilute_the_read_gain() {
        let model = SubsystemModel::date2012();
        let rows = bus_rate(&model, &[16.0, 32.0, 66.0, 200.0]);
        for pair in rows.windows(2) {
            assert!(
                pair[1].eol_read_gain_percent > pair[0].eol_read_gain_percent,
                "gain must grow with bus rate"
            );
            assert!(pair[1].baseline_read_mbps > pair[0].baseline_read_mbps);
        }
        // The paper-era 32 MB/s bus lands on the ~30 % figure.
        let at32 = rows.iter().find(|r| r.bus_mbps == 32.0).unwrap();
        assert!((25.0..35.0).contains(&at32.eol_read_gain_percent));
    }

    #[test]
    fn two_round_load_buys_absolute_write_throughput() {
        // Section 6.3.3's mitigation: overlapping the buffer load raises
        // the DV path's *absolute* write throughput. The relative loss
        // vs. the (equally accelerated) baseline barely moves — the
        // overhead is intrinsic to the slower program algorithm.
        let model = SubsystemModel::date2012();
        let rows = load_strategy(&model);
        let one = rows.iter().find(|r| !r.two_round).unwrap();
        let two = rows.iter().find(|r| r.two_round).unwrap();
        assert!(two.fresh_dv_write_mbps > one.fresh_dv_write_mbps);
        assert!((two.fresh_loss_percent - one.fresh_loss_percent).abs() < 2.0);
    }

    #[test]
    fn tables_render() {
        let model = SubsystemModel::date2012();
        assert!(!chien_table(&chien_parallelism(&model, &[4])).is_empty());
        assert!(!bus_table(&bus_rate(&model, &[32.0])).is_empty());
        assert!(!load_table(&load_strategy(&model)).is_empty());
    }
}
