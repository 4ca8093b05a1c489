//! Regenerates every table and figure of the paper's evaluation section
//! (Fig. 4 through Fig. 11, the lost ISPP-DV twin of Fig. 7, and the
//! Section 6.3.2 power ledger) plus the three architecture ablations, as
//! ASCII tables.
//!
//! Run with: `cargo run --release --example reproduce_figures`
//!
//! Pass `--csv <dir>` to also dump each series as a CSV file.

use std::env;
use std::fs;

use mlcx::xlayer::experiments::{self, fig04, fig07, fig07dv};
use mlcx::SubsystemModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = SubsystemModel::date2012();
    print!("{}", experiments::render_all(&model));

    println!("Fig. 7 working points (RBER served at UBER = 1e-11):");
    for (t, rber) in fig07::working_points(&model) {
        println!("  t = {t:>2}  ->  RBER {rber:.3e}");
    }
    println!("Fig. ?? (ISPP-DV) working points:");
    for (t, rber) in fig07dv::working_points(&model) {
        println!("  t = {t:>2}  ->  RBER {rber:.3e}");
    }
    println!("Fig. 4 fit RMS error: {:.3} V", fig04::rms_error_v());

    let args: Vec<String> = env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let dir = args.get(pos + 1).cloned().unwrap_or_else(|| ".".into());
        fs::create_dir_all(&dir)?;
        for (stem, _, table) in experiments::tables(&model) {
            fs::write(format!("{dir}/{stem}.csv"), table.to_csv())?;
        }
        println!("CSV series written to {dir}/");
    }
    Ok(())
}
