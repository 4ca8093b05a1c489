//! Mission-critical storage scenario (paper Section 6.3.1): web-payment
//! records, OS upgrade images, internal backups. The host asks for
//! *minimum UBER*; the cross-layer framework answers by switching the
//! physical layer to ISPP-DV while keeping the ECC schedule — UBER drops
//! by orders of magnitude with **zero read-throughput cost**, paying only
//! in write throughput and ~7.5 mW of program power.
//!
//! Run with: `cargo run --release --example secure_storage`

use mlcx::{Objective, SubsystemModel};

fn main() {
    // The paper's calibration. The fields are `pub`: tighten
    // `uber_target` here to explore stricter mission profiles.
    let model = SubsystemModel::date2012();
    println!("mission-critical storage: min-UBER mode vs baseline\n");
    println!(
        "{:>10} {:>4} {:>22} {:>22} {:>12} {:>12} {:>12}",
        "cycles",
        "t",
        "log10 UBER (base)",
        "log10 UBER (minUBER)",
        "read MB/s",
        "write MB/s",
        "dPower mW"
    );

    for cycles in [1u64, 100, 10_000, 100_000, 1_000_000] {
        let base = model.configure(Objective::Baseline, cycles);
        let safe = model.configure(Objective::MinUber, cycles);
        let mb = model.metrics(&base, cycles);
        let ms = model.metrics(&safe, cycles);
        assert_eq!(base.correction, safe.correction, "same ECC schedule");
        println!(
            "{:>10} {:>4} {:>22.2} {:>22.2} {:>12.2} {:>12.2} {:>12.1}",
            cycles,
            safe.correction,
            mb.log10_uber,
            ms.log10_uber,
            ms.read_mbps,
            ms.write_mbps,
            (ms.program_power_w - mb.program_power_w) * 1e3,
        );
        // The paper's claims, checked live:
        assert!(ms.log10_uber < mb.log10_uber, "UBER must improve");
        assert!(
            (ms.read_mbps - mb.read_mbps).abs() < 1e-9,
            "read throughput must be untouched"
        );
        assert!(
            ms.write_mbps < mb.write_mbps,
            "write throughput is the price"
        );
    }

    println!("\nUBER improves by orders of magnitude at identical read throughput;");
    println!("write throughput and a few mW of program power are the price —");
    println!("ideal for one-time-programmable and execute-in-place sectors.");
}
