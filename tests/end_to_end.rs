//! End-to-end integration: the full stack (GF arithmetic -> BCH codec ->
//! HV/NAND device -> controller -> cross-layer policy) exercised through
//! the `mlcx` facade.

use mlcx::{
    ConfigCommand, ControllerConfig, DecodeOutcome, MemoryController, Objective, ProgramAlgorithm,
    SubsystemModel,
};

fn fresh_controller(seed: u64) -> MemoryController {
    MemoryController::new(ControllerConfig::date2012(), seed).unwrap()
}

#[test]
fn worn_device_served_by_scheduled_ecc() {
    // Position the device at mid-life, configure the analytically
    // scheduled capability, and push traffic through the real codec.
    let model = SubsystemModel::date2012();
    let cycles = 200_000;
    let op = model.configure(Objective::Baseline, cycles);

    let mut ctrl = fresh_controller(11);
    ctrl.age_block(2, cycles).unwrap();
    ctrl.erase_block(2).unwrap();
    ctrl.apply(ConfigCommand::SetCorrection(op.correction))
        .unwrap();

    let pages = 12;
    let payload: Vec<Vec<u8>> = (0..pages)
        .map(|p| (0..4096).map(|i| ((i + p * 977) % 256) as u8).collect())
        .collect();
    for (p, data) in payload.iter().enumerate() {
        ctrl.write_page(2, p, data).unwrap();
    }
    let mut corrected = 0usize;
    for (p, data) in payload.iter().enumerate() {
        let r = ctrl.read_page(2, p).unwrap();
        assert!(r.outcome.is_success(), "page {p} must decode");
        assert_eq!(&r.data, data, "page {p} must be bit-exact after ECC");
        corrected += r.outcome.corrected_bits();
    }
    // At 2e5 cycles the SV RBER is ~4.7e-4: a 12-page batch carries
    // hundreds of raw bit errors; all must have been corrected.
    assert!(
        corrected > 20,
        "expected raw errors at mid-life, got {corrected}"
    );
}

#[test]
fn under_provisioned_ecc_fails_visibly_then_recovers() {
    // Drive the device to end of life but pin t far below the schedule:
    // uncorrectable pages must surface (sticky status bit), and raising t
    // to the scheduled value must recover the data path for new writes.
    let mut ctrl = fresh_controller(97);
    ctrl.age_block(0, 1_000_000).unwrap();
    ctrl.erase_block(0).unwrap();
    ctrl.apply(ConfigCommand::SetCorrection(3)).unwrap();

    let data = vec![0x3Cu8; 4096];
    let mut uncorrectable = 0;
    for page in 0..8 {
        ctrl.write_page(0, page, &data).unwrap();
    }
    for page in 0..8 {
        let r = ctrl.read_page(0, page).unwrap();
        if r.outcome == DecodeOutcome::Uncorrectable {
            uncorrectable += 1;
        }
    }
    // RBER 1e-3 over ~33k bits = ~33 expected errors per page against
    // t = 3: essentially every page must fail.
    assert!(uncorrectable >= 6, "only {uncorrectable}/8 failed");
    assert!(ctrl.regs().status().uncorrectable_seen);

    // Recover: erase, reconfigure to the scheduled capability, rewrite.
    ctrl.erase_block(0).unwrap();
    ctrl.apply(ConfigCommand::SetCorrection(65)).unwrap();
    for page in 0..8 {
        ctrl.write_page(0, page, &data).unwrap();
    }
    for page in 0..8 {
        let r = ctrl.read_page(0, page).unwrap();
        assert!(r.outcome.is_success());
        assert_eq!(r.data, data);
    }
}

#[test]
fn service_switch_mid_workload_preserves_old_pages() {
    // Pages written under one configuration must stay readable after the
    // host switches service levels (per-page metadata keeps decode
    // parameters consistent).
    let mut ctrl = fresh_controller(5);
    ctrl.age_block(1, 50_000).unwrap();
    ctrl.erase_block(1).unwrap();

    let old_data = vec![0x11u8; 4096];
    ctrl.apply(ConfigCommand::SetCorrection(20)).unwrap();
    ctrl.write_page(1, 0, &old_data).unwrap();

    // Cross-layer switch to max-read mode.
    ctrl.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppDv))
        .unwrap();
    ctrl.apply(ConfigCommand::SetCorrection(7)).unwrap();
    let new_data = vec![0x99u8; 4096];
    ctrl.write_page(1, 1, &new_data).unwrap();

    let old_read = ctrl.read_page(1, 0).unwrap();
    assert_eq!(old_read.t_used, 20, "old page decodes at write-time t");
    assert_eq!(old_read.data, old_data);
    let new_read = ctrl.read_page(1, 1).unwrap();
    assert_eq!(new_read.t_used, 7);
    assert_eq!(new_read.data, new_data);
    // The relaxed page reads faster (shorter decode).
    assert!(new_read.decode_s < old_read.decode_s);
}

#[test]
fn reliability_manager_closed_loop_converges_to_schedule() {
    use mlcx::{ReliabilityManager, ReliabilityPolicy};

    // Feedback-only adaptation must land in the neighbourhood of the
    // analytic schedule without knowing the RBER model.
    let cycles = 1_000_000u64;
    let model = SubsystemModel::date2012();
    let scheduled = model.configure(Objective::Baseline, cycles).correction;

    let mut ctrl = fresh_controller(21);
    let mut mgr = ReliabilityManager::new(ReliabilityPolicy {
        headroom: 2.0,
        epoch_pages: 16,
        tmin: 3,
        tmax: 65,
    });
    ctrl.age_block(0, cycles).unwrap();
    // Start from a mid capability so the loop has to move up.
    ctrl.apply(ConfigCommand::SetCorrection(40)).unwrap();

    let data = vec![0xA5u8; 4096];
    let mut last_t = ctrl.correction();
    for _epoch in 0..4 {
        ctrl.erase_block(0).unwrap();
        for page in 0..16 {
            ctrl.write_page(0, page, &data).unwrap();
        }
        for page in 0..16 {
            let r = ctrl.read_page(0, page).unwrap();
            mgr.observe(&r.outcome);
        }
        if let Some(t) = mgr.take_recommendation() {
            ctrl.apply(ConfigCommand::SetCorrection(t)).unwrap();
            last_t = t;
        }
    }
    // Expected worst page ~ 33 raw errors + headroom 2x -> t in the 50-65
    // band; the analytic schedule says 65.
    assert!(
        last_t >= scheduled / 2 && last_t <= 65,
        "converged t = {last_t}, schedule = {scheduled}"
    );
    assert!(mgr.epochs_closed() >= 4);
}

#[test]
fn codec_stats_flow_through_controller() {
    let mut ctrl = fresh_controller(3);
    ctrl.erase_block(0).unwrap();
    let data = vec![0u8; 4096];
    // The codec's feedback reaches the host in the controller's reports:
    // the read decodes at the capability the write encoded with.
    let w = ctrl.write_page(0, 0, &data).unwrap();
    let r = ctrl.read_page(0, 0).unwrap();
    assert_eq!(w.t_used, r.t_used);
    assert_eq!(r.outcome, DecodeOutcome::Clean);
    assert_eq!(r.outcome.corrected_bits(), 0);
}

#[test]
fn gray_mapping_consistency_across_crates() {
    // The facade re-exports must refer to the same types.
    use mlcx::nand::levels::ThresholdSpec;
    let spec = ThresholdSpec::date2012();
    for level in mlcx::MlcLevel::ALL {
        let (l, u) = level.gray_bits();
        assert_eq!(mlcx::MlcLevel::from_gray_bits(l, u), level);
    }
    assert!(spec.read_v[0] < spec.verify_v[0]);
}
