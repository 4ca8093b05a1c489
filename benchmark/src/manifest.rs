//! The benchmark's metric and workload tables: the single source both the
//! output and `BENCHMARK.json` are rendered from (a unit test keeps the
//! committed file equal to [`render`]).

use std::fmt::Write as _;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures, seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 25;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fresh_mixed",
        why: "Begin of life, clean codewords: per-page fixed costs dominate (bch encode and clean pass, nand page copies, Command allocation, engine dispatch); dirty decode does nothing.",
    },
    Workload {
        name: "eol_read",
        why: "End of life under three objectives: Berlekamp + Chien on error-laden codewords and nand error injection dominate; engine and allocation costs vanish.",
    },
    Workload {
        name: "ftl_churn",
        why: "Write side on clean codewords: LogicalMap planning, GC relocation, sim bookkeeping, payload generation and the verify sweep; a read-path gain that costs writes or GC shows here.",
    },
    Workload {
        name: "tenant_qos",
        why: "Multi-die open loop with many small drains: core.event dispatch, ChannelScheduler and per-drain bookkeeping dominate; the flow p99 is what a tenant sees.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The nine end-to-end metrics, the same on every workload. Host times use
/// the estimator of `estimator.rs`; `sim_*` and `write_amp` are exact for
/// a given seed and their bound only has to cover the spread *across*
/// seeds, because the driver varies the seed between runs. Every bound is
/// at least three times the widest spread measured (see the README).
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_kpages_per_s",
        unit: "kpages/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_mb_per_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_flow_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "sim_flow_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_uj_per_page",
        unit: "uJ",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_neg_log10_uber",
        unit: "-log10",
        better: "higher",
        bound: 0.08,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.08,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, named after the crates. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 45] = [
    layer("core.sim.run_ns_per_page", "ns/page", "lower"),
    layer("core.sim.residual_ns_per_page", "ns/page", "lower"),
    layer("core.sim.trace_gen_ns_per_op", "ns/op", "lower"),
    layer("core.sim.cmds_per_host_page", "ratio", "lower"),
    layer("core.engine.submit_drain_ns_per_cmd", "ns/cmd", "lower"),
    layer("core.engine.self_ns_per_cmd", "ns/cmd", "lower"),
    layer("core.engine.allocs_per_cmd", "allocs/cmd", "lower"),
    layer("core.engine.alloc_bytes_per_cmd", "B/cmd", "lower"),
    layer("core.engine.op_cache_hit_ratio", "ratio", "higher"),
    layer("core.engine.knob_writes_per_kcmd", "1/kcmd", "lower"),
    layer("core.event.queue_wait_share", "ratio", "lower"),
    layer("core.event.achieved_parallelism", "ratio", "higher"),
    layer("core.event.channel_utilization", "ratio", "higher"),
    layer("core.event.deadline_miss_ratio", "ratio", "lower"),
    layer("core.event.arrival_lateness_ms_max", "ms", "lower"),
    layer("core.event.flow_ms_p99_load50", "ms", "lower"),
    layer("core.event.flow_ms_p99_load90", "ms", "lower"),
    layer("core.policy.read_gain_eol_pct", "%", "higher"),
    layer("controller.page_op_ns", "ns/page", "lower"),
    layer("controller.self_ns_per_page", "ns/page", "lower"),
    layer("controller.sim_bus_share", "ratio", "lower"),
    layer("controller.ftl.plan_ns_per_op", "ns/op", "lower"),
    layer(
        "controller.ftl.relocations_per_host_write",
        "ratio",
        "lower",
    ),
    layer(
        "controller.ftl.gc_runs_per_khost_write",
        "1/kwrite",
        "lower",
    ),
    layer("bch.encode_ns_per_page", "ns/page", "lower"),
    layer("bch.decode_clean_ns_per_page", "ns/page", "lower"),
    layer("bch.decode_dirty_ns_per_page", "ns/page", "lower"),
    layer("bch.syndrome_ns_per_page", "ns/page", "lower"),
    layer("bch.berlekamp_ns_per_page", "ns/page", "lower"),
    layer("bch.chien_ns_per_page", "ns/page", "lower"),
    layer("bch.clean_page_ratio", "ratio", "higher"),
    layer("bch.corrected_bits_per_page", "bits/page", "lower"),
    layer("bch.mean_t_used", "bits", "lower"),
    layer("bch.uncorrectable_ratio", "ratio", "lower"),
    layer("bch.sim_ecc_share", "ratio", "lower"),
    layer("nand.program_ns_per_page", "ns/page", "lower"),
    layer("nand.read_ns_per_page", "ns/page", "lower"),
    layer("nand.erase_ns_per_block", "ns/block", "lower"),
    layer("nand.sim_cell_share", "ratio", "lower"),
    layer("hv.execute_ns_per_op", "ns/op", "lower"),
    layer("gf2.field_mul_ns", "ns", "lower"),
    layer("gf2.mul_raw_ns_per_block", "ns/block", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.timer_noise_ratio", "ratio", "lower"),
    layer("bench.completion_digest", "id", "lower"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn render() -> String {
    let mut s = String::from("{\n  \"command\": [");
    for (i, c) in COMMAND.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{c}\"");
    }
    let _ = write!(
        s,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, render(), "regenerate with --print-manifest");
        assert!(committed.len() <= 64 * 1024);
    }
}
