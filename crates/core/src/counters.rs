//! The mitigation counter set — declared once, derived in one place,
//! summed by one function.
//!
//! Every trade-off the stack reports on top of the paper's (scrub vs.
//! retry, attacker vs. victim, fault survival) is read off these event
//! counters. [`BatchReport`](crate::engine::BatchReport) and the
//! simulator's `ServicePhaseReport`, `PhaseReport` and `ScenarioReport`
//! each carry one [`Counters`] value; [`Counters::record`] is the only
//! code that turns a command's output into counts (the engine calls it
//! per successful dispatch, the workload runner per completion), and
//! [`Counters::absorb`] is the only code that adds two sets together.
//! A new counter is one field here, one line in `record`, one line in
//! `absorb` and its renderer column.

use mlcx_controller::ReadReport;

use crate::engine::CommandOutput;

/// Event counters of the reliability mitigations (scrub, read-retry)
/// and of the damage they answer (program interference, injected
/// power-loss faults) over some span of commands — one drain, one
/// service-phase, one phase or one whole run, depending on the report
/// that carries the value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Scrub relocations
    /// ([`Command::Relocate`](crate::engine::Command::Relocate))
    /// executed.
    pub scrub_relocations: u64,
    /// Scrub erases
    /// ([`Command::ScrubErase`](crate::engine::Command::ScrubErase))
    /// executed.
    pub scrub_erases: u64,
    /// Device time spent on scrub maintenance (relocations + scrub
    /// erases), seconds — the time paid for reliability instead of host
    /// traffic (already included in the carrying report's device time).
    pub scrub_latency_s: f64,
    /// Reads (host, GC, or scrub-relocation source) whose first sense
    /// was uncorrectable and entered the read-retry ladder (0 with
    /// retry disabled).
    pub retry_reads: u64,
    /// Extra senses the retry ladder issued beyond each read's first.
    pub retry_senses: u64,
    /// Retried reads still uncorrectable after the sense budget.
    pub retry_exhausted: u64,
    /// Device time spent on retry senses, seconds — the read-latency
    /// price of the voltage-domain mitigation (already included in the
    /// read latencies).
    pub retry_latency_s: f64,
    /// Reads (host or GC) whose page carried a nonzero
    /// program-interference RBER term — neighbor coupling, die-level
    /// program disturb, or a partially programmed page — at sense time.
    /// 0 under the default disabled interference model.
    pub interference_reads: u64,
    /// Programs the [`FaultPlan`](crate::FaultPlan) interrupted
    /// mid-staircase (0 with injection disabled).
    pub injected_partial_programs: u64,
}

impl Counters {
    /// Counts one successfully executed command from its output alone.
    pub fn record(&mut self, output: &CommandOutput) {
        match output {
            CommandOutput::Read(r) => {
                self.retries_of(r);
                if r.interference_rber > 0.0 {
                    self.interference_reads += 1;
                }
            }
            CommandOutput::Write(w) => {
                if w.injected_partial {
                    self.injected_partial_programs += 1;
                }
            }
            CommandOutput::Erase { report, scrub } => {
                if *scrub {
                    self.scrub_erases += 1;
                    self.scrub_latency_s += report.duration_s;
                }
            }
            // The source read counts its retries like any read, but not
            // its interference: that counter is host and GC reads only.
            CommandOutput::Relocate { read, write } => {
                self.scrub_relocations += 1;
                self.scrub_latency_s += read.latency_s + write.latency_s;
                self.retries_of(read);
            }
            CommandOutput::Trim { .. } | CommandOutput::Configure { .. } => {}
        }
    }

    /// The retry ladder of one read: counted when it sensed more than
    /// once.
    fn retries_of(&mut self, r: &ReadReport) {
        if r.senses > 1 {
            self.retry_reads += 1;
            self.retry_senses += u64::from(r.senses - 1);
            self.retry_latency_s += r.retry_latency_s;
            if !r.outcome.is_success() {
                self.retry_exhausted += 1;
            }
        }
    }

    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &Counters) {
        // Exhaustive on purpose: a new field that is not summed below
        // fails to compile here.
        let Counters {
            scrub_relocations,
            scrub_erases,
            scrub_latency_s,
            retry_reads,
            retry_senses,
            retry_exhausted,
            retry_latency_s,
            interference_reads,
            injected_partial_programs,
        } = *other;
        self.scrub_relocations += scrub_relocations;
        self.scrub_erases += scrub_erases;
        self.scrub_latency_s += scrub_latency_s;
        self.retry_reads += retry_reads;
        self.retry_senses += retry_senses;
        self.retry_exhausted += retry_exhausted;
        self.retry_latency_s += retry_latency_s;
        self.interference_reads += interference_reads;
        self.injected_partial_programs += injected_partial_programs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Objective;
    use mlcx_bch::DecodeOutcome;
    use mlcx_controller::WriteReport;
    use mlcx_nand::{OpReport, ProgramAlgorithm};

    #[test]
    fn record_reads_each_output_kind_and_absorb_sums_every_field() {
        let erase = OpReport {
            duration_s: 2e-3,
            energy_j: 1e-6,
        };
        let mut c = Counters::default();
        c.record(&CommandOutput::Erase {
            report: erase,
            scrub: false,
        });
        c.record(&CommandOutput::Trim { was_mapped: true });
        c.record(&CommandOutput::Configure {
            previous: Objective::Baseline,
        });
        assert_eq!(c, Counters::default(), "host traffic counts nothing");

        c.record(&CommandOutput::Erase {
            report: erase,
            scrub: true,
        });
        let relocate = |senses: u32, outcome, interference_rber| CommandOutput::Relocate {
            read: Box::new(ReadReport {
                data: vec![0x5A; 8],
                outcome,
                latency_s: 7e-4,
                energy_j: 1e-6,
                sense_s: 0.0,
                transfer_s: 0.0,
                decode_s: 0.0,
                t_used: 3,
                senses,
                reference_offset: 0,
                retry_latency_s: 1e-4 * f64::from(senses - 1),
                interference_rber,
            }),
            write: WriteReport {
                latency_s: 3e-4,
                energy_j: 1e-6,
                load_s: 0.0,
                encode_s: 0.0,
                transfer_s: 0.0,
                program_s: 0.0,
                t_used: 3,
                algorithm: ProgramAlgorithm::IsppSv,
                injected_partial: false,
            },
        };
        // A relocation's source read counts its retries but never its
        // interference.
        c.record(&relocate(1, DecodeOutcome::Clean, 1e-3));
        c.record(&relocate(3, DecodeOutcome::Uncorrectable, 0.0));
        let expected = Counters {
            scrub_relocations: 2,
            scrub_erases: 1,
            scrub_latency_s: 2e-3 + (7e-4 + 3e-4) + (7e-4 + 3e-4),
            retry_reads: 1,
            retry_senses: 2,
            retry_exhausted: 1,
            retry_latency_s: 2e-4,
            ..Counters::default()
        };
        assert_eq!(c, expected);

        let mut sum = Counters {
            interference_reads: 5,
            injected_partial_programs: 7,
            ..expected
        };
        sum.absorb(&expected);
        assert_eq!(sum.scrub_relocations, 4);
        assert_eq!(sum.scrub_erases, 2);
        assert_eq!(sum.scrub_latency_s, 2.0 * expected.scrub_latency_s);
        assert_eq!(sum.retry_reads, 2);
        assert_eq!(sum.retry_senses, 4);
        assert_eq!(sum.retry_exhausted, 2);
        assert_eq!(sum.retry_latency_s, 2.0 * expected.retry_latency_s);
        assert_eq!(
            (sum.interference_reads, sum.injected_partial_programs),
            (5, 7)
        );
    }
}
