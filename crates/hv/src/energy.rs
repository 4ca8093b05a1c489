//! Energy bookkeeping for HV operations.

/// Energy spent in one phase of an operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseEnergy {
    /// Human-readable phase label ("pulse", "verify", ...).
    pub label: &'static str,
    /// Phase duration, seconds.
    pub duration_s: f64,
    /// Supply energy, joules.
    pub energy_j: f64,
}

/// Full energy breakdown of one memory operation (program, read, erase),
/// as [`Sequencer::execute`](crate::Sequencer::execute) returns it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperationEnergy {
    phases: Vec<PhaseEnergy>,
}

impl OperationEnergy {
    /// Builds a report from per-phase records.
    pub(crate) fn from_phases(phases: Vec<PhaseEnergy>) -> Self {
        OperationEnergy { phases }
    }

    /// The per-phase records.
    pub fn phases(&self) -> &[PhaseEnergy] {
        &self.phases
    }

    /// Total supply energy of the operation, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.phases.iter().map(|p| p.energy_j).sum()
    }

    /// Total operation duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OperationEnergy {
        OperationEnergy::from_phases(vec![
            PhaseEnergy {
                label: "pulse",
                duration_s: 10e-6,
                energy_j: 1.5e-6,
            },
            PhaseEnergy {
                label: "verify",
                duration_s: 20e-6,
                energy_j: 3.6e-6,
            },
            PhaseEnergy {
                label: "verify",
                duration_s: 20e-6,
                energy_j: 3.6e-6,
            },
        ])
    }

    #[test]
    fn totals_add_up() {
        let op = sample();
        assert!((op.total_energy_j() - 8.7e-6).abs() < 1e-15);
        assert!((op.duration_s() - 50e-6).abs() < 1e-15);
    }

    #[test]
    fn empty_operation_is_zero_energy() {
        let op = OperationEnergy::default();
        assert_eq!(op.total_energy_j(), 0.0);
    }
}
