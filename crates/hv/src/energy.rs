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

impl PhaseEnergy {
    /// Mean power of the phase, watts.
    pub fn power_w(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.energy_j / self.duration_s
        }
    }
}

/// Full energy breakdown of one memory operation (program, read, erase).
///
/// # Example
///
/// ```
/// use mlcx_hv::{OperationEnergy, PhaseEnergy};
///
/// let op = OperationEnergy::from_phases(vec![
///     PhaseEnergy { label: "pulse", duration_s: 10e-6, energy_j: 1.5e-6 },
///     PhaseEnergy { label: "verify", duration_s: 30e-6, energy_j: 5.4e-6 },
/// ]);
/// assert!((op.total_energy_j() - 6.9e-6).abs() < 1e-12);
/// assert!(op.average_power_w() > 0.15);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperationEnergy {
    phases: Vec<PhaseEnergy>,
}

impl OperationEnergy {
    /// Builds a report from per-phase records.
    pub fn from_phases(phases: Vec<PhaseEnergy>) -> Self {
        OperationEnergy { phases }
    }

    /// The per-phase records.
    pub fn phases(&self) -> &[PhaseEnergy] {
        &self.phases
    }

    /// Appends a phase record.
    pub fn push(&mut self, phase: PhaseEnergy) {
        self.phases.push(phase);
    }

    /// Total supply energy of the operation, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.phases.iter().map(|p| p.energy_j).sum()
    }

    /// Total operation duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// Mean power over the whole operation, watts — the quantity the
    /// paper's Fig. 6 plots.
    pub fn average_power_w(&self) -> f64 {
        let t = self.duration_s();
        if t <= 0.0 {
            0.0
        } else {
            self.total_energy_j() / t
        }
    }
}

/// Accumulates operation energies into device-lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    /// Total accumulated energy, joules.
    pub total_energy_j: f64,
    /// Total accumulated busy time, seconds.
    pub total_time_s: f64,
    /// Number of operations accumulated.
    pub operations: u64,
}

impl EnergyMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Folds one operation into the running totals.
    pub fn record(&mut self, op: &OperationEnergy) {
        self.total_energy_j += op.total_energy_j();
        self.total_time_s += op.duration_s();
        self.operations += 1;
    }

    /// Folds another meter into this one — rolling per-die meters up
    /// into per-channel or subsystem totals.
    pub fn absorb(&mut self, other: &EnergyMeter) {
        self.total_energy_j += other.total_energy_j;
        self.total_time_s += other.total_time_s;
        self.operations += other.operations;
    }

    /// Lifetime average power, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            0.0
        } else {
            self.total_energy_j / self.total_time_s
        }
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
        let avg = op.average_power_w();
        assert!((avg - 8.7e-6 / 50e-6).abs() < 1e-12);
    }

    #[test]
    fn average_power_between_phase_powers() {
        let op = sample();
        let powers: Vec<f64> = op.phases().iter().map(|p| p.power_w()).collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let avg = op.average_power_w();
        assert!(avg >= min && avg <= max);
    }

    #[test]
    fn empty_operation_is_zero_power() {
        let op = OperationEnergy::default();
        assert_eq!(op.average_power_w(), 0.0);
        assert_eq!(op.total_energy_j(), 0.0);
    }

    #[test]
    fn meter_accumulates() {
        let mut meter = EnergyMeter::new();
        let op = sample();
        meter.record(&op);
        meter.record(&op);
        assert_eq!(meter.operations, 2);
        assert!((meter.total_energy_j - 2.0 * op.total_energy_j()).abs() < 1e-15);
        assert!((meter.average_power_w() - op.average_power_w()).abs() < 1e-9);
    }
}
