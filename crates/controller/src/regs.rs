//! Command/status register file.
//!
//! "Configuration commands end up updating/reading from a command/status
//! control register, which drives operation of the core controller."
//! The configured values themselves live where they act — the capability
//! in the codec, the program algorithm in the device, the load strategy
//! in the controller — so the register file holds what only it knows:
//! the sticky status bits and the count of reconfigurations. That count
//! is no copy of a report: no per-operation report carries a register
//! write, and the engine a layer up reads it as its batch's knob writes.

use mlcx_nand::ProgramAlgorithm;

/// Configuration commands accepted over the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigCommand {
    /// Select the BCH correction capability.
    SetCorrection(u32),
    /// Select the device program algorithm.
    SetAlgorithm(ProgramAlgorithm),
    /// Select the page-buffer load strategy.
    SetTwoRoundLoad(bool),
}

/// Sticky status bits the host can poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusFlags {
    /// At least one page decoded uncorrectable.
    pub uncorrectable_seen: bool,
    /// The ECC configuration was changed.
    pub ecc_reconfigured: bool,
}

/// The command/status register file.
///
/// # Example
///
/// ```
/// use mlcx_controller::{ConfigCommand, RegisterFile};
///
/// let mut regs = RegisterFile::default();
/// regs.apply(ConfigCommand::SetCorrection(14));
/// assert_eq!(regs.commands_applied(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegisterFile {
    status: StatusFlags,
    commands_applied: u64,
}

impl RegisterFile {
    /// Records a configuration command the controller has carried out:
    /// counts it, and latches [`StatusFlags::ecc_reconfigured`] on a
    /// capability change.
    pub fn apply(&mut self, cmd: ConfigCommand) {
        if matches!(cmd, ConfigCommand::SetCorrection(_)) {
            self.status.ecc_reconfigured = true;
        }
        self.commands_applied += 1;
    }

    /// Current status flags.
    pub fn status(&self) -> StatusFlags {
        self.status
    }

    /// Mutable status access for the controller/manager.
    pub(crate) fn status_mut(&mut self) -> &mut StatusFlags {
        &mut self.status
    }

    /// Number of configuration commands processed — the paper expects
    /// "(re-)configuration operations will become more frequent", so the
    /// counter is a first-class observable.
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_counts_and_a_capability_change_latches() {
        let mut regs = RegisterFile::default();
        regs.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppDv));
        regs.apply(ConfigCommand::SetTwoRoundLoad(true));
        assert!(!regs.status().ecc_reconfigured);
        regs.apply(ConfigCommand::SetCorrection(14));
        assert!(regs.status().ecc_reconfigured);
        assert_eq!(regs.commands_applied(), 3);
    }

    #[test]
    fn status_bits_stick() {
        let mut regs = RegisterFile::default();
        assert_eq!(regs.status(), StatusFlags::default());
        regs.status_mut().uncorrectable_seen = true;
        assert!(regs.status().uncorrectable_seen);
    }
}
