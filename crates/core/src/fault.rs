//! Deterministic program-fault injection.
//!
//! Two-step MLC programming is interruptible: power loss after k of N
//! ISPP pulses leaves a page mid-staircase, where it reads back corrupt
//! until its block is erased (Cai et al., arXiv:1805.03291 catalog the
//! mechanism; Luo, arXiv:1808.04016 the controller-side mitigations).
//! [`FaultPlan`] schedules such interruptions over an engine's program
//! stream: a per-program interruption probability drawn from a
//! dedicated seeded stream — never the device's error-injection RNG, so
//! enabling injection cannot perturb the error sequences of programs
//! that complete, and a disabled plan draws nothing at all (the
//! disabled datapath stays bit-identical).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A deterministic, seed-driven schedule of partial-program (power-loss)
/// faults. The default ([`FaultPlan::disabled`]) injects nothing and
/// costs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that any given program is interrupted mid-staircase
    /// (0.0 disables injection outright; 1.0 interrupts every program).
    pub partial_program_rate: f64,
    /// Fraction of the ISPP staircase an interrupted program completes
    /// before the (modeled) power loss, clamped to `[0.0, 1.0]` by the
    /// device.
    pub partial_program_fraction: f64,
    /// Seed of the injection stream. Independent of the engine/device
    /// seed: the same workload can be replayed under different fault
    /// schedules, or the same schedule over different error streams.
    pub seed: u64,
}

impl FaultPlan {
    /// No injection — the default everywhere, and bit-identical to an
    /// engine without the subsystem.
    pub fn disabled() -> Self {
        FaultPlan {
            partial_program_rate: 0.0,
            partial_program_fraction: 0.5,
            seed: 0,
        }
    }

    /// A demonstration schedule: 5 % of programs interrupted halfway up
    /// the staircase — frequent enough that preset-sized traces hit it.
    pub fn demo(seed: u64) -> Self {
        FaultPlan {
            partial_program_rate: 0.05,
            partial_program_fraction: 0.5,
            seed,
        }
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_enabled(&self) -> bool {
        self.partial_program_rate > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The engine-owned executor of a [`FaultPlan`]: rolls the schedule's
/// own seeded stream once per program *only when the plan is enabled*,
/// so a disabled plan leaves every RNG stream untouched.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// An injector executing `plan` from its seed.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
        }
    }

    /// Decides the fate of the next program: `Some(fraction)` orders an
    /// interruption after that fraction of the staircase, `None` lets
    /// the program complete. Draws nothing under a disabled plan.
    pub fn next_program(&mut self) -> Option<f64> {
        if !self.plan.is_enabled() {
            return None;
        }
        let roll: f64 = self.rng.random();
        (roll < self.plan.partial_program_rate).then_some(self.plan.partial_program_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_injects_and_never_draws() {
        let mut a = FaultInjector::new(FaultPlan::disabled());
        for _ in 0..100 {
            assert_eq!(a.next_program(), None);
        }
    }

    #[test]
    fn enabled_plan_is_a_fixed_function_of_its_seed() {
        let run = |seed: u64| -> Vec<Option<f64>> {
            let mut inj = FaultInjector::new(FaultPlan {
                partial_program_rate: 0.3,
                partial_program_fraction: 0.25,
                seed,
            });
            (0..200).map(|_| inj.next_program()).collect()
        };
        let a = run(9);
        assert_eq!(a, run(9), "same seed, same schedule");
        assert_ne!(a, run(10), "different seed, different schedule");
        let hits = a.iter().flatten().count();
        assert!((20..120).contains(&hits), "rate ~0.3 of 200: {hits}");
        assert!(a.iter().flatten().all(|&f| f == 0.25));
    }

    #[test]
    fn unit_rate_interrupts_every_program() {
        let mut inj = FaultInjector::new(FaultPlan {
            partial_program_rate: 1.0,
            partial_program_fraction: 0.5,
            seed: 3,
        });
        for _ in 0..10 {
            assert_eq!(inj.next_program(), Some(0.5));
        }
    }
}
