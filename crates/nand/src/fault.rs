//! Deterministic fault injection for the simulated chip.
//!
//! A [`FaultPlan`] is a pure description of the faults a run should see,
//! seeded through [`swl_core::rng::SplitMix64`] so every decision is
//! reproducible bit-for-bit: the same plan against the same workload fires
//! the same faults at the same operations on every platform. Attach one with
//! [`NandDevice::with_fault_plan`](crate::NandDevice::with_fault_plan).
//!
//! Four fault classes are modelled, matching what translation layers must
//! survive on real NAND:
//!
//! - **Program failures** ([`NandError::ProgramFailed`]): each program draws
//!   against [`FaultPlan::with_program_fail_prob`]. A failed program consumes
//!   the page (torn to invalid, no readable spare) and marks the block
//!   *grown-bad*, so its next erase fails too — the layer must remap the
//!   write and retire the block.
//! - **Erase failures** ([`NandError::EraseFailed`]): drawn against
//!   [`FaultPlan::with_erase_fail_prob`]; grown-bad blocks always fail.
//!   Erase failures are permanent.
//! - **Endurance retirement**: each block gets a private endurance limit
//!   drawn uniformly from [`FaultPlan::with_endurance_range`]; an erase at or
//!   past the limit fails. This models the per-block failure-onset spread of
//!   real chips instead of the single rated constant of
//!   [`CellSpec::endurance`](crate::CellSpec).
//! - **Power cuts** ([`NandError::PowerCut`]): the plan names one mutating
//!   operation (program or erase, counted together from 0) at which power
//!   dies. The in-flight operation is either *torn* — a program leaves the
//!   page invalid with no metadata, an erase collapses the block's pages to
//!   invalid without completing the cycle — or dropped cleanly. Every later
//!   operation fails with [`NandError::PowerCut`] until the harness calls
//!   [`NandDevice::power_cycle`](crate::NandDevice::power_cycle).
//!
//! The per-block endurance limit is derived from the seed and the block
//! index alone (not from the shared draw stream), so it is independent of
//! operation order. A plan with zero probabilities, no endurance range, and
//! no cut point injects nothing and leaves device behaviour bit-identical to
//! having no plan at all.

use swl_core::rng::SplitMix64;

use crate::error::NandError;
use crate::page::PageAddr;

/// A deterministic schedule of device faults; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    program_fail_prob: f64,
    erase_fail_prob: f64,
    endurance_range: Option<(u64, u64)>,
    power_cut_at: Option<u64>,
    torn_cut: bool,
}

impl FaultPlan {
    /// A plan that injects nothing, seeded for later knobs.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            program_fail_prob: 0.0,
            erase_fail_prob: 0.0,
            endurance_range: None,
            power_cut_at: None,
            torn_cut: true,
        }
    }

    /// Each page program fails with probability `p` (builder style).
    pub fn with_program_fail_prob(mut self, p: f64) -> Self {
        self.program_fail_prob = p;
        self
    }

    /// Each block erase fails with probability `p` (builder style).
    pub fn with_erase_fail_prob(mut self, p: f64) -> Self {
        self.erase_fail_prob = p;
        self
    }

    /// Every block draws a private endurance limit uniformly from
    /// `[lo, hi]` erases; an erase at or past the limit fails permanently
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo == 0`.
    pub fn with_endurance_range(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "endurance range must be non-empty");
        assert!(lo > 0, "a zero endurance limit would fail the first erase");
        self.endurance_range = Some((lo, hi));
        self
    }

    /// Power dies at the `op`-th mutating operation (programs and erases
    /// share one 0-based counter). With `torn = true` the in-flight
    /// operation is partially applied; with `false` it is dropped cleanly
    /// (builder style).
    pub fn with_power_cut(mut self, op: u64, torn: bool) -> Self {
        self.power_cut_at = Some(op);
        self.torn_cut = torn;
        self
    }

    /// The seed the plan's draw streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured power-cut operation index, if one is (still) armed.
    pub fn power_cut_at(&self) -> Option<u64> {
        self.power_cut_at
    }

    /// The endurance limit `block` drew from the configured range, if any.
    ///
    /// Deterministic in `(seed, block)` only, so the limit does not depend
    /// on the order in which blocks are touched.
    pub fn endurance_limit(&self, block: u32) -> Option<u64> {
        let (lo, hi) = self.endurance_range?;
        // A throwaway stream keyed by the block index; the multiplier is an
        // arbitrary odd constant to decorrelate adjacent blocks.
        let key = self
            .seed
            .wrapping_add((u64::from(block) + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        Some(SplitMix64::new(key).range_inclusive_u64(lo, hi))
    }
}

/// Live fault-injection state carried by the device: the immutable plan plus
/// the draw stream, grown-bad marks, and the power switch.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    bad: Vec<bool>,
    ops: u64,
    power_cut: bool,
}

/// What the fault layer decided about one mutating operation.
pub(crate) enum FaultDecision {
    /// No fault; perform the operation normally.
    Proceed,
    /// Fail the operation with this error (the caller applies side effects
    /// such as tearing pages before returning it).
    Fail(NandError),
    /// The power-cut point fired on this operation. `torn` says whether the
    /// in-flight operation must be partially applied.
    Cut {
        /// Tear the in-flight operation rather than dropping it cleanly.
        torn: bool,
        /// Operation index at which the cut fired (for telemetry).
        at_op: u64,
    },
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, blocks: u32) -> Self {
        Self {
            plan,
            rng: SplitMix64::new(plan.seed),
            bad: vec![false; blocks as usize],
            ops: 0,
            power_cut: false,
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn is_bad(&self, block: u32) -> bool {
        self.bad.get(block as usize).copied().unwrap_or(false)
    }

    pub(crate) fn mark_bad(&mut self, block: u32) {
        self.bad[block as usize] = true;
    }

    pub(crate) fn power_is_cut(&self) -> bool {
        self.power_cut
    }

    /// Restores power. The consumed cut point stays consumed; arm a new one
    /// with [`rearm_power_cut`](Self::rearm_power_cut) for sweep harnesses.
    pub(crate) fn power_cycle(&mut self) {
        self.power_cut = false;
    }

    pub(crate) fn rearm_power_cut(&mut self, op: u64, torn: bool) {
        self.plan.power_cut_at = Some(op);
        self.plan.torn_cut = torn;
        self.power_cut = false;
    }

    /// Removes a still-armed cut point and restores power. Multi-chip
    /// harnesses use this on the chips whose cut never fired: one shared
    /// power rail dies once, so a cut consumed on any chip is consumed on
    /// all of them.
    pub(crate) fn disarm_power_cut(&mut self) {
        self.plan.power_cut_at = None;
        self.power_cut = false;
    }

    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    /// Runs the shared pre-operation checks for one mutating operation:
    /// consumes the op index, fires the power cut if this is the planned
    /// operation, and otherwise draws the given failure probability.
    ///
    /// Exactly one RNG draw happens per operation with a non-zero
    /// probability, so fault schedules do not shift when unrelated knobs
    /// change.
    fn decide(&mut self, fail_prob: f64, fail: NandError) -> FaultDecision {
        let at_op = self.ops;
        self.ops += 1;
        if self.plan.power_cut_at == Some(at_op) {
            self.plan.power_cut_at = None;
            self.power_cut = true;
            return FaultDecision::Cut {
                torn: self.plan.torn_cut,
                at_op,
            };
        }
        if fail_prob > 0.0 && self.rng.chance(fail_prob) {
            return FaultDecision::Fail(fail);
        }
        FaultDecision::Proceed
    }

    pub(crate) fn decide_program(&mut self, addr: PageAddr) -> FaultDecision {
        self.decide(
            self.plan.program_fail_prob,
            NandError::ProgramFailed { addr },
        )
    }

    pub(crate) fn decide_erase(&mut self, block: u32, erase_count: u64) -> FaultDecision {
        if self.is_bad(block) {
            // Grown-bad blocks fail every erase without consuming an op slot
            // or a draw: the operation is refused up front.
            return FaultDecision::Fail(NandError::EraseFailed { block });
        }
        if let Some(limit) = self.plan.endurance_limit(block) {
            if erase_count >= limit {
                self.mark_bad(block);
                return FaultDecision::Fail(NandError::EraseFailed { block });
            }
        }
        match self.decide(self.plan.erase_fail_prob, NandError::EraseFailed { block }) {
            FaultDecision::Fail(e) => {
                self.mark_bad(block);
                FaultDecision::Fail(e)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endurance_limit_is_order_independent_and_in_range() {
        let plan = FaultPlan::new(99).with_endurance_range(50, 60);
        let a = plan.endurance_limit(7).unwrap();
        let b = plan.endurance_limit(3).unwrap();
        assert_eq!(plan.endurance_limit(7).unwrap(), a);
        assert_eq!(plan.endurance_limit(3).unwrap(), b);
        assert!((50..=60).contains(&a));
        assert!((50..=60).contains(&b));
    }

    #[test]
    fn limits_spread_across_blocks() {
        let plan = FaultPlan::new(1).with_endurance_range(1, 1000);
        let limits: Vec<u64> = (0..32).map(|b| plan.endurance_limit(b).unwrap()).collect();
        let distinct: std::collections::HashSet<u64> = limits.iter().copied().collect();
        assert!(distinct.len() > 20, "limits barely vary: {limits:?}");
    }

    #[test]
    fn no_range_means_no_limit() {
        assert_eq!(FaultPlan::new(5).endurance_limit(0), None);
    }

    #[test]
    fn power_cut_fires_once_at_planned_op() {
        let plan = FaultPlan::new(0).with_power_cut(2, true);
        let mut state = FaultState::new(plan, 4);
        let addr = PageAddr::new(0, 0);
        assert!(matches!(state.decide_program(addr), FaultDecision::Proceed));
        assert!(matches!(state.decide_program(addr), FaultDecision::Proceed));
        match state.decide_program(addr) {
            FaultDecision::Cut {
                torn: true,
                at_op: 2,
            } => {}
            _ => panic!("cut expected at op 2"),
        }
        assert!(state.power_is_cut());
        state.power_cycle();
        assert!(!state.power_is_cut());
        // The cut point is consumed: the same op index does not re-fire.
        assert!(matches!(state.decide_program(addr), FaultDecision::Proceed));
    }

    #[test]
    fn grown_bad_blocks_fail_erases_forever() {
        let mut state = FaultState::new(FaultPlan::new(0), 4);
        assert!(matches!(state.decide_erase(1, 0), FaultDecision::Proceed));
        state.mark_bad(1);
        assert!(matches!(
            state.decide_erase(1, 0),
            FaultDecision::Fail(NandError::EraseFailed { block: 1 })
        ));
        assert!(matches!(
            state.decide_erase(1, 5),
            FaultDecision::Fail(NandError::EraseFailed { block: 1 })
        ));
    }

    #[test]
    fn endurance_limit_marks_block_bad() {
        let plan = FaultPlan::new(3).with_endurance_range(2, 2);
        let mut state = FaultState::new(plan, 2);
        assert!(matches!(state.decide_erase(0, 0), FaultDecision::Proceed));
        assert!(matches!(state.decide_erase(0, 1), FaultDecision::Proceed));
        assert!(matches!(
            state.decide_erase(0, 2),
            FaultDecision::Fail(NandError::EraseFailed { block: 0 })
        ));
        assert!(state.is_bad(0));
    }

    #[test]
    fn program_failures_track_probability() {
        let plan = FaultPlan::new(11).with_program_fail_prob(0.25);
        let mut state = FaultState::new(plan, 1);
        let addr = PageAddr::new(0, 0);
        let fails = (0..4000)
            .filter(|_| matches!(state.decide_program(addr), FaultDecision::Fail(_)))
            .count();
        let rate = fails as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate} drifted");
    }
}
