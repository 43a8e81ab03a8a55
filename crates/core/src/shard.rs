//! Global unevenness over several BET shards.
//!
//! A multi-channel array runs one [`SwLeveler`] per channel (a *shard*): each
//! shard watches only its own lane's erases, so its `ecnt`/`fcnt` pair is a
//! local view. The coordinator in the simulator instead levels against the
//! **global** unevenness — the ratio of summed erase counts to summed set
//! flags across all shards — and, when it is over threshold, runs one
//! SWL-Procedure step on the *worst* shard (the one with the highest local
//! ratio).
//!
//! Picking the worst shard is sound because of the mediant inequality:
//!
//! ```text
//! Σeᵢ / Σfᵢ  ≤  max(eᵢ / fᵢ)
//! ```
//!
//! so whenever the global ratio is over `T`, at least one shard is also over
//! `T` locally — the argmax shard — and a step there is always actionable
//! (any shard with `eᵢ > 0` has `fᵢ ≥ 1`, because SWL-BETUpdate sets a flag
//! on the very first erase it observes).
//!
//! Ratios are compared by cross-multiplication in `u128`, so the selection
//! is exact and deterministic (ties break toward the lowest shard index) —
//! no floating point anywhere near the control loop.
//!
//! A coordinator does not decide on its own when a pass is over: every
//! coordinator asks one [`StallRule`] which shard to step next and tells it
//! what each step did, so the single-threaded oracle and the threaded engine
//! take the same steps by construction.

use crate::leveler::SwLeveler;

/// One shard's contribution to the global unevenness: its interval-local
/// erase count and set-flag count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardView {
    /// Erases observed this resetting interval (the shard's `ecnt`).
    pub ecnt: u64,
    /// BET flags set this resetting interval (the shard's `fcnt`).
    pub fcnt: u64,
}

impl ShardView {
    /// Snapshot of one leveler's interval counters.
    pub fn of(leveler: &SwLeveler) -> Self {
        Self {
            ecnt: leveler.ecnt(),
            fcnt: leveler.fcnt() as u64,
        }
    }
}

/// Global unevenness level `Σecnt / Σfcnt` across shards, or `None` while no
/// shard has a set flag (mirrors [`SwLeveler::unevenness`]).
pub fn global_unevenness(views: &[ShardView]) -> Option<f64> {
    let ecnt: u64 = views.iter().map(|v| v.ecnt).sum();
    let fcnt: u64 = views.iter().map(|v| v.fcnt).sum();
    (fcnt > 0).then(|| ecnt as f64 / fcnt as f64)
}

/// Whether the global unevenness has reached `threshold` — the multi-shard
/// analogue of step 2 of Algorithm 1, evaluated exactly in integers:
/// `Σecnt ≥ T · Σfcnt` with `Σfcnt > 0`.
pub fn global_over_threshold(views: &[ShardView], threshold: u64) -> bool {
    let ecnt: u64 = views.iter().map(|v| v.ecnt).sum();
    let fcnt: u64 = views.iter().map(|v| v.fcnt).sum();
    fcnt > 0 && u128::from(ecnt) >= u128::from(threshold) * u128::from(fcnt)
}

/// Index of the shard with the highest local unevenness `eᵢ / fᵢ`.
///
/// Shards with `fcnt == 0` are skipped (their ratio is undefined and they
/// contribute nothing to the global numerator either, since a shard's first
/// observed erase always sets a flag). Ties break toward the lowest index so
/// the selection is deterministic. Returns `None` when every shard has
/// `fcnt == 0`.
pub fn worst_shard(views: &[ShardView]) -> Option<usize> {
    let mut best: Option<(usize, ShardView)> = None;
    for (i, &v) in views.iter().enumerate() {
        if v.fcnt == 0 {
            continue;
        }
        let beats = match best {
            None => true,
            // v.ecnt / v.fcnt > b.ecnt / b.fcnt, exactly.
            Some((_, b)) => {
                u128::from(v.ecnt) * u128::from(b.fcnt) > u128::from(b.ecnt) * u128::from(v.fcnt)
            }
        };
        if beats {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// When a global-coordination pass steps and when it gives up — the
/// multi-shard form of [`SwLeveler::level`]'s termination guard and stall
/// latch, kept here so every coordinator applies the same one.
///
/// While the global unevenness is over threshold the worst shard is stepped.
/// A step that moves neither of that shard's counters was fruitless, and
/// leaves the same shard worst; once such steps have covered the shard's
/// clear flags (`flags − fcnt` of them in a row) the Cleaner cannot touch any
/// set the shard has left, by [`crate::SwlCleaner`]'s no-erase contract. The
/// pass ends and the stall is latched on the shard's `fcnt`: the coordinator
/// is at rest while the worst shard is one still at the `fcnt` it stalled at,
/// however far over threshold the array is. Only an erase can change which
/// shard is worst or move an `fcnt`. A step that does move a counter drops
/// its shard's latch, as an interval reset does in the leveler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallRule {
    /// Consecutive fruitless steps of the pass under way.
    fruitless: u64,
    /// Per shard, the `fcnt` at which it was last seen to stall.
    stalled_at: Vec<Option<u64>>,
}

impl StallRule {
    /// The rule for a coordinator over `shards` shards, none stalled.
    pub fn new(shards: usize) -> Self {
        Self {
            fruitless: 0,
            stalled_at: vec![None; shards],
        }
    }

    /// The shard to step next, or `None` when the coordinator is at rest:
    /// the global level is under `threshold`, or the worst shard's stall is
    /// latched.
    pub fn next_step(&self, views: &[ShardView], threshold: u64) -> Option<usize> {
        if !global_over_threshold(views, threshold) {
            return None;
        }
        let worst = worst_shard(views)?;
        (self.stalled_at[worst] != Some(views[worst].fcnt)).then_some(worst)
    }

    /// Records one step on `shard`: its view `before` and `after`, and the
    /// size of its BET in flags, set or clear (`flags − before.fcnt` of them
    /// are clear: the step budget). `false` ends the pass — the shard has
    /// stalled.
    pub fn stepped(
        &mut self,
        shard: usize,
        before: ShardView,
        after: ShardView,
        flags: u64,
    ) -> bool {
        if after != before {
            self.fruitless = 0;
            self.stalled_at[shard] = None;
            return true;
        }
        self.fruitless += 1;
        if self.fruitless < flags - before.fcnt {
            return true;
        }
        self.fruitless = 0;
        self.stalled_at[shard] = Some(before.fcnt);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwlConfig;

    fn v(ecnt: u64, fcnt: u64) -> ShardView {
        ShardView { ecnt, fcnt }
    }

    #[test]
    fn of_snapshots_leveler_counters() {
        let mut l = SwLeveler::new(8, SwlConfig::new(10, 1)).unwrap();
        l.note_erase(3);
        l.note_erase(2);
        let view = ShardView::of(&l);
        assert_eq!(view, v(2, 1));
    }

    #[test]
    fn global_unevenness_sums_shards() {
        assert_eq!(global_unevenness(&[v(0, 0), v(0, 0)]), None);
        assert_eq!(global_unevenness(&[v(6, 1), v(2, 3)]), Some(2.0));
    }

    #[test]
    fn global_threshold_is_exact() {
        // 7/3 < 3 but 9/3 ≥ 3: no float rounding at the boundary.
        assert!(!global_over_threshold(&[v(7, 3)], 3));
        assert!(global_over_threshold(&[v(9, 3)], 3));
        assert!(global_over_threshold(&[v(4, 1), v(5, 2)], 3));
        // No set flags anywhere → never over threshold.
        assert!(!global_over_threshold(&[v(0, 0), v(0, 0)], 1));
    }

    #[test]
    fn worst_shard_picks_highest_ratio() {
        assert_eq!(worst_shard(&[v(2, 1), v(9, 2), v(3, 3)]), Some(1));
        assert_eq!(worst_shard(&[v(0, 0), v(1, 1)]), Some(1));
        assert_eq!(worst_shard(&[v(0, 0), v(0, 0)]), None);
    }

    #[test]
    fn worst_shard_ties_break_low() {
        assert_eq!(worst_shard(&[v(4, 2), v(2, 1), v(6, 3)]), Some(0));
    }

    #[test]
    fn worst_shard_exact_on_huge_counts() {
        // Ratios differing by 1 part in 2^60 would collide in f64.
        let a = v(u64::MAX / 2, u64::MAX / 4);
        let b = v(u64::MAX / 2 + 1, u64::MAX / 4);
        assert_eq!(worst_shard(&[a, b]), Some(1));
    }

    #[test]
    fn stall_rule_steps_the_worst_shard_while_over_threshold() {
        let rule = StallRule::new(2);
        assert_eq!(rule.next_step(&[v(2, 1), v(9, 2)], 3), Some(1));
        assert_eq!(rule.next_step(&[v(2, 1), v(3, 2)], 3), None, "under T");
        assert_eq!(rule.next_step(&[v(0, 0), v(0, 0)], 1), None);
    }

    #[test]
    fn stall_rule_gives_up_after_a_lap_of_the_clear_flags() {
        // Shard 1: 8 flags, 5 set — a lap is 3 steps.
        let views = [v(2, 1), v(90, 5)];
        let mut rule = StallRule::new(2);
        for lap_step in 0..3 {
            assert_eq!(rule.next_step(&views, 3), Some(1));
            let go_on = rule.stepped(1, views[1], views[1], 8);
            assert_eq!(go_on, lap_step < 2);
        }
        // Latched: at rest, however far over threshold.
        assert_eq!(rule.next_step(&views, 3), None);
        // More erases at the same fcnt change nothing...
        assert_eq!(rule.next_step(&[v(2, 1), v(95, 5)], 3), None);
        // ...a moved fcnt, or another shard turning worst, does.
        assert_eq!(rule.next_step(&[v(2, 1), v(95, 6)], 3), Some(1));
        assert_eq!(rule.next_step(&[v(99, 1), v(95, 5)], 3), Some(0));
        // Each shard keeps its own latch.
        assert!(!rule.stepped(0, v(99, 1), v(99, 1), 2));
        assert_eq!(rule.next_step(&[v(99, 1), v(95, 5)], 3), None);
        assert_eq!(rule.next_step(&[v(9, 1), v(95, 5)], 3), None);
    }

    #[test]
    fn stall_rule_progress_restarts_the_lap_and_drops_the_latch() {
        let mut rule = StallRule::new(1);
        let before = v(90, 5);
        assert!(rule.stepped(0, before, before, 8));
        assert!(rule.stepped(0, before, before, 8));
        // An erase: the streak starts over, three more fruitless steps fit.
        assert!(rule.stepped(0, before, v(91, 5), 8));
        let before = v(91, 5);
        assert!(rule.stepped(0, before, before, 8));
        assert!(rule.stepped(0, before, before, 8));
        assert!(!rule.stepped(0, before, before, 8));
        assert_eq!(rule.next_step(&[before], 3), None);
        // A step that moves the shard (here an interval reset and regrowth
        // to the same fcnt) forgets the stall.
        assert!(rule.stepped(0, before, v(0, 0), 8));
        assert_eq!(rule.next_step(&[before], 3), Some(0));
    }

    #[test]
    fn mediant_inequality_holds() {
        // Σe/Σf ≤ max(eᵢ/fᵢ): whenever the global level is over T, the
        // worst shard is too — the coordinator's progress argument.
        let cases: &[&[ShardView]] = &[
            &[v(8, 1), v(1, 5)],
            &[v(3, 2), v(7, 2), v(0, 0)],
            &[v(100, 1), v(1, 100), v(50, 50)],
        ];
        for views in cases {
            let Some(global) = global_unevenness(views) else {
                continue;
            };
            let worst = worst_shard(views).unwrap();
            let w = views[worst];
            assert!(
                global <= w.ecnt as f64 / w.fcnt as f64 + 1e-12,
                "mediant inequality violated for {views:?}"
            );
            // And the exact integer check agrees at the threshold.
            let t = global.ceil() as u64;
            if global_over_threshold(views, t) {
                assert!(u128::from(w.ecnt) >= u128::from(t) * u128::from(w.fcnt));
            }
        }
    }
}
