//! The centre candidates the engine keeps across epochs.
//!
//! `TopKGamma` and `GammaGap` read only the m best points of the window by
//! [`gamma_key`], the raw `fl(ρ·δ)` (m = `k`, or `max_centers + 1`, at most
//! n). [`TopSet`] keeps the points whose key lies above a bar, set at the
//! 2m-th key when the window is scanned, and carries them over each epoch:
//! the members are renamed through the epoch's pre-epoch → final id map,
//! the expired ones are dropped, and the members and the points whose ρ or
//! δ changed are keyed again.
//!
//! One invariant makes the set exact: **every point outside it has a key
//! at or below the bar**. A key depends only on the point's own ρ and δ, so
//! it moves only for the points an epoch re-keys, and each of those joins,
//! stays in or leaves the set by comparing its new key with the bar. A
//! swap-remove rename changes an id but no key: a renamed member is renamed
//! in the set, and a renamed outsider stays at or below the bar, where a
//! tie never counts. So while at least m members lie strictly above the bar, the m
//! best points of the window are the m best members, ties to the smaller
//! id included, bit for bit what a pass over the window would rank.
//!
//! The window is scanned again when fewer than m members remain, when the
//! set grows past 4m, and on every epoch that relabels every point
//! (seeding, a re-rank, a decay tick, the epoch after a failed recluster),
//! which lists no changed points. The engine's indexes are exact, so a δ is
//! finite unless a squared distance overflows. The batch clips an infinite
//! δ to the largest finite one, which any δ of the window can move, so
//! while one is present the set stays empty and every epoch ranks the
//! clipped δ by a scan.

use dpc_core::decision::{gamma_key, top_by_gamma, top_keys};
use dpc_core::{DeltaResult, PointId, Rho};

/// A scan sets the bar at the `KEEP · m`-th key.
const KEEP: usize = 2;
/// A set of more than `GROW · m` members is rebuilt by a scan.
const GROW: usize = 4;

/// The points whose γ key lies above a bar; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct TopSet {
    /// `(key, id)` of every point whose key lies above `bar`. Between
    /// [`carry`](Self::carry) and [`best`](Self::best) a point may appear
    /// more than once, always with the same key.
    members: Vec<(f64, PointId)>,
    /// No point outside `members` has a key above it. +∞ while the set is
    /// stale, so that the next ranking scans the window.
    bar: f64,
}

impl Default for TopSet {
    fn default() -> Self {
        TopSet {
            members: Vec::new(),
            bar: f64::INFINITY,
        }
    }
}

impl TopSet {
    /// Forgets the set: the next [`best`](Self::best) scans the window.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
        self.bar = f64::INFINITY;
    }

    /// Carries the set over one epoch: renames the members through
    /// `final_of_old` (pre-epoch id → final id, `None` = expired) and keys
    /// them again, then keys the `changed` points, the only others whose ρ
    /// or δ moved (a point may be listed more than once). Re-keying the at
    /// most 4m members spares a membership test per changed point. Returns
    /// how many keys it computed.
    pub(crate) fn carry(
        &mut self,
        final_of_old: &[Option<PointId>],
        changed: impl IntoIterator<Item = PointId>,
        rho: &[Rho],
        delta: &[f64],
    ) -> usize {
        let bar = self.bar;
        let (mut keyed, mut finite) = (0, true);
        let mut key = |p: PointId| {
            keyed += 1;
            finite &= delta[p].is_finite();
            gamma_key(rho[p], delta[p])
        };
        self.members.retain_mut(|(k, p)| match final_of_old[*p] {
            Some(q) => {
                (*k, *p) = (key(q), q);
                *k > bar
            }
            None => false,
        });
        for p in changed {
            let k = key(p);
            if k > bar {
                self.members.push((k, p));
            }
        }
        if !finite {
            self.clear();
        }
        keyed
    }

    /// The `m` best points of the window by [`gamma_key`] (`1 ≤ m ≤ n`), in
    /// decreasing-key order, ties to the smaller id, and whether the window
    /// was scanned for them. They come from the set while it holds `m` to
    /// `4m` members; otherwise a scan answers and rebuilds the set.
    pub(crate) fn best(
        &mut self,
        m: usize,
        rho: &[Rho],
        deltas: &DeltaResult,
    ) -> (Vec<(f64, PointId)>, bool) {
        self.members.sort_unstable_by_key(|&(_, p)| p);
        self.members.dedup_by_key(|&mut (_, p)| p);
        if (m..=GROW * m).contains(&self.members.len()) {
            return (top_keys(self.members.iter().copied(), m), false);
        }
        self.clear();
        if deltas.delta.iter().any(|d| !d.is_finite()) {
            return (top_by_gamma(rho, &deltas.clipped_delta(), m), true);
        }
        let n = rho.len();
        let kept = (KEEP * m).min(n);
        let mut top = top_by_gamma(rho, &deltas.delta, kept);
        let bar = if kept < n {
            top[kept - 1].0
        } else {
            f64::NEG_INFINITY
        };
        self.members
            .extend(top.iter().filter(|&&(key, _)| key > bar));
        self.bar = bar;
        top.truncate(m);
        (top, true)
    }
}
