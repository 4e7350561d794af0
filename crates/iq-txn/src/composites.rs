//! The composite registry: per-object live-member refcounts for packed
//! flushes.
//!
//! A composite object holds several sealed page images (see
//! `DatabaseConfig::pack_pages`). Individual pages die at different times
//! — superseded by later writers, dropped with their table — but the
//! never-write-twice store only supports whole-object deletion, so the GC
//! must not delete a composite until *every* member is dead. The registry
//! is that bookkeeping: each composite's member layout is registered at
//! commit (and re-registered from the transaction log at recovery), member
//! frees arriving through the RF bitmaps flip per-member death bits, and
//! the GC asks for [`CompositeRegistry::fully_dead_pending`] each tick and
//! confirms each delete with [`CompositeRegistry::note_reclaimed`].
//!
//! Sparse composites — mostly dead but pinned by a few survivors — are
//! what the LSM-style compaction pass targets:
//! [`CompositeRegistry::compaction_candidates`] hands out composites whose
//! live fraction dropped below a threshold, the driver repacks the
//! survivors through the ordinary (never-write-twice) flush path, and the
//! old object becomes fully dead and reclaimable.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

use iq_common::ObjectKey;
use parking_lot::Mutex;

use crate::rfrb::PackMember;

/// One registered composite.
#[derive(Debug, Clone)]
struct CompositeInfo {
    members: Vec<PackMember>,
    dead: Vec<bool>,
    /// Claimed by an in-flight compaction; GC leaves it alone until the
    /// driver either finishes (members die) or releases it (failure).
    compacting: bool,
}

impl CompositeInfo {
    fn dead_count(&self) -> usize {
        self.dead.iter().filter(|d| **d).count()
    }

    fn live_fraction(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        1.0 - self.dead_count() as f64 / self.members.len() as f64
    }
}

iq_common::counters! {
    /// Aggregate counters the `pack.*` metrics source exports.
    pub struct CompositeCounters {
        /// Composites ever registered.
        sum composites_registered,
        /// Member deaths recorded.
        sum member_deaths,
        /// Composites handed to the GC as fully dead.
        sum composites_reclaimed,
        /// Member frees naming a key the registry does not know. Should
        /// stay zero; a nonzero count means a composite leaked past
        /// recovery.
        sum unknown_member_frees,
        /// Registrations rejected for having an empty member slice. Should
        /// stay zero; a nonzero count means a writer tried to register a
        /// composite with no members (see [`CompositeRegistry::register`]).
        sum rejected_empty (unexported),
        /// Compaction claims handed out.
        sum compaction_claims,
    }
    /// Point-in-time copy of [`CompositeCounters`].
    pub struct CompositeStats;
}

/// Registry of live composite objects. Internally synchronized; shared by
/// the commit path, the GC tick and the compaction driver.
#[derive(Debug, Default)]
pub struct CompositeRegistry {
    inner: Mutex<Inner>,
    stats: CompositeCounters,
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by composite-key offset; `BTreeMap` so every scan
    /// (candidates, fully-dead sweep) is deterministic.
    composites: BTreeMap<u64, CompositeInfo>,
    /// Sum of live fractions observed when compaction claimed a
    /// composite (see [`CompositeRegistry::mean_live_fraction_at_claim`]).
    live_fraction_sum_at_claim: f64,
}

impl CompositeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a composite's member layout. Idempotent: recovery replays
    /// commit records that may already be registered.
    ///
    /// An empty member slice is rejected (counted in
    /// [`CompositeCounters::rejected_empty`]): a member-less composite would
    /// be *vacuously* fully dead — every death bit in an empty vector is
    /// trivially set — so the very next GC tick would delete a
    /// just-written object out from under its writer.
    ///
    /// # Keying
    ///
    /// The registry is database-global and keyed by the composite's
    /// object-key *offset* alone — no dbspace id. That is sound because
    /// every cloud dbspace draws keys from the single Object Key
    /// Generator, whose offsets are allocated monotonically and never
    /// reused (§3.2's never-write-twice invariant): two dbspaces can
    /// never hold composites with the same offset. Member byte offsets
    /// within one composite are likewise unique — each member occupies a
    /// disjoint range — which [`Self::mark_member_dead`]'s
    /// position-by-offset lookup relies on; a debug assertion pins both
    /// properties here.
    pub fn register(&self, key: ObjectKey, members: &[PackMember]) {
        let mut g = self.inner.lock();
        if members.is_empty() {
            self.stats.rejected_empty.fetch_add(1, Relaxed);
            return;
        }
        if g.composites.contains_key(&key.offset()) {
            return;
        }
        debug_assert!(
            {
                let mut offs: Vec<u32> = members.iter().map(|m| m.offset).collect();
                offs.sort_unstable();
                offs.windows(2).all(|w| w[0] != w[1])
            },
            "composite {key:?} registered with duplicate member byte offsets"
        );
        g.composites.insert(
            key.offset(),
            CompositeInfo {
                members: members.to_vec(),
                dead: vec![false; members.len()],
                compacting: false,
            },
        );
        self.stats.composites_registered.fetch_add(1, Relaxed);
    }

    /// Record the death of the member at byte `offset` of composite
    /// `key_offset`. Idempotent per member; a free naming an unknown key
    /// is counted but otherwise ignored (the object, if it exists, leaks
    /// until the next recovery sweep — never a correctness hazard).
    ///
    /// `key_offset` alone identifies the composite across every dbspace,
    /// and `offset` alone identifies the member within it — see the
    /// keying note on [`Self::register`] for why both lookups are
    /// collision-free.
    pub fn mark_member_dead(&self, key_offset: u64, offset: u32) {
        let mut g = self.inner.lock();
        let Some(info) = g.composites.get_mut(&key_offset) else {
            self.stats.unknown_member_frees.fetch_add(1, Relaxed);
            return;
        };
        let Some(i) = info.members.iter().position(|m| m.offset == offset) else {
            self.stats.unknown_member_frees.fetch_add(1, Relaxed);
            return;
        };
        if !info.dead[i] {
            info.dead[i] = true;
            self.stats.member_deaths.fetch_add(1, Relaxed);
        }
    }

    /// Every composite whose members are all dead and which no compaction
    /// currently holds. The composite stays registered until the caller
    /// confirms the delete with [`Self::note_reclaimed`], so a failed
    /// delete is simply retried on a later tick.
    pub fn fully_dead_pending(&self) -> Vec<ObjectKey> {
        self.inner
            .lock()
            .composites
            .iter()
            .filter(|(_, info)| !info.compacting && info.dead.iter().all(|d| *d))
            .map(|(&off, _)| ObjectKey::from_offset(off))
            .collect()
    }

    /// Confirm that the objects behind `keys` were deleted; drops them
    /// from the registry.
    pub fn note_reclaimed(&self, keys: &[ObjectKey]) {
        let mut g = self.inner.lock();
        for key in keys {
            if g.composites.remove(&key.offset()).is_some() {
                self.stats.composites_reclaimed.fetch_add(1, Relaxed);
            }
        }
    }

    /// Whether any fully-dead composite is waiting to be taken (lets the
    /// GC tick proceed even when the transaction chain is drained).
    pub fn has_fully_dead(&self) -> bool {
        self.inner
            .lock()
            .composites
            .values()
            .any(|info| !info.compacting && info.dead.iter().all(|d| *d))
    }

    /// Claim up to `limit` compaction candidates: composites with at
    /// least one dead member whose live fraction is ≤ `threshold` but
    /// nonzero (fully dead ones belong to the GC). Claimed composites
    /// are flagged so the GC and other compaction rounds skip them; the
    /// driver must either finish (the members die) or
    /// [`Self::release_claims`] on failure. Returns each candidate's
    /// still-live members in deterministic key order.
    pub fn compaction_candidates(
        &self,
        threshold: f64,
        limit: usize,
    ) -> Vec<(ObjectKey, Vec<PackMember>)> {
        let mut g = self.inner.lock();
        let mut out = Vec::new();
        let mut claims = Vec::new();
        for (&off, info) in g.composites.iter() {
            if out.len() >= limit {
                break;
            }
            let frac = info.live_fraction();
            if info.compacting || frac <= 0.0 || frac > threshold {
                continue;
            }
            let live: Vec<PackMember> = info
                .members
                .iter()
                .zip(&info.dead)
                .filter(|(_, dead)| !**dead)
                .map(|(m, _)| *m)
                .collect();
            claims.push((off, frac));
            out.push((ObjectKey::from_offset(off), live));
        }
        for (off, frac) in claims {
            g.composites
                .get_mut(&off)
                .expect("claimed key present")
                .compacting = true;
            g.live_fraction_sum_at_claim += frac;
            self.stats.compaction_claims.fetch_add(1, Relaxed);
        }
        out
    }

    /// Release compaction claims after a failed round so the composites
    /// become visible to the GC and future rounds again.
    pub fn release_claims(&self, keys: &[ObjectKey]) {
        let mut g = self.inner.lock();
        for key in keys {
            if let Some(info) = g.composites.get_mut(&key.offset()) {
                info.compacting = false;
            }
        }
    }

    /// Composites currently tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().composites.len()
    }

    /// Whether the registry tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live fraction of one composite (tests/metrics); `None` if unknown.
    pub fn live_fraction(&self, key: ObjectKey) -> Option<f64> {
        self.inner
            .lock()
            .composites
            .get(&key.offset())
            .map(CompositeInfo::live_fraction)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CompositeStats {
        self.stats.snapshot()
    }

    /// Mean live fraction of the composites compaction has claimed (0
    /// before the first claim).
    pub fn mean_live_fraction_at_claim(&self) -> f64 {
        let sum = self.inner.lock().live_fraction_sum_at_claim;
        match self.stats.compaction_claims.load(Relaxed) {
            0 => 0.0,
            claims => sum / claims as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(page: u64, offset: u32) -> PackMember {
        PackMember {
            table: 1,
            page,
            offset,
            len: 512,
        }
    }

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    #[test]
    fn composite_reclaimed_only_when_all_members_dead() {
        let reg = CompositeRegistry::new();
        reg.register(key(5), &[member(1, 0), member(2, 512), member(3, 1024)]);
        assert_eq!(reg.len(), 1);
        reg.mark_member_dead(5, 0);
        reg.mark_member_dead(5, 512);
        assert!(reg.fully_dead_pending().is_empty(), "one member still live");
        assert!(!reg.has_fully_dead());
        reg.mark_member_dead(5, 1024);
        assert!(reg.has_fully_dead());
        let dead = reg.fully_dead_pending();
        assert_eq!(dead, vec![key(5)]);
        // Unconfirmed deletes stay pending (failed delete ⇒ retry later).
        assert_eq!(reg.fully_dead_pending(), vec![key(5)]);
        reg.note_reclaimed(&dead);
        assert!(reg.is_empty());
        assert_eq!(reg.stats().composites_reclaimed, 1);
    }

    #[test]
    fn registration_and_death_are_idempotent() {
        let reg = CompositeRegistry::new();
        let members = [member(1, 0), member(2, 512)];
        reg.register(key(9), &members);
        reg.register(key(9), &members); // recovery replay
        assert_eq!(reg.stats().composites_registered, 1);
        reg.mark_member_dead(9, 0);
        reg.mark_member_dead(9, 0);
        assert_eq!(reg.stats().member_deaths, 1);
        // Unknown key / unknown offset: counted, never fatal.
        reg.mark_member_dead(404, 0);
        reg.mark_member_dead(9, 9999);
        assert_eq!(reg.stats().unknown_member_frees, 2);
    }

    #[test]
    fn compaction_claims_sparse_composites_and_hides_them_from_gc() {
        let reg = CompositeRegistry::new();
        // 4 members, 3 dead → live fraction 0.25.
        reg.register(
            key(1),
            &[
                member(1, 0),
                member(2, 512),
                member(3, 1024),
                member(4, 1536),
            ],
        );
        for off in [0u32, 512, 1024] {
            reg.mark_member_dead(1, off);
        }
        // 2 members, none dead → fraction 1.0, not a candidate.
        reg.register(key(2), &[member(5, 0), member(6, 512)]);
        let cands = reg.compaction_candidates(0.5, 8);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0, key(1));
        assert_eq!(cands[0].1, vec![member(4, 1536)]);
        // Claimed: a second round skips it, and even once fully dead the
        // GC leaves it alone until the claim resolves.
        assert!(reg.compaction_candidates(0.5, 8).is_empty());
        reg.mark_member_dead(1, 1536);
        assert!(reg.fully_dead_pending().is_empty());
        reg.release_claims(&[key(1)]);
        assert_eq!(reg.fully_dead_pending(), vec![key(1)]);
        reg.note_reclaimed(&[key(1)]);
        let stats = reg.stats();
        assert_eq!(stats.compaction_claims, 1);
        assert!((reg.mean_live_fraction_at_claim() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_member_slice_is_rejected_not_vacuously_dead() {
        let reg = CompositeRegistry::new();
        // Regression: an empty composite used to register with an empty
        // death vector, making it "fully dead" by vacuity — the next GC
        // tick would then delete the just-written object.
        reg.register(key(7), &[]);
        assert!(reg.is_empty(), "empty layout must not register");
        assert!(reg.fully_dead_pending().is_empty());
        assert!(!reg.has_fully_dead());
        assert_eq!(reg.stats().rejected_empty, 1);
        assert_eq!(reg.stats().composites_registered, 0);
        // A later, well-formed registration under the same key works.
        reg.register(key(7), &[member(1, 0)]);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats().composites_registered, 1);
    }

    #[test]
    fn key_offsets_distinguish_composites_across_spaces() {
        // The registry carries no dbspace id: the single Object Key
        // Generator hands out monotone, never-reused offsets, so
        // composites born on different dbspaces always have distinct
        // key offsets. Deaths routed by (key_offset, member offset)
        // therefore never cross-talk even when member layouts collide.
        let reg = CompositeRegistry::new();
        let layout = [member(1, 0), member(2, 512)];
        reg.register(key(100), &layout); // "dbspace 1"
        reg.register(key(200), &layout); // "dbspace 2", same byte layout
        reg.mark_member_dead(100, 0);
        reg.mark_member_dead(100, 512);
        assert_eq!(reg.fully_dead_pending(), vec![key(100)]);
        assert_eq!(
            reg.live_fraction(key(200)),
            Some(1.0),
            "deaths on one composite must not leak onto the other"
        );
        assert_eq!(reg.stats().unknown_member_frees, 0);
    }

    #[test]
    fn fully_dead_composites_are_not_compaction_candidates() {
        let reg = CompositeRegistry::new();
        reg.register(key(3), &[member(1, 0)]);
        reg.mark_member_dead(3, 0);
        assert!(reg.compaction_candidates(1.0, 8).is_empty());
        assert_eq!(reg.fully_dead_pending(), vec![key(3)]);
    }
}
