//! Learned/original clause storage for the CDCL solver.
//!
//! Clauses live in a slab indexed by [`ClauseRef`]. Deleted clauses are
//! marked garbage and their slots recycled through a free list, so
//! `ClauseRef`s held by watches and reasons stay valid until the owner drops
//! them (the solver detaches watches and checks reasons before deletion).

use crate::varmap::at;
use cnf::Lit;
use std::fmt;

/// A stable handle to a clause inside a [`ClauseDb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The raw slab index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClauseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClauseRef({})", self.0)
    }
}

/// A stored clause with the metadata clause-deletion policies consume.
#[derive(Clone, Debug)]
pub struct StoredClause {
    lits: Vec<Lit>,
    /// Literal block distance at learn time, updated downward when revisited.
    pub glue: u32,
    /// Bumped whenever the clause participates in conflict analysis.
    pub activity: f64,
    /// Whether this clause was learned (original clauses are never deleted).
    pub learned: bool,
    /// Whether the clause was imported from another portfolio worker.
    /// Imported clauses are always `learned` and go through the same
    /// reduction machinery as locally learned ones.
    pub imported: bool,
    /// Protected clauses survive the next reduction (recently used).
    pub protected: bool,
    garbage: bool,
}

impl StoredClause {
    /// The clause's literals. The first two are the watched literals.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The literal at position `k` (bounds-audited).
    #[inline]
    pub fn lit(&self, k: usize) -> Lit {
        at(&self.lits, k)
    }

    /// Swaps the literals at positions `a` and `b` (watch reordering).
    #[inline]
    pub fn swap_lits(&mut self, a: usize, b: usize) {
        self.lits.swap(a, b);
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }
}

/// Slab of clauses with recycling of deleted slots.
#[derive(Default)]
pub struct ClauseDb {
    clauses: Vec<StoredClause>,
    free: Vec<u32>,
    num_learned: usize,
    num_original: usize,
    num_imported: usize,
    lits_in_learned: usize,
    /// Total literal occurrences across *all* live clauses, maintained so
    /// [`ClauseDb::memory_bytes`] is O(1).
    live_lits: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a clause and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lits` has fewer than two literals; unit
    /// and empty clauses are handled on the trail, not stored.
    pub fn add(&mut self, lits: Vec<Lit>, learned: bool, glue: u32) -> ClauseRef {
        self.add_full(lits, learned, false, glue)
    }

    /// Inserts a clause learned by another portfolio worker. Imported
    /// clauses are counted as learned *and* tracked separately so the
    /// invariant auditor can cross-check the exchange bookkeeping.
    pub fn add_imported(&mut self, lits: Vec<Lit>, glue: u32) -> ClauseRef {
        self.add_full(lits, true, true, glue)
    }

    fn add_full(&mut self, lits: Vec<Lit>, learned: bool, imported: bool, glue: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        debug_assert!(learned || !imported, "imported clauses must be learned");
        if learned {
            self.num_learned += 1;
            self.lits_in_learned += lits.len();
        } else {
            self.num_original += 1;
        }
        if imported {
            self.num_imported += 1;
        }
        self.live_lits += lits.len();
        let clause = StoredClause {
            lits,
            glue,
            activity: 0.0,
            learned,
            imported,
            protected: false,
            garbage: false,
        };
        match self.free.pop() {
            Some(slot) => {
                let cref = ClauseRef(slot);
                *self.slot_mut(cref) = clause;
                cref
            }
            None => {
                self.clauses.push(clause);
                ClauseRef(self.clauses.len() as u32 - 1)
            }
        }
    }

    /// The slab slot behind `cref`: the single audited indexing site of
    /// this module (`ClauseRef`s are only minted by [`ClauseDb::add`]).
    #[inline]
    fn slot(&self, cref: ClauseRef) -> &StoredClause {
        debug_assert!(cref.index() < self.clauses.len(), "dangling {cref:?}");
        &self.clauses[cref.index()] // xtask: allow(no-index) audited slab access
    }

    /// Mutable counterpart of [`ClauseDb::slot`].
    #[inline]
    fn slot_mut(&mut self, cref: ClauseRef) -> &mut StoredClause {
        debug_assert!(cref.index() < self.clauses.len(), "dangling {cref:?}");
        &mut self.clauses[cref.index()] // xtask: allow(no-index) audited slab access
    }

    /// Accesses a live clause.
    ///
    /// # Panics
    ///
    /// Panics if `cref` refers to a deleted clause (debug builds).
    #[inline]
    pub fn clause(&self, cref: ClauseRef) -> &StoredClause {
        let c = self.slot(cref);
        debug_assert!(!c.garbage, "access to deleted clause {cref:?}");
        c
    }

    /// Mutable access to a live clause.
    #[inline]
    pub fn clause_mut(&mut self, cref: ClauseRef) -> &mut StoredClause {
        let c = self.slot_mut(cref);
        debug_assert!(!c.garbage, "access to deleted clause {cref:?}");
        c
    }

    /// Marks a clause deleted and recycles its slot.
    pub fn remove(&mut self, cref: ClauseRef) {
        let (learned, imported, len) = {
            let c = self.slot_mut(cref);
            debug_assert!(!c.garbage, "double delete of {cref:?}");
            c.garbage = true;
            (c.learned, c.imported, std::mem::take(&mut c.lits).len())
        };
        if learned {
            self.num_learned -= 1;
            self.lits_in_learned -= len;
        } else {
            self.num_original -= 1;
        }
        if imported {
            self.num_imported -= 1;
        }
        self.live_lits -= len;
        self.free.push(cref.index() as u32);
    }

    /// Whether the handle refers to a live clause.
    #[inline]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        !self.slot(cref).garbage
    }

    /// Number of live learned clauses.
    #[inline]
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Number of live original clauses.
    #[inline]
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of live imported clauses (a subset of the learned count).
    #[inline]
    pub fn num_imported(&self) -> usize {
        self.num_imported
    }

    /// Total literal occurrences in live learned clauses.
    #[inline]
    pub fn lits_in_learned(&self) -> usize {
        self.lits_in_learned
    }

    /// Approximate heap footprint of the database in bytes, computed in
    /// O(1) from maintained counters: the slab's slot array (capacity,
    /// since the allocation persists across deletions), the literal
    /// storage of live clauses, and the free list. Per-clause `Vec`
    /// over-allocation is not tracked — clause literal vectors are built
    /// exactly-sized — so this is a slight underestimate, which is the
    /// right direction for a *cooperative* memory ceiling.
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        let slab = self.clauses.capacity() * std::mem::size_of::<StoredClause>();
        let lits = self.live_lits * std::mem::size_of::<Lit>();
        let free = self.free.capacity() * std::mem::size_of::<u32>();
        (slab + lits + free) as u64
    }

    /// Iterates over handles of all live clauses.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.garbage)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Iterates over handles of live learned clauses.
    pub fn iter_learned(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.garbage && c.learned)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Rescales all clause activities by `factor` (activity overflow guard).
    pub fn rescale_activity(&mut self, factor: f64) {
        for c in &mut self.clauses {
            if !c.garbage {
                c.activity *= factor;
            }
        }
    }
}

impl fmt::Debug for ClauseDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClauseDb({} original, {} learned, {} free slots)",
            self.num_original,
            self.num_learned,
            self.free.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i32]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn add_and_access() {
        let mut db = ClauseDb::new();
        let c = db.add(lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.clause(c).len(), 3);
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learned(), 0);
    }

    #[test]
    fn remove_recycles_slot() {
        let mut db = ClauseDb::new();
        let a = db.add(lits(&[1, 2]), true, 2);
        db.remove(a);
        assert!(!db.is_live(a));
        assert_eq!(db.num_learned(), 0);
        let b = db.add(lits(&[3, 4]), true, 1);
        assert_eq!(a.index(), b.index(), "slot should be recycled");
        assert!(db.is_live(b));
    }

    #[test]
    fn learned_literal_accounting() {
        let mut db = ClauseDb::new();
        let a = db.add(lits(&[1, 2, 3]), true, 2);
        let _b = db.add(lits(&[1, 2]), true, 2);
        assert_eq!(db.lits_in_learned(), 5);
        db.remove(a);
        assert_eq!(db.lits_in_learned(), 2);
    }

    #[test]
    fn iter_learned_skips_garbage_and_original() {
        let mut db = ClauseDb::new();
        let _o = db.add(lits(&[1, 2]), false, 0);
        let l1 = db.add(lits(&[3, 4]), true, 2);
        let l2 = db.add(lits(&[5, 6]), true, 2);
        db.remove(l1);
        let learned: Vec<_> = db.iter_learned().collect();
        assert_eq!(learned, vec![l2]);
        assert_eq!(db.iter_refs().count(), 2);
    }

    #[test]
    fn memory_estimate_tracks_additions_and_deletions() {
        let mut db = ClauseDb::new();
        let empty = db.memory_bytes();
        let refs: Vec<ClauseRef> = (0..100)
            .map(|i| db.add(lits(&[i + 1, i + 2, -(i + 3)]), true, 2))
            .collect();
        let full = db.memory_bytes();
        assert!(full > empty);
        for r in refs {
            db.remove(r);
        }
        // Live-literal bytes are released (the dominant term for many
        // clauses); slab and free-list capacity persist by design.
        assert!(db.memory_bytes() < full);
        assert!(db.memory_bytes() > 0, "slab capacity is still accounted");
    }

    // The check is a `debug_assert!`, so it only exists with debug
    // assertions on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = ">= 2")]
    fn rejects_unit_clause() {
        ClauseDb::new().add(lits(&[1]), false, 0);
    }

    #[test]
    fn imported_accounting() {
        let mut db = ClauseDb::new();
        let a = db.add_imported(lits(&[1, 2, 3]), 2);
        let _b = db.add(lits(&[4, 5]), true, 1);
        assert!(db.clause(a).imported && db.clause(a).learned);
        assert_eq!(db.num_imported(), 1);
        assert_eq!(db.num_learned(), 2);
        db.remove(a);
        assert_eq!(db.num_imported(), 0);
        assert_eq!(db.num_learned(), 1);
    }
}
