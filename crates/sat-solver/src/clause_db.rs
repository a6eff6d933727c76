//! Learned/original clause storage for the CDCL solver: one flat arena.
//!
//! # Layout
//!
//! Every stored clause lives inline in a single `Vec<Lit>`: a three-word
//! header followed by the clause's literals. A [`ClauseRef`] is the offset
//! of the header.
//!
//! ```text
//! cref ─► | len | glue << 3 | flags | id | lit 0 | lit 1 | … | lit len-1 |
//! ```
//!
//! The header words are stored as `Lit` codes behind two private helpers
//! (`header` / `set_header`), so the arena stays one plain `Vec<Lit>` and
//! [`ClauseDb::lits`] is a slice of it. Only this module knows the header
//! format; callers use the accessors (`lits`, `lit`, `len`, `glue`, the
//! flag getters, `set_protected`, `id`).
//!
//! # Deletion and compaction
//!
//! [`ClauseDb::remove`] only marks a clause garbage: its words stay in the
//! arena, and a stale `ClauseRef` to it reads as dead instead of aliasing
//! another clause. The solver compacts at the end of a clause-database
//! reduction, once garbage exceeds half of the arena:
//! [`ClauseDb::collect_garbage`] moves the live clauses down in order and
//! returns the [`Relocation`] the solver applies to every watch and every
//! trail reason.
//!
//! Watches and reasons are the only structures that hold a `ClauseRef`
//! across a reduction. Inprocessing's occurrence and candidate lists live
//! for one round only, and a round never reduces.
//!
//! # Why each clause has an id
//!
//! `reduce_db` sorts its candidates by `(score, id)`. Both deletion
//! policies score glue/size keys, so ties are common, and the tie order
//! decides which clauses are deleted. `add` takes the most recently freed
//! id, or a fresh one when none is free. That is the tie order of the
//! search trajectory `BENCH_solver.json` pins, and it does not depend on
//! where the arena keeps a clause. Ordering ties by arena offset (that is,
//! by age) would delete other clauses and change the trajectory.

use crate::varmap::at;
use cnf::Lit;
use std::fmt;

/// A handle to a clause inside a [`ClauseDb`]: the arena offset of its
/// header. Valid until the next [`ClauseDb::collect_garbage`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The raw arena offset.
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

/// Header words per clause.
const HEADER_WORDS: usize = 3;
/// Header word: number of literals.
const LEN: usize = 0;
/// Header word: `glue << FLAG_BITS | flags`.
const META: usize = 1;
/// Header word: the tie-break id.
const ID: usize = 2;

const FLAG_BITS: u32 = 3;
/// Learned (original clauses are never deleted by reduction).
const LEARNED: u32 = 1;
/// Survives the next reduction (recently used in conflict analysis).
const PROTECTED: u32 = 2;
/// Deleted; the words stay in the arena until compaction.
const GARBAGE: u32 = 4;

/// Where compaction moved each live clause, for rewriting the references
/// held outside the database (see [`ClauseDb::collect_garbage`]).
#[derive(Debug)]
pub(crate) struct Relocation {
    /// `(old, new)` offsets of every live clause, in arena order (so sorted
    /// by both).
    moves: Vec<(ClauseRef, ClauseRef)>,
}

impl Relocation {
    /// The new handle of the live clause that was at `old`.
    pub(crate) fn apply(&self, old: ClauseRef) -> ClauseRef {
        match self.moves.binary_search_by_key(&old, |&(from, _)| from) {
            Ok(i) => at(&self.moves, i).1,
            Err(_) => {
                debug_assert!(false, "{old:?} was not a live clause");
                old
            }
        }
    }
}

/// Arena of clauses (see the module docs for the layout).
#[derive(Default)]
pub struct ClauseDb {
    arena: Vec<Lit>,
    /// Ids of deleted clauses, reused last-in first-out.
    free_ids: Vec<u32>,
    /// The next fresh id: one past the largest id ever handed out.
    next_id: u32,
    /// Arena words (headers included) held by garbage clauses.
    garbage: usize,
    num_learned: usize,
    num_original: usize,
    lits_in_learned: usize,
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
    pub fn add(&mut self, lits: &[Lit], learned: bool, glue: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        debug_assert!(
            glue < 1 << (32 - FLAG_BITS),
            "glue {glue} overflows the header"
        );
        if learned {
            self.num_learned += 1;
            self.lits_in_learned += lits.len();
        } else {
            self.num_original += 1;
        }
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        let flags = if learned { LEARNED } else { 0 };
        let cref = ClauseRef(self.arena.len() as u32);
        self.arena
            .extend([lits.len() as u32, glue << FLAG_BITS | flags, id].map(Lit::from_code));
        self.arena.extend_from_slice(lits);
        cref
    }

    /// Header word `word` of `cref`.
    #[inline]
    fn header(&self, cref: ClauseRef, word: usize) -> u32 {
        at(&self.arena, cref.index() + word).code()
    }

    /// Overwrites header word `word` of `cref`.
    #[inline]
    fn set_header(&mut self, cref: ClauseRef, word: usize, value: u32) {
        match self.arena.get_mut(cref.index() + word) {
            Some(w) => *w = Lit::from_code(value),
            None => debug_assert!(false, "dangling {cref:?}"),
        }
    }

    #[inline]
    fn flags(&self, cref: ClauseRef) -> u32 {
        self.header(cref, META) & ((1 << FLAG_BITS) - 1)
    }

    #[inline]
    fn set_flag(&mut self, cref: ClauseRef, flag: u32, on: bool) {
        let meta = self.header(cref, META);
        self.set_header(cref, META, if on { meta | flag } else { meta & !flag });
    }

    /// The clause's literals. The first two are the watched literals.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.index() + HEADER_WORDS;
        let end = start + self.len(cref);
        debug_assert!(end <= self.arena.len(), "dangling {cref:?}");
        &self.arena[start..end] // xtask: allow(no-index) audited arena access
    }

    /// Mutable counterpart of [`ClauseDb::lits`], for reordering the
    /// watched literals.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref.index() + HEADER_WORDS;
        let end = start + self.len(cref);
        debug_assert!(end <= self.arena.len(), "dangling {cref:?}");
        &mut self.arena[start..end] // xtask: allow(no-index) audited arena access
    }

    /// The literal at position `k` (bounds-audited).
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.len(cref), "literal {k} of {cref:?} out of bounds");
        at(&self.arena, cref.index() + HEADER_WORDS + k)
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.header(cref, LEN) as usize
    }

    /// Arena words the clause occupies, header included.
    #[inline]
    pub(crate) fn words(&self, cref: ClauseRef) -> usize {
        HEADER_WORDS + self.len(cref)
    }

    /// Literal block distance at learn time (0 for original clauses).
    #[inline]
    pub fn glue(&self, cref: ClauseRef) -> u32 {
        self.header(cref, META) >> FLAG_BITS
    }

    /// Whether the clause was learned (original clauses are never deleted
    /// by reduction).
    #[inline]
    pub fn is_learned(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & LEARNED != 0
    }

    /// Whether the clause survives the next reduction (recently used).
    #[inline]
    pub fn is_protected(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & PROTECTED != 0
    }

    /// Sets or clears the protection flag.
    #[inline]
    pub fn set_protected(&mut self, cref: ClauseRef, on: bool) {
        self.set_flag(cref, PROTECTED, on);
    }

    /// The tie-break id that orders equal reduction scores (see the
    /// module docs).
    #[inline]
    pub fn id(&self, cref: ClauseRef) -> u32 {
        self.header(cref, ID)
    }

    /// Marks a clause deleted. Its words stay in the arena (as garbage)
    /// until [`ClauseDb::collect_garbage`]; its id is free for reuse.
    pub fn remove(&mut self, cref: ClauseRef) {
        debug_assert!(self.is_live(cref), "double delete of {cref:?}");
        let len = self.len(cref);
        if self.is_learned(cref) {
            self.num_learned -= 1;
            self.lits_in_learned -= len;
        } else {
            self.num_original -= 1;
        }
        self.set_flag(cref, GARBAGE, true);
        self.garbage += self.words(cref);
        self.free_ids.push(self.id(cref));
    }

    /// Whether the handle refers to a live clause.
    #[inline]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & GARBAGE == 0
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

    /// Total literal occurrences in live learned clauses.
    #[inline]
    pub fn lits_in_learned(&self) -> usize {
        self.lits_in_learned
    }

    /// Arena words (headers included) held by deleted clauses that were
    /// not compacted away yet.
    #[inline]
    pub(crate) fn garbage_words(&self) -> usize {
        self.garbage
    }

    /// Approximate heap footprint of the database in bytes, computed in
    /// O(1): the arena words in use (garbage counts until it is
    /// compacted) and the free-id list. Spare `Vec` capacity is not
    /// counted, so this is a slight underestimate, which is the right
    /// direction for a *cooperative* memory ceiling.
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        let arena = self.arena.len() * std::mem::size_of::<Lit>();
        let free = self.free_ids.len() * std::mem::size_of::<u32>();
        (arena + free) as u64
    }

    /// Handles of every clause in the arena, garbage included, in arena
    /// order.
    pub(crate) fn headers(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let first = (!self.arena.is_empty()).then_some(ClauseRef(0));
        std::iter::successors(first, move |&c| {
            let next = c.index() + self.words(c);
            (next < self.arena.len()).then_some(ClauseRef(next as u32))
        })
    }

    /// Iterates over handles of all live clauses, in arena order.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers().filter(|&c| self.is_live(c))
    }

    /// Iterates over handles of live learned clauses, in arena order.
    pub fn iter_learned(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.iter_refs().filter(|&c| self.is_learned(c))
    }

    /// Whether garbage holds more than half of the arena, the point at
    /// which the solver compacts after a reduction.
    #[inline]
    pub(crate) fn compaction_due(&self) -> bool {
        2 * self.garbage > self.arena.len()
    }

    /// Compacts the arena: moves every live clause down over the garbage,
    /// keeping their order, and returns where each one went. Every
    /// `ClauseRef` held outside the database must be rewritten through the
    /// returned [`Relocation`]; ids are unchanged.
    pub(crate) fn collect_garbage(&mut self) -> Relocation {
        let live: Vec<ClauseRef> = self.iter_refs().collect();
        let mut moves = Vec::with_capacity(live.len());
        let mut write = 0;
        for cref in live {
            // `write` never passes `cref`: the clauses before it only shrink.
            let words = self.words(cref);
            self.arena
                .copy_within(cref.index()..cref.index() + words, write);
            moves.push((cref, ClauseRef(write as u32)));
            write += words;
        }
        self.arena.truncate(write);
        self.garbage = 0;
        Relocation { moves }
    }
}

impl fmt::Debug for ClauseDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClauseDb({} original, {} learned, {} garbage words)",
            self.num_original, self.num_learned, self.garbage
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
        let c = db.add(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.len(c), 3);
        assert_eq!(db.lits(c), lits(&[1, -2, 3]));
        assert_eq!(db.lit(c, 1), Lit::from_dimacs(-2));
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learned(), 0);
    }

    /// The recycled slot is the clause id: freed ids are reused last-in
    /// first-out, the order reductions rely on.
    #[test]
    fn remove_recycles_slot() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2]), true, 2);
        let b = db.add(&lits(&[3, 4]), true, 2);
        db.remove(a);
        db.remove(b);
        assert!(!db.is_live(a) && !db.is_live(b));
        assert_eq!(db.num_learned(), 0);
        // The last id freed is the first reused.
        let c = db.add(&lits(&[5, 6]), true, 1);
        let d = db.add(&lits(&[7, 8]), true, 1);
        assert_eq!((db.id(c), db.id(d)), (db.id(b), db.id(a)));
        // A fresh id only once the free ones are used up.
        let e = db.add(&lits(&[1, 3]), true, 1);
        assert_eq!(db.id(e), 2);
        // Storage is not reused: the stale handles still read as dead.
        assert!(!db.is_live(a) && !db.is_live(b));
        assert!(db.is_live(c) && db.is_live(d));
    }

    #[test]
    fn learned_literal_accounting() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2, 3]), true, 2);
        let _b = db.add(&lits(&[1, 2]), true, 2);
        assert_eq!(db.lits_in_learned(), 5);
        db.remove(a);
        assert_eq!(db.lits_in_learned(), 2);
    }

    #[test]
    fn iter_learned_skips_garbage_and_original() {
        let mut db = ClauseDb::new();
        let _o = db.add(&lits(&[1, 2]), false, 0);
        let l1 = db.add(&lits(&[3, 4]), true, 2);
        let l2 = db.add(&lits(&[5, 6]), true, 2);
        db.remove(l1);
        let learned: Vec<_> = db.iter_learned().collect();
        assert_eq!(learned, vec![l2]);
        assert_eq!(db.iter_refs().count(), 2);
        assert_eq!(db.headers().count(), 3);
    }

    #[test]
    fn memory_estimate_tracks_additions_and_deletions() {
        let mut db = ClauseDb::new();
        let empty = db.memory_bytes();
        let refs: Vec<ClauseRef> = (0..100)
            .map(|i| db.add(&lits(&[i + 1, i + 2, -(i + 3)]), true, 2))
            .collect();
        let full = db.memory_bytes();
        assert!(full > empty);
        for r in refs {
            db.remove(r);
        }
        // Garbage keeps its arena words until compaction releases them;
        // the free ids persist by design.
        assert!(db.memory_bytes() >= full);
        assert!(db.compaction_due());
        db.collect_garbage();
        assert!(db.memory_bytes() < full);
        assert!(db.memory_bytes() > 0, "free ids are still accounted");
    }

    // The check is a `debug_assert!`, so it only exists with debug
    // assertions on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = ">= 2")]
    fn rejects_unit_clause() {
        ClauseDb::new().add(&lits(&[1]), false, 0);
    }

    #[test]
    fn collect_garbage_relocates_live_clauses() {
        let mut db = ClauseDb::new();
        let specs: [(&[i32], bool, u32); 5] = [
            (&[1, 2, 3], false, 0),
            (&[-1, 4], true, 2),
            (&[2, -3, 5, 6], true, 3),
            (&[-4, -5], true, 1),
            (&[3, -6, 7], true, 2),
        ];
        let refs: Vec<ClauseRef> = specs
            .iter()
            .map(|&(ds, learned, glue)| db.add(&lits(ds), learned, glue))
            .collect();
        db.set_protected(refs[2], true);
        let last = db.add(&lits(&[5, -7]), true, 2);
        db.remove(refs[1]);
        db.remove(refs[3]);
        let snapshot = |db: &ClauseDb, c: ClauseRef| {
            (
                db.lits(c).to_vec(),
                db.glue(c),
                db.is_learned(c),
                db.is_protected(c),
                db.id(c),
            )
        };
        let live: Vec<ClauseRef> = db.iter_refs().collect();
        assert_eq!(live, vec![refs[0], refs[2], refs[4], last]);
        let before: Vec<_> = live.iter().map(|&c| snapshot(&db, c)).collect();
        assert!(db.garbage_words() > 0);

        let moved = db.collect_garbage();
        assert_eq!(db.garbage_words(), 0);
        assert_eq!(db.headers().count(), live.len(), "no garbage left");
        let after: Vec<ClauseRef> = live.iter().map(|&c| moved.apply(c)).collect();
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), after, "order kept");
        let snapshots: Vec<_> = after.iter().map(|&c| snapshot(&db, c)).collect();
        assert_eq!(snapshots, before);
        assert_eq!((db.num_original(), db.num_learned()), (1, 3));
        assert_eq!(db.lits_in_learned(), 4 + 3 + 2);
    }
}
