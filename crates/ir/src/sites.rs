//! Static attribution sites (the guard-site profiler's namespace).
//!
//! Every program point the CaRDS pipeline *decides* something about — an
//! inserted guard, an elided guard, a versioned-loop dispatch, a prefetch
//! issue point — gets a stable [`SiteId`] recorded in the module's
//! [`SiteTable`]. The VM surfaces the executing site to the runtime
//! profiler so remote cycles can be charged back to the compiler decision
//! that caused them, not just to a data structure.
//!
//! ## Stability guarantee
//!
//! Site IDs are assigned in deterministic pipeline order: `insert_guards`
//! walks functions by index and blocks by position, so guard sites come out
//! in (function, block, instruction) order; versioned-dispatch and
//! prefetch-point sites are appended afterwards, again in index order.
//! Compiling the same module with the same `cards_passes` options twice
//! therefore yields an identical table — byte-identical profile output
//! under replay is a difftest invariant.
//!
//! The table is an in-process artifact of one compile: it refers to
//! instruction-arena ids, which the textual printer/parser renumber, so it
//! is deliberately *not* serialized with the module text.

use std::collections::HashMap;

use crate::inst::{AccessKind, BlockId, DsMetaId, FuncId, InstId};

/// Stable identifier of one attribution site within a compiled module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// What compiler decision a site records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A `Guard` instruction inserted by guard insertion.
    Guard,
    /// A guard that redundant-guard elimination removed; `covered_by`
    /// names the surviving guard charged with its traffic.
    ElidedGuard,
    /// The `RemotableCheck`-fed dispatch branch of a versioned loop.
    VersionedDispatch,
    /// The point where a per-DS prefetcher was attached to an instance.
    PrefetchPoint,
}

impl SiteKind {
    /// Stable snake_case name used in reports, folded stacks and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SiteKind::Guard => "guard",
            SiteKind::ElidedGuard => "elided_guard",
            SiteKind::VersionedDispatch => "dispatch",
            SiteKind::PrefetchPoint => "prefetch",
        }
    }
}

/// One attribution site: a static program point plus the context a report
/// needs to render it (function/block names, DS, access kind).
#[derive(Clone, Debug, PartialEq)]
pub struct Site {
    /// This site's id (== its index in the table).
    pub id: SiteId,
    /// Which compiler decision this site records.
    pub kind: SiteKind,
    /// Owning function.
    pub func: FuncId,
    /// Owning function's symbol name (display context).
    pub func_name: String,
    /// Containing block, when the site is an instruction point.
    pub block: Option<BlockId>,
    /// Containing block's label (display context; `bbN` if unnamed).
    pub block_name: String,
    /// The instruction the site is anchored to (the `Guard` /
    /// `RemotableCheck` arena id). `None` for prefetch points, which are
    /// per-instance rather than per-instruction.
    pub inst: Option<InstId>,
    /// Access kind for guard sites.
    pub access: Option<AccessKind>,
    /// Data structure the site's traffic flows through, when the pipeline
    /// can pin one down.
    pub ds: Option<DsMetaId>,
    /// For [`SiteKind::ElidedGuard`]: the surviving guard site that now
    /// carries this site's checks.
    pub covered_by: Option<SiteId>,
}

/// Per-module table of attribution sites, carried on
/// [`crate::function::Module`] and filled in by `cards_passes`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiteTable {
    sites: Vec<Site>,
    by_inst: HashMap<(u32, u32), SiteId>,
}

impl SiteTable {
    /// Register a new site anchored at `inst` (if any), returning its id.
    /// Context fields start empty; fill them via [`SiteTable::site_mut`].
    pub fn add(&mut self, kind: SiteKind, func: FuncId, inst: Option<InstId>) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(Site {
            id,
            kind,
            func,
            func_name: String::new(),
            block: None,
            block_name: String::new(),
            inst,
            access: None,
            ds: None,
            covered_by: None,
        });
        if let Some(i) = inst {
            self.by_inst.insert((func.0, i.0), id);
        }
        id
    }

    /// The site anchored at instruction `inst` of `func`, if any. The VM
    /// resolves it once per `Guard` and dispatch branch when it decodes a
    /// module.
    pub fn lookup(&self, func: FuncId, inst: InstId) -> Option<SiteId> {
        self.by_inst.get(&(func.0, inst.0)).copied()
    }

    /// Access a site by id.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0 as usize]
    }

    /// Mutable access to a site by id.
    pub fn site_mut(&mut self, id: SiteId) -> &mut Site {
        &mut self.sites[id.0 as usize]
    }

    /// Iterate sites in id order (which is deterministic pipeline order).
    pub fn iter(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter()
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no pass has registered a site (e.g. an uncompiled module).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Reclassify a guard site as elided, crediting its traffic to the
    /// surviving `covered_by` site. The anchor mapping is dropped — the
    /// elided instruction no longer executes.
    pub fn mark_elided(&mut self, id: SiteId, covered_by: SiteId) {
        let s = &mut self.sites[id.0 as usize];
        s.kind = SiteKind::ElidedGuard;
        s.covered_by = Some(covered_by);
        if let Some(i) = s.inst {
            self.by_inst.remove(&(s.func.0, i.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_lookup_roundtrips() {
        let mut t = SiteTable::default();
        let a = t.add(SiteKind::Guard, FuncId(0), Some(InstId(3)));
        let b = t.add(SiteKind::Guard, FuncId(1), Some(InstId(3)));
        let c = t.add(SiteKind::PrefetchPoint, FuncId(0), None);
        assert_eq!((a, b, c), (SiteId(0), SiteId(1), SiteId(2)));
        assert_eq!(t.lookup(FuncId(0), InstId(3)), Some(a));
        assert_eq!(t.lookup(FuncId(1), InstId(3)), Some(b));
        assert_eq!(t.lookup(FuncId(2), InstId(3)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn mark_elided_unmaps_the_anchor() {
        let mut t = SiteTable::default();
        let dead = t.add(SiteKind::Guard, FuncId(0), Some(InstId(7)));
        let live = t.add(SiteKind::Guard, FuncId(0), Some(InstId(5)));
        t.mark_elided(dead, live);
        assert_eq!(t.site(dead).kind, SiteKind::ElidedGuard);
        assert_eq!(t.site(dead).covered_by, Some(live));
        assert_eq!(t.lookup(FuncId(0), InstId(7)), None);
        assert_eq!(t.lookup(FuncId(0), InstId(5)), Some(live));
    }
}
