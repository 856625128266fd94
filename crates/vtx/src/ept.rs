//! Extended Page Tables — the second-level address translation VT-x uses
//! to virtualize guest memory.
//!
//! The model answers lookups at 4 KiB page granularity but stores RAM the
//! way real EPTs do with 2 MiB/1 GiB leaves: as a few contiguous
//! **extents**, plus a sparse per-frame **override** map for the entries
//! handlers or mutations changed since (MMIO pages, misconfigured
//! entries, unmaps, single-page remaps). Building a domain therefore
//! costs O(extents), and comparing or copying two EPTs with the same
//! RAM layout costs O(overrides) — which is what makes snapshot and
//! forest restores independent of the domain's RAM size.
//!
//! Translation faults produce either an **EPT violation** (reason 48,
//! with a qualification describing the access) or an **EPT
//! misconfiguration** (reason 49) exactly as the hypervisor's
//! `ept_violation`/`ept_misconfig` handlers expect. MMIO regions are
//! represented as *not present* mappings with a device tag, so guest
//! accesses to them fault into the instruction emulator — the same path
//! real Xen HVM uses for emulated devices.

use crate::exit::EptQual;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Page size used throughout the model.
pub const PAGE_SIZE: u64 = 4096;

/// Shift for page frame numbers.
pub const PAGE_SHIFT: u32 = 12;

/// EPT memory types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryType {
    /// Uncacheable — typical for MMIO.
    Uncacheable,
    /// Write-back — typical for RAM.
    WriteBack,
}

/// What a guest-physical page maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageKind {
    /// Ordinary RAM backed by the domain's memory.
    Ram,
    /// An MMIO page belonging to an emulated device; accesses always
    /// fault to the emulator.
    Mmio,
}

/// One EPT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EptEntry {
    /// Host frame number the guest frame maps to.
    pub host_pfn: u64,
    /// Read permission.
    pub read: bool,
    /// Write permission.
    pub write: bool,
    /// Execute permission.
    pub exec: bool,
    /// Memory type.
    pub mem_type: MemoryType,
    /// RAM or MMIO.
    pub kind: PageKind,
    /// Misconfigured entry (reserved bits set) — causes EPT_MISCONFIG.
    pub misconfigured: bool,
}

/// Kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// Outcome of an EPT translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Success: host physical address.
    Ok(u64),
    /// EPT violation with the qualification the hardware would report.
    Violation(EptQual),
    /// EPT misconfiguration.
    Misconfig,
}

/// `pages` contiguous guest frames from `gfn` backed by host frames from
/// `host_pfn`, read/write/execute write-back RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RamExtent {
    gfn: u64,
    host_pfn: u64,
    pages: u64,
}

impl RamExtent {
    fn end(&self) -> u64 {
        self.gfn.saturating_add(self.pages)
    }
}

/// The entry every RAM page gets from [`Ept::map_ram`].
fn ram_entry(host_pfn: u64) -> EptEntry {
    EptEntry {
        host_pfn,
        read: true,
        write: true,
        exec: true,
        mem_type: MemoryType::WriteBack,
        kind: PageKind::Ram,
        misconfigured: false,
    }
}

/// A per-domain EPT: RAM extents plus per-frame overrides.
///
/// Invariants: `extents` is sorted by `gfn` and disjoint; `overrides`
/// holds only frames whose entry differs from what the extents give
/// (`None` is an unmap tombstone inside an extent). With equal extents,
/// two EPTs therefore hold the same pages exactly when their override
/// maps are equal.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ept {
    extents: Vec<RamExtent>,
    overrides: BTreeMap<u64, Option<EptEntry>>,
}

impl PartialEq for Ept {
    fn eq(&self, other: &Self) -> bool {
        if self.extents == other.extents {
            return self.overrides == other.overrides;
        }
        // Different RAM layouts can still describe the same pages (one
        // big extent versus single-page remaps): compare frame by frame
        // over every frame either side could map. Domains built by the
        // same recipe share their extents and never take this walk.
        self.candidate_frames()
            .chain(other.candidate_frames())
            .all(|gfn| self.entry(gfn) == other.entry(gfn))
    }
}

impl Eq for Ept {}

impl Ept {
    /// Empty EPT — every access violates.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `pages` contiguous RAM pages starting at guest frame `gfn`
    /// to host frames starting at `host_pfn`, read/write/execute.
    /// Several pages become one extent; a single page is an override.
    pub fn map_ram(&mut self, gfn: u64, host_pfn: u64, pages: u64) {
        match pages {
            0 => {}
            1 => self.set(gfn, Some(ram_entry(host_pfn))),
            _ => self.add_extent(RamExtent {
                gfn,
                host_pfn,
                pages,
            }),
        }
    }

    /// Register an MMIO page at guest frame `gfn`: present in the p2m but
    /// with no access permissions, so every touch faults to the emulator.
    pub fn map_mmio(&mut self, gfn: u64) {
        self.set(
            gfn,
            Some(EptEntry {
                host_pfn: 0,
                read: false,
                write: false,
                exec: false,
                mem_type: MemoryType::Uncacheable,
                kind: PageKind::Mmio,
                misconfigured: false,
            }),
        );
    }

    /// Corrupt an entry's reserved bits (fuzzing hook) so the next access
    /// reports EPT_MISCONFIG.
    pub fn misconfigure(&mut self, gfn: u64) {
        if let Some(mut e) = self.entry(gfn) {
            e.misconfigured = true;
            self.set(gfn, Some(e));
        }
    }

    /// Remove a mapping entirely.
    pub fn unmap(&mut self, gfn: u64) {
        self.set(gfn, None);
    }

    /// Look up the entry for a guest frame.
    #[must_use]
    pub fn entry(&self, gfn: u64) -> Option<EptEntry> {
        match self.overrides.get(&gfn) {
            Some(overridden) => *overridden,
            None => self.extent_entry(gfn),
        }
    }

    /// Number of mapped frames.
    #[must_use]
    pub fn mapped_frames(&self) -> usize {
        let ram: u64 = self.extents.iter().map(|x| x.pages).sum();
        let (mut added, mut removed) = (0u64, 0u64);
        for (&gfn, overridden) in &self.overrides {
            match (overridden, self.extent_entry(gfn)) {
                (Some(_), None) => added += 1,
                (None, Some(_)) => removed += 1,
                _ => {}
            }
        }
        usize::try_from(ram.saturating_add(added).saturating_sub(removed)).unwrap_or(usize::MAX)
    }

    /// Translate a guest-physical address for the given access.
    #[must_use]
    pub fn translate(&self, gpa: u64, access: Access) -> Translation {
        let gfn = gpa >> PAGE_SHIFT;
        match self.entry(gfn) {
            None => Translation::Violation(Self::violation_qual(access, None)),
            Some(e) if e.misconfigured => Translation::Misconfig,
            Some(e) => {
                let allowed = match access {
                    Access::Read => e.read,
                    Access::Write => e.write,
                    Access::Fetch => e.exec,
                };
                if allowed {
                    Translation::Ok((e.host_pfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1)))
                } else {
                    Translation::Violation(Self::violation_qual(access, Some(&e)))
                }
            }
        }
    }

    /// What the extents alone map `gfn` to.
    fn extent_entry(&self, gfn: u64) -> Option<EptEntry> {
        let after = self.extents.partition_point(|x| x.gfn <= gfn);
        let x = self.extents.get(after.checked_sub(1)?)?;
        let offset = gfn - x.gfn;
        (offset < x.pages).then(|| ram_entry(x.host_pfn.wrapping_add(offset)))
    }

    /// Set one frame's entry, keeping the override map normalised: an
    /// entry equal to the extents' is not an override.
    fn set(&mut self, gfn: u64, entry: Option<EptEntry>) {
        if self.extent_entry(gfn) == entry {
            self.overrides.remove(&gfn);
        } else {
            self.overrides.insert(gfn, entry);
        }
    }

    /// Map an extent over whatever was there: carve its range out of
    /// the existing extents, drop the overrides it replaces, and keep
    /// the list sorted.
    fn add_extent(&mut self, new: RamExtent) {
        let (start, end) = (new.gfn, new.end());
        let mut extents = Vec::with_capacity(self.extents.len() + 2);
        for x in self.extents.drain(..) {
            if x.end() <= start || x.gfn >= end {
                extents.push(x);
                continue;
            }
            if x.gfn < start {
                extents.push(RamExtent {
                    pages: start - x.gfn,
                    ..x
                });
            }
            if x.end() > end {
                let cut = end - x.gfn;
                extents.push(RamExtent {
                    gfn: end,
                    host_pfn: x.host_pfn.wrapping_add(cut),
                    pages: x.end() - end,
                });
            }
        }
        let at = extents.partition_point(|x| x.gfn < start);
        extents.insert(at, new);
        self.extents = extents;
        self.overrides.retain(|gfn, _| !(start..end).contains(gfn));
    }

    /// Every frame this EPT could map: the extents' frames plus the
    /// override keys (a superset of the mapped frames).
    fn candidate_frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.extents
            .iter()
            .flat_map(|x| x.gfn..x.end())
            .chain(self.overrides.keys().copied())
    }

    fn violation_qual(access: Access, entry: Option<&EptEntry>) -> EptQual {
        EptQual {
            read: matches!(access, Access::Read),
            write: matches!(access, Access::Write),
            exec: matches!(access, Access::Fetch),
            gpa_readable: entry.is_some_and(|e| e.read),
            gpa_writable: entry.is_some_and(|e| e.write),
            gpa_executable: entry.is_some_and(|e| e.exec),
            linear_valid: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_violates() {
        let ept = Ept::new();
        match ept.translate(0x1000, Access::Read) {
            Translation::Violation(q) => {
                assert!(q.read);
                assert!(!q.gpa_readable);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ram_translation_preserves_offset() {
        let mut ept = Ept::new();
        ept.map_ram(0x10, 0x100, 4);
        assert_eq!(
            ept.translate(0x10_123, Access::Read),
            Translation::Ok(0x100_123)
        );
        assert_eq!(
            ept.translate(0x13_fff, Access::Write),
            Translation::Ok(0x103_fff)
        );
        assert!(matches!(
            ept.translate(0x14_000, Access::Read),
            Translation::Violation(_)
        ));
    }

    #[test]
    fn mmio_pages_always_fault_with_permissions_in_qual() {
        let mut ept = Ept::new();
        ept.map_mmio(0xfee00); // APIC page gfn
        match ept.translate(0xfee0_0030, Access::Write) {
            Translation::Violation(q) => {
                assert!(q.write);
                assert!(!q.gpa_writable);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(ept.entry(0xfee00).unwrap().kind, PageKind::Mmio);
    }

    #[test]
    fn misconfigured_entries_report_misconfig() {
        let mut ept = Ept::new();
        ept.map_ram(0, 0, 1);
        ept.misconfigure(0);
        assert_eq!(ept.translate(0x10, Access::Read), Translation::Misconfig);
    }

    #[test]
    fn unmap_removes() {
        let mut ept = Ept::new();
        ept.map_ram(0, 0, 1);
        ept.unmap(0);
        assert!(matches!(
            ept.translate(0, Access::Read),
            Translation::Violation(_)
        ));
        assert_eq!(ept.mapped_frames(), 0);
    }
}
