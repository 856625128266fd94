//! Model test for the extent-based EPT: arbitrary `map_ram`/`map_mmio`/
//! `misconfigure`/`unmap` sequences — multi-page extents over each
//! other, single pages inside extents, re-mapping a page to its extent
//! value — must agree page for page with a per-page `BTreeMap`
//! reference, and EPTs holding the same pages must compare equal
//! whatever sequence built them.

use iris_vtx::ept::{Access, Ept, EptEntry, MemoryType, PageKind, Translation, PAGE_SHIFT};
use iris_vtx::exit::EptQual;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Guest frames the ops touch: small enough that extents overlap often.
const FRAMES: u64 = 48;

#[derive(Debug, Clone, Copy)]
enum Op {
    MapRam { gfn: u64, host: u64, pages: u64 },
    MapMmio(u64),
    Misconfigure(u64),
    Unmap(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FRAMES, 0u64..4, 0u64..20).prop_map(|(gfn, h, pages)| Op::MapRam {
            gfn,
            // Mostly identity-offset hosts, so re-maps often land on the
            // extent value the frame already has.
            host: gfn + h * 0x100,
            pages,
        }),
        (0..FRAMES, 0u64..2).prop_map(|(gfn, h)| Op::MapRam {
            gfn,
            host: gfn + h * 0x100,
            pages: 1,
        }),
        (0..FRAMES).prop_map(Op::MapMmio),
        (0..FRAMES).prop_map(Op::Misconfigure),
        (0..FRAMES).prop_map(Op::Unmap),
    ]
}

/// The reference: one entry per page, exactly the semantics of a
/// page-granular EPT.
#[derive(Debug, Default)]
struct Model(BTreeMap<u64, EptEntry>);

impl Model {
    fn apply(&mut self, op: Op) {
        match op {
            Op::MapRam { gfn, host, pages } => {
                for i in 0..pages {
                    self.0.insert(
                        gfn + i,
                        EptEntry {
                            host_pfn: host + i,
                            read: true,
                            write: true,
                            exec: true,
                            mem_type: MemoryType::WriteBack,
                            kind: PageKind::Ram,
                            misconfigured: false,
                        },
                    );
                }
            }
            Op::MapMmio(gfn) => {
                self.0.insert(
                    gfn,
                    EptEntry {
                        host_pfn: 0,
                        read: false,
                        write: false,
                        exec: false,
                        mem_type: MemoryType::Uncacheable,
                        kind: PageKind::Mmio,
                        misconfigured: false,
                    },
                );
            }
            Op::Misconfigure(gfn) => {
                if let Some(e) = self.0.get_mut(&gfn) {
                    e.misconfigured = true;
                }
            }
            Op::Unmap(gfn) => {
                self.0.remove(&gfn);
            }
        }
    }
}

fn apply(ept: &mut Ept, op: Op) {
    match op {
        Op::MapRam { gfn, host, pages } => ept.map_ram(gfn, host, pages),
        Op::MapMmio(gfn) => ept.map_mmio(gfn),
        Op::Misconfigure(gfn) => ept.misconfigure(gfn),
        Op::Unmap(gfn) => ept.unmap(gfn),
    }
}

/// Rebuild the model's pages one frame at a time — no extents at all.
fn page_by_page(model: &Model) -> Ept {
    let mut ept = Ept::new();
    for (&gfn, e) in &model.0 {
        match e.kind {
            PageKind::Ram => ept.map_ram(gfn, e.host_pfn, 1),
            PageKind::Mmio => ept.map_mmio(gfn),
        }
        if e.misconfigured {
            ept.misconfigure(gfn);
        }
    }
    ept
}

/// The page-granular translation the model implies (the SDM rules,
/// written out independently of the EPT under test).
fn model_translate(model: &Model, gpa: u64, access: Access) -> Translation {
    let entry = model.0.get(&(gpa >> PAGE_SHIFT));
    let allowed = entry.is_some_and(|e| match access {
        Access::Read => e.read,
        Access::Write => e.write,
        Access::Fetch => e.exec,
    });
    match entry {
        Some(e) if e.misconfigured => Translation::Misconfig,
        Some(e) if allowed => Translation::Ok((e.host_pfn << PAGE_SHIFT) | (gpa & 0xfff)),
        _ => Translation::Violation(EptQual {
            read: access == Access::Read,
            write: access == Access::Write,
            exec: access == Access::Fetch,
            gpa_readable: entry.is_some_and(|e| e.read),
            gpa_writable: entry.is_some_and(|e| e.write),
            gpa_executable: entry.is_some_and(|e| e.exec),
            linear_valid: true,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extent_ept_agrees_with_a_per_page_model(
        ops in proptest::collection::vec(arb_op(), 0..40),
        offset in 0u64..0x1000,
    ) {
        let mut ept = Ept::new();
        let mut model = Model::default();
        for op in ops {
            apply(&mut ept, op);
            model.apply(op);
            prop_assert_eq!(ept.mapped_frames(), model.0.len());
        }
        for gfn in 0..FRAMES + 20 {
            prop_assert_eq!(ept.entry(gfn), model.0.get(&gfn).copied());
            let gpa = (gfn << PAGE_SHIFT) | offset;
            for access in [Access::Read, Access::Write, Access::Fetch] {
                prop_assert_eq!(ept.translate(gpa, access), model_translate(&model, gpa, access));
            }
        }
    }

    #[test]
    fn same_pages_compare_equal_whatever_built_them(
        ops in proptest::collection::vec(arb_op(), 0..40),
        extra in arb_op(),
    ) {
        let mut ept = Ept::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&mut ept, *op);
            model.apply(*op);
        }
        // Same pages, no extents: the frame-by-frame comparison.
        let rebuilt = page_by_page(&model);
        prop_assert!(ept == rebuilt, "{ept:?} vs {rebuilt:?}");
        prop_assert!(rebuilt == ept);

        // Same sequence plus a no-op re-map of every mapped RAM page to
        // its current value: the normalised overrides compare equal.
        let mut remapped = ept.clone();
        for (&gfn, e) in &model.0 {
            if e.kind == PageKind::Ram && !e.misconfigured {
                remapped.map_ram(gfn, e.host_pfn, 1);
            }
        }
        prop_assert_eq!(format!("{remapped:?}"), format!("{ept:?}"));

        // One more op: equal exactly when the pages still agree.
        let mut changed = ept.clone();
        apply(&mut changed, extra);
        let mut changed_model = Model(model.0.clone());
        changed_model.apply(extra);
        prop_assert_eq!(changed == ept, changed_model.0 == model.0);
    }
}
