//! Negative fixture for the EPT lint scope: the same lookups written
//! with checked access — an unmapped frame is `None`, never a panic.

pub fn extent_entry(extents: &[RamExtent], gfn: u64) -> Option<EptEntry> {
    let after = extents.partition_point(|x| x.gfn <= gfn);
    let x = extents.get(after.checked_sub(1)?)?;
    let offset = gfn - x.gfn;
    (offset < x.pages).then(|| ram_entry(x.host_pfn.wrapping_add(offset)))
}

pub fn entry(overrides: &BTreeMap<u64, Option<EptEntry>>, gfn: u64) -> Option<EptEntry> {
    match overrides.get(&gfn) {
        Some(overridden) => *overridden,
        None => None,
    }
}
