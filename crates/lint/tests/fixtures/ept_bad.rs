//! Positive fixture for the EPT lint scope: a lookup that finds a
//! frame's RAM extent with index arithmetic and trusts the override
//! map with a panicking unwrap. Both run on every EPT exit and in every
//! restore's equality walk.

pub fn extent_entry(extents: &[RamExtent], gfn: u64) -> EptEntry {
    // `partition_point` returns 0 for a frame below every extent, so
    // `i - 1` underflows and the index panics instead of reporting an
    // unmapped frame.
    let i = extents.partition_point(|x| x.gfn <= gfn);
    let x = extents[i - 1];
    ram_entry(x.host_pfn + (gfn - x.gfn))
}

pub fn entry(overrides: &BTreeMap<u64, Option<EptEntry>>, gfn: u64) -> EptEntry {
    // A frame without an override is the common case, not a bug.
    overrides.get(&gfn).copied().flatten().unwrap()
}
