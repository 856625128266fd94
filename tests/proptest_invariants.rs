//! Property-based tests over the core data structures and invariants.

use iris_core::seed::{VmSeed, MAX_VMCS_OPS};
use iris_fuzzer::mutation::{mutate, AppliedMutation, SeedArea};
use iris_hv::coverage::{Block, Component, CoverageMap};
use iris_vtx::cr::{Cr0, OperatingMode};
use iris_vtx::exit::{CrAccessQual, EptQual, ExitReason, IoQual};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::{Gpr, GprSet};
use iris_vtx::vmcs::Vmcs;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn arb_field() -> impl Strategy<Value = VmcsField> {
    (0..VmcsField::ALL.len()).prop_map(|i| VmcsField::ALL[i])
}

fn arb_reason() -> impl Strategy<Value = ExitReason> {
    (0..ExitReason::FIGURE_REASONS.len()).prop_map(|i| ExitReason::FIGURE_REASONS[i])
}

fn arb_seed() -> impl Strategy<Value = VmSeed> {
    (
        arb_reason(),
        proptest::collection::vec((arb_field(), any::<u64>()), 0..MAX_VMCS_OPS),
        proptest::collection::vec(any::<u64>(), Gpr::COUNT),
    )
        .prop_map(|(reason, reads, gprs)| {
            let mut s = VmSeed::new(reason);
            for (f, v) in reads {
                s.push_read(f, v);
            }
            let mut set = GprSet::new();
            for (g, v) in Gpr::ALL.iter().zip(gprs) {
                set.set(*g, v);
            }
            s.gprs = set;
            s
        })
}

proptest! {
    /// The seed wire format round-trips for every well-formed seed.
    #[test]
    fn seed_codec_round_trips(seed in arb_seed()) {
        let decoded = VmSeed::decode(&seed.encode()).expect("decodes");
        prop_assert_eq!(decoded, seed);
    }

    /// Seed payloads never exceed the paper's 470-byte pre-allocation.
    #[test]
    fn seed_payload_bounded(seed in arb_seed()) {
        prop_assert!(seed.payload_bytes() <= 470);
    }

    /// VMCS writes are width-truncating and idempotent; reads never
    /// observe bits a field cannot hold.
    #[test]
    fn vmcs_width_truncation(field in arb_field(), value in any::<u64>()) {
        let mut v = Vmcs::new(0x1000);
        v.hw_write(field, value);
        let read = v.read(field).unwrap();
        prop_assert_eq!(read, value & field.value_mask());
        v.hw_write(field, read);
        prop_assert_eq!(v.read(field).unwrap(), read);
    }

    /// Read-only classification matches the architectural area encoding
    /// and VMWRITE honours it.
    #[test]
    fn vmcs_read_only_rejection(field in arb_field(), value in any::<u64>()) {
        let mut v = Vmcs::new(0x1000);
        let result = v.write(field, value);
        prop_assert_eq!(result.is_err(), field.is_read_only());
    }

    /// Qualification encodings round-trip.
    #[test]
    fn cr_qual_round_trip(cr in prop_oneof![Just(0u8), Just(3), Just(4), Just(8)],
                          ty in 0u8..4, op in 0u8..16, lmsw in any::<u16>()) {
        let access = match ty {
            0 => iris_vtx::exit::CrAccessType::MovToCr,
            1 => iris_vtx::exit::CrAccessType::MovFromCr,
            2 => iris_vtx::exit::CrAccessType::Clts,
            _ => iris_vtx::exit::CrAccessType::Lmsw,
        };
        let q = CrAccessQual {
            cr,
            access,
            gpr: Gpr::from_mov_cr_operand(op),
            lmsw_source: lmsw,
        };
        prop_assert_eq!(CrAccessQual::decode(q.encode()), q);
    }

    /// I/O qualifications round-trip for all legal sizes.
    #[test]
    fn io_qual_round_trip(size in prop_oneof![Just(1u8), Just(2), Just(4)],
                          dir in any::<bool>(), string in any::<bool>(),
                          rep in any::<bool>(), port in any::<u16>()) {
        let q = IoQual {
            size,
            direction: if dir { iris_vtx::exit::IoDirection::In } else { iris_vtx::exit::IoDirection::Out },
            string,
            rep,
            port,
        };
        prop_assert_eq!(IoQual::decode(q.encode()), q);
    }

    /// EPT qualifications round-trip.
    #[test]
    fn ept_qual_round_trip(bits in 0u8..128) {
        let q = EptQual {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            exec: bits & 4 != 0,
            gpa_readable: bits & 8 != 0,
            gpa_writable: bits & 16 != 0,
            gpa_executable: bits & 32 != 0,
            linear_valid: bits & 64 != 0,
        };
        prop_assert_eq!(EptQual::decode(q.encode()), q);
    }

    /// The CR0 mode classification is total and stable under
    /// irrelevant-bit changes.
    #[test]
    fn mode_classification_total(value in any::<u64>()) {
        let mode = Cr0(value).operating_mode();
        prop_assert!(OperatingMode::ALL.contains(&mode));
        // Bits outside PE/PG/AM/TS/CD never change the mode.
        use iris_vtx::cr::cr0;
        let relevant = cr0::PE | cr0::PG | cr0::AM | cr0::TS | cr0::CD;
        let other = Cr0((value & relevant) | (!value & !relevant & cr0::DEFINED));
        prop_assert_eq!(mode, other.operating_mode());
    }

    /// The dense field index round-trips for every enumerated field and
    /// stays within one byte (the seed codec's encoding byte).
    #[test]
    fn vmcs_field_index_round_trips(i in 0..VmcsField::ALL.len()) {
        let field = VmcsField::ALL[i];
        let idx = field.index();
        prop_assert_eq!(idx as usize, i);
        prop_assert_eq!(VmcsField::from_index(idx), Some(field));
        prop_assert_eq!(field.compact_index(), idx);
        prop_assert_eq!(VmcsField::from_compact_index(idx), Some(field));
    }

    /// The dense bitmap CoverageMap matches a BTreeMap reference model:
    /// `lines`, `merge`, `new_lines_from`, `symmetric_diff_lines`,
    /// `contains`, per-component sums, and the serde round trip.
    #[test]
    fn coverage_bitmap_matches_btreemap_model(
        left in proptest::collection::vec((0usize..12, 0u16..256, 1u32..40), 0..60),
        right in proptest::collection::vec((0usize..12, 0u16..256, 1u32..40), 0..60),
    ) {
        use std::collections::BTreeMap;

        let build = |hits: &[(usize, u16, u32)]| {
            let mut map = CoverageMap::new();
            let mut model: BTreeMap<Block, u64> = BTreeMap::new();
            for &(c, id, loc) in hits {
                let block = Block::new(Component::ALL[c], id);
                map.hit(block, loc);
                model.entry(block).or_insert(u64::from(loc)); // first weight wins
            }
            (map, model)
        };
        let (mut a, model_a) = build(&left);
        let (b, model_b) = build(&right);

        let model_lines = |m: &BTreeMap<Block, u64>| m.values().sum::<u64>();
        prop_assert_eq!(a.lines(), model_lines(&model_a));
        prop_assert_eq!(a.block_count(), model_a.len());
        for &component in Component::ALL {
            let per: u64 = model_a
                .iter()
                .filter(|(blk, _)| blk.component == component)
                .map(|(_, l)| *l)
                .sum();
            prop_assert_eq!(a.lines_in(component), per);
        }
        for blk in model_b.keys() {
            prop_assert_eq!(a.contains(*blk), model_a.contains_key(blk));
        }

        let new_from_b: u64 = model_b
            .iter()
            .filter(|(blk, _)| !model_a.contains_key(blk))
            .map(|(_, l)| *l)
            .sum();
        prop_assert_eq!(a.new_lines_from(&b), new_from_b);
        let new_from_a: u64 = model_a
            .iter()
            .filter(|(blk, _)| !model_b.contains_key(blk))
            .map(|(_, l)| *l)
            .sum();
        prop_assert_eq!(a.symmetric_diff_lines(&b), new_from_a + new_from_b);

        // Serde round trip preserves the exact block/weight set.
        let json = serde_json::to_string(&a).expect("serializes");
        let back: CoverageMap = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&back, &a);

        // Merge matches the model union (first weight wins on collisions,
        // matching the old BTreeMap entry().or_insert semantics).
        let mut merged_model = model_a.clone();
        for (blk, l) in &model_b {
            merged_model.entry(*blk).or_insert(*l);
        }
        a.merge(&b);
        prop_assert_eq!(a.lines(), model_lines(&merged_model));
        prop_assert_eq!(a.block_count(), merged_model.len());
        let pairs: Vec<(Block, u32)> = a.iter().collect();
        prop_assert_eq!(pairs.len(), merged_model.len());
        for (blk, l) in pairs {
            prop_assert_eq!(merged_model.get(&blk), Some(&u64::from(l)));
        }
    }

    /// Sharding a hit stream across N workers and folding the per-worker
    /// maps word-wise reproduces the sequential run's map exactly — the
    /// invariant `ParallelCampaign`'s aggregator rests on. Holds for any
    /// shard assignment and any fold order.
    #[test]
    fn sharded_coverage_merge_equals_sequential(
        hits in proptest::collection::vec((0usize..12, 0u16..256), 0..80),
        jobs in 1usize..8,
    ) {
        let mut sequential = CoverageMap::new();
        let mut shards = vec![CoverageMap::new(); jobs];
        for (i, &(c, id)) in hits.iter().enumerate() {
            let block = Block::new(Component::ALL[c], id);
            // LOC weights are static per block in the real system (each
            // `cov!` site always reports the same weight), so derive the
            // weight from the block identity.
            let loc = u32::from(id) % 39 + 1;
            sequential.hit(block, loc);
            shards[i % jobs].hit(block, loc);
        }
        prop_assert_eq!(&CoverageMap::merged(shards.iter()), &sequential);
        // Completion order must not matter to the aggregator.
        prop_assert_eq!(&CoverageMap::merged(shards.iter().rev()), &sequential);
    }

    /// Coverage-map merge is monotone and idempotent; line counts never
    /// double-count blocks.
    #[test]
    fn coverage_merge_monotone(hits in proptest::collection::vec((0u16..64, 1u32..20), 1..40)) {
        let mut a = CoverageMap::new();
        for &(id, loc) in &hits[..hits.len() / 2] {
            a.hit(Block::new(Component::Vmx, id), loc);
        }
        let mut b = CoverageMap::new();
        for &(id, loc) in &hits[hits.len() / 2..] {
            b.hit(Block::new(Component::Vmx, id), loc);
        }
        let before = a.lines();
        let gain = a.new_lines_from(&b);
        a.merge(&b);
        prop_assert_eq!(a.lines(), before + gain);
        // Idempotent.
        let after = a.lines();
        a.merge(&b);
        prop_assert_eq!(a.lines(), after);
        prop_assert_eq!(a.new_lines_from(&b), 0);
    }

    /// A mutation flips exactly one bit in exactly one place, and the
    /// mutant still encodes/decodes.
    #[test]
    fn mutation_flips_one_bit(seed in arb_seed(), area_sel in any::<bool>(), rng_seed in any::<u64>()) {
        let area = if area_sel { SeedArea::Vmcs } else { SeedArea::Gpr };
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let (mutant, applied) = mutate(&seed, area, &mut rng);
        match applied {
            None => prop_assert_eq!(&mutant, &seed),
            Some(AppliedMutation::VmcsBitFlip { index, bit }) => {
                prop_assert_eq!(mutant.reads[index].1 ^ seed.reads[index].1, 1u64 << bit);
                prop_assert_eq!(&mutant.gprs, &seed.gprs);
            }
            Some(AppliedMutation::GprBitFlip { gpr, bit }) => {
                prop_assert_eq!(mutant.gprs.get(gpr) ^ seed.gprs.get(gpr), 1u64 << bit);
                prop_assert_eq!(&mutant.reads, &seed.reads);
            }
        }
        let round = VmSeed::decode(&mutant.encode()).expect("mutants stay well-formed");
        prop_assert_eq!(round, mutant);
    }

    /// VM-entry checks are a pure function of the VMCS: same state, same
    /// verdict (determinism matters for replay).
    #[test]
    fn entry_checks_deterministic(rip in any::<u64>(), rflags in any::<u64>(), cr0 in any::<u64>()) {
        let mut v = Vmcs::new(0x2000);
        iris_vtx::entry_checks::init_real_mode_guest_state(&mut v);
        v.hw_write(VmcsField::GuestRip, rip);
        v.hw_write(VmcsField::GuestRflags, rflags);
        v.hw_write(VmcsField::GuestCr0, cr0);
        let first = iris_vtx::entry_checks::check_guest_state(&v);
        let second = iris_vtx::entry_checks::check_guest_state(&v);
        prop_assert_eq!(first, second);
    }
}

/// The recorded substrate the mutant-range partition property fuzzes
/// over — recorded once, shared across cases.
fn partition_trace() -> &'static iris_core::trace::RecordedTrace {
    static TRACE: OnceLock<iris_core::trace::RecordedTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        iris_fuzzer::target::record_trace(iris_guest::workloads::Workload::OsBoot, 120, 42)
    })
}

proptest! {
    // Each case boots one target per chunk, so keep the case count
    // modest — the partition space is low-dimensional anyway.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The per-range RNG law, stated as a property: for an **arbitrary**
    /// partition of a test case's mutant range into chunks, the merged
    /// `TestCaseResult` (coverage, stats, corpus — compared on
    /// serialized JSON) is byte-identical to the campaign engine's
    /// whole-cell `jobs=1` run. This is the invariant `ParallelCampaign`'s
    /// chunk-granular work stealing rests on.
    #[test]
    fn chunked_partition_matches_unchunked(
        lens in proptest::collection::vec(1usize..12, 1..8),
        vmcs_area in any::<bool>(),
        rng_seed in any::<u64>(),
    ) {
        use iris_fuzzer::campaign::{assemble_test_case, run_mutant_range_with};
        use iris_fuzzer::corpus::Corpus;
        use iris_fuzzer::parallel::ParallelCampaign;
        use iris_fuzzer::target::Backend;
        use iris_fuzzer::testcase::{MutantRange, TestCase};

        let trace = partition_trace();
        let (reason, area) = if vmcs_area {
            (ExitReason::CrAccess, SeedArea::Vmcs) // crash-heavy cell
        } else {
            (ExitReason::Cpuid, SeedArea::Gpr) // coverage-heavy cell
        };
        let seed_index = trace
            .seeds
            .iter()
            .position(|s| s.reason == reason)
            .expect("reason present in the boot trace");
        let tc = TestCase {
            mutants: lens.iter().sum(),
            ..TestCase::new(
                iris_guest::workloads::Workload::OsBoot,
                seed_index,
                reason,
                area,
                rng_seed,
            )
        };
        let factory = Backend::Iris;

        // Unchunked reference: one worker, one chunk spanning the cell.
        let reference = ParallelCampaign::with_factory(1, factory)
            .with_chunk(usize::MAX)
            .run_trace(trace, std::slice::from_ref(&tc));

        // The arbitrary partition, chunk by chunk on fresh targets.
        let mut outputs = Vec::new();
        let mut start = 0usize;
        for len in lens {
            outputs.push(run_mutant_range_with(&factory, trace, &tc, MutantRange { start, len }));
            start += len;
        }
        let mut corpus = Corpus::new();
        let (result, cov) = assemble_test_case(&tc, outputs, &mut corpus);

        prop_assert_eq!(
            serde_json::to_string(&result).expect("serializes"),
            serde_json::to_string(&reference.results[0]).expect("serializes")
        );
        prop_assert_eq!(&cov, &reference.coverage);
        prop_assert_eq!(
            serde_json::to_string(&corpus).expect("serializes"),
            serde_json::to_string(&reference.corpus).expect("serializes")
        );
    }
}

/// Workload generation is a pure function of (kind, count, seed).
#[test]
fn workload_generation_deterministic() {
    use iris_guest::workloads::Workload;
    for w in Workload::ALL {
        assert_eq!(w.generate(64, 3), w.generate(64, 3));
        assert_ne!(
            w.generate(64, 3),
            w.generate(64, 4),
            "{w:?} must vary with the seed"
        );
    }
}
