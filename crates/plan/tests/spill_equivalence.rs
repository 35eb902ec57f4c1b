//! The storage engine's acceptance property: a relation larger than
//! the configured buffer budget (verified via pool stats — pages
//! evicted > 0) scans, filters, ∪̃/∩̃-merges and goes through −̃, ×̃ and
//! ⋈̃ in the plan layer with results identical to the in-memory
//! executor, proptest-checked against `plan::reference`. Also pins the
//! spilled-build-side path: forcing every build side to a temp segment
//! (`spill_threshold_bytes = 0`) must not change a single bit of the
//! output, the stats, or the conflict-report order. And the fused
//! path: a σ̃ directly over a stored scan runs inside the scan, for
//! every predicate and threshold kind, with output bit-identical to
//! the in-memory run and to the reference. And the shared key index:
//! every stored shape runs twice over the same `StoredRelation`s — the
//! first run builds the right side's index, the second reuses it — and
//! the two runs are indistinguishable except for `key_index_builds`.
//! And the third fusion: a σ̃ directly over a ∪̃/∩̃ runs inside the
//! merge, and is `SelectOp` over `MergeOp` — and the reference — bit
//! for bit, report and errors included, whichever side is in memory,
//! stored or spilled.

use evirel_algebra::union::UnionOptions;
use evirel_algebra::{ConflictPolicy, ConflictReport, Operand, Predicate, ThetaOp, Threshold};
use evirel_evidence::rules::CombinationRule;
use evirel_evidence::MassFunction;
use evirel_plan::ops::{DempsterMerger, MergeEmit, MergeOp, Operator, ScanOp, SelectOp};
use evirel_plan::reference::execute_reference;
use evirel_plan::spill::SpillScanOp;
use evirel_plan::{
    execute_merge, execute_plan, explain_plan, scan, Bindings, BoundRelation, BufferPool,
    ExecContext, ExecStats, LogicalPlan, MergePairing, StoredRelation, TupleMerger,
};
use evirel_relation::cwa::CwaPolicy;
use evirel_relation::{
    AttrDomain, AttrValue, ExtendedRelation, Schema, SupportPair, Tuple, Value, ValueKind,
};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use proptest::prelude::*;
use std::sync::Arc;

const PAGE: usize = 512;

fn pair(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            seed,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.3,
    })
    .expect("generator config is valid")
}

/// Write a relation to a temp segment and open it against `pool`.
fn store(rel: &ExtendedRelation, pool: &Arc<BufferPool>) -> Arc<StoredRelation> {
    let path = evirel_store::spill_path("equiv");
    evirel_store::write_segment(rel, &path, PAGE).expect("segment writes");
    let stored = StoredRelation::open(&path, Arc::clone(pool)).expect("segment opens");
    std::fs::remove_file(&path).ok();
    Arc::new(stored)
}

fn options() -> UnionOptions {
    UnionOptions {
        on_total_conflict: ConflictPolicy::Vacuous,
        ..Default::default()
    }
}

/// Same schema names, same size, per-key bit-identical membership and
/// approx-equal values (the reference composes the same float ops, so
/// equality is in fact exact; approx on values covers the documented
/// model tolerance).
fn equivalent(expected: &ExtendedRelation, got: &ExtendedRelation) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("sizes differ: {} vs {}", expected.len(), got.len()));
    }
    for (key, e) in expected.iter_keyed() {
        let g = got
            .get_by_key(&key)
            .ok_or_else(|| format!("missing key {}", Value::render_key(&key)))?;
        if (e.membership().sn() - g.membership().sn()).abs() > 1e-12
            || (e.membership().sp() - g.membership().sp()).abs() > 1e-12
        {
            return Err(format!("membership differs at {}", Value::render_key(&key)));
        }
        for (pos, (ev, gv)) in e.values().iter().zip(g.values().iter()).enumerate() {
            if !ev.approx_eq(gv) {
                return Err(format!(
                    "value differs at {} position {pos}",
                    Value::render_key(&key)
                ));
            }
        }
    }
    Ok(())
}

/// Values and `(sn, sp)` bit for bit, tuple by tuple, in order.
fn same_tuples<'a>(
    expected: impl IntoIterator<Item = &'a Tuple>,
    got: impl IntoIterator<Item = &'a Tuple>,
) -> Result<(), String> {
    let (expected, got): (Vec<_>, Vec<_>) =
        (expected.into_iter().collect(), got.into_iter().collect());
    if expected.len() != got.len() {
        return Err(format!("sizes differ: {} vs {}", expected.len(), got.len()));
    }
    for (at, (e, g)) in expected.into_iter().zip(got).enumerate() {
        let (em, gm) = (e.membership(), g.membership());
        if e.values() != g.values()
            || em.sn().to_bits() != gm.sn().to_bits()
            || em.sp().to_bits() != gm.sp().to_bits()
        {
            return Err(format!("tuple {at} differs"));
        }
    }
    Ok(())
}

/// [`same_tuples`] of two relations.
fn identical(expected: &ExtendedRelation, got: &ExtendedRelation) -> Result<(), String> {
    same_tuples(expected.iter(), got.iter())
}

/// The fields a stored run may differ from an in-memory one in.
fn masked(stats: ExecStats) -> ExecStats {
    ExecStats {
        records_skipped: 0,
        key_index_builds: 0,
        ..stats
    }
}

/// One plan shape per drawn discriminant: scan, filter, threshold,
/// project, ∪̃, σ̃(∪̃), ∩̃, −̃, ×̃, and ⋈̃ — σ̃ over ×̃ with a definite `=`
/// across the sides (`GA`, `GB`: the generated relations' names).
fn shaped_plan(shape: u8, val: u8) -> LogicalPlan {
    let label = |i: u8| Value::str(format!("v{}", i % 8));
    match shape % 10 {
        0 => scan("sa").build(),
        1 => scan("sa")
            .select(Predicate::is("e0", [label(val), label(val + 1)]))
            .build(),
        2 => scan("sa").threshold(Threshold::SnAtLeast(0.3)).build(),
        3 => scan("sa").project(["k", "e1"]).build(),
        4 => scan("sa").union(scan("sb")).build(),
        5 => scan("sa")
            .union(scan("sb"))
            .select(Predicate::is("e0", [label(val)]))
            .project(["k", "e0"])
            .build(),
        6 => scan("sa").intersect(scan("sb")).build(),
        7 => scan("sa").difference(scan("sb")).build(),
        8 => scan("sa").product(scan("sb")).build(),
        _ => scan("sa")
            .product(scan("sb"))
            .select(
                Predicate::theta(Operand::attr("GA.k"), ThetaOp::Eq, Operand::attr("GB.k"))
                    .and(Predicate::is("GB.e1", [label(val), label(val + 1)]).negate()),
            )
            .build(),
    }
}

/// One σ̃ predicate per kind — is, θ (literal and attribute operands),
/// ∧, ∨, ¬ — over the generated schema `(k, e0, e1, e2)`.
fn predicate_of(kind: u8, attr: u8, val: u8) -> Predicate {
    let e = |i: u8| format!("e{}", i % 3);
    let label = |i: u8| Value::str(format!("v{}", i % 16));
    let is = Predicate::is(e(attr), [label(val), label(val + 1), label(val + 5)]);
    match kind % 6 {
        0 => is,
        1 => Predicate::theta(
            Operand::attr(e(attr)),
            ThetaOp::Ge,
            Operand::Value(label(val)),
        ),
        2 => Predicate::theta(
            Operand::attr(e(attr)),
            ThetaOp::Le,
            Operand::attr(e(attr + 1)),
        ),
        3 => is.and(Predicate::theta(
            Operand::attr("k"),
            ThetaOp::Ne,
            Operand::Value(Value::str("shared-0")),
        )),
        4 => is.or(Predicate::is(e(attr + 1), [label(val + 3)])),
        _ => is.negate(),
    }
}

fn threshold_of(kind: u8) -> Threshold {
    match kind % 4 {
        0 => Threshold::POSITIVE,
        1 => Threshold::SnAtLeast(0.3),
        2 => Threshold::Definite,
        _ => Threshold::SpAtLeastPositive(0.5),
    }
}

proptest! {
    // 6 predicate shapes × 4 thresholds: enough cases to draw each.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// σ̃ directly over a stored scan — evaluated inside the scan — is
    /// the in-memory σ̃ bit for bit (values, `(sn, sp)`, order) at 1
    /// and 4 threads, agrees with the reference, counts every stored
    /// tuple as scanned, and skips exactly the records it drops.
    #[test]
    fn fused_selection_is_bit_identical_to_memory_and_reference(
        seed in 0u64..1_000_000,
        pred_kind in 0u8..6,
        attr_val in 0u8..48, // attribute index × predicate value, combined
        th in 0u8..4,
        projected in 0u8..2,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (ga, _) = pair(seed, 120);
        let pool = Arc::new(BufferPool::new(3 * PAGE));
        let sa = store(&ga, &pool);
        let mut stored_bindings = Bindings::new();
        stored_bindings.bind_stored("sa", Arc::clone(&sa));
        let mut mem_bindings = Bindings::new();
        mem_bindings.bind("sa", ga);

        let predicate = predicate_of(pred_kind, attr_val / 16, attr_val % 16);
        let selected = scan("sa").select_where(predicate, threshold_of(th));
        let plan = match projected {
            0 => selected.build(),
            _ => selected.project(["k", "e1"]).build(),
        };

        let run = |bindings: &Bindings| {
            let mut ctx = ExecContext::with_options(options());
            ctx.parallelism = threads;
            let out = execute_plan(&plan, bindings, &mut ctx).expect("plan executes");
            (out, ctx.stats)
        };
        let (mem, mem_stats) = run(&mem_bindings);
        let (fused, fused_stats) = run(&stored_bindings);

        if let Err(reason) = identical(&mem, &fused) {
            prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
        }
        let (reference, _) = execute_reference(&plan, &mem_bindings, &options())
            .expect("reference executes");
        if let Err(reason) = equivalent(&reference, &fused) {
            prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
        }

        prop_assert_eq!(fused_stats.tuples_scanned, sa.len());
        prop_assert_eq!(fused_stats.records_skipped, sa.len() - fused.len());
        prop_assert_eq!(masked(fused_stats), mem_stats);
        prop_assert!(pool.stats().evictions > 0, "budget never forced an eviction");

        let text = explain_plan(&plan, &stored_bindings, &mut ExecContext::new(), false)
            .expect("explains");
        prop_assert!(text.contains("] with ") && text.contains(" ⟵ scan sa [stored:"), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One flipped bit anywhere in the segment file — most land in an
    /// attribute the fused scan skips, of a record it drops — and the
    /// query fails with a typed error (the open's checksum chain or the
    /// page CRC on the read): never a panic, never an answer.
    #[test]
    fn fused_scan_never_answers_from_a_flipped_segment(
        seed in 0u64..1000,
        pred_kind in 0u8..6,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let (ga, _) = pair(seed, 60);
        let path = evirel_store::spill_path("flip");
        evirel_store::write_segment(&ga, &path, PAGE).expect("segment writes");
        let mut bytes = std::fs::read(&path).expect("segment readable");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("segment rewritable");

        let plan = scan("sa")
            .select_where(predicate_of(pred_kind, 1, 3), Threshold::SnGreater(0.5))
            .build();
        let outcome = StoredRelation::open(&path, Arc::new(BufferPool::new(3 * PAGE)))
            .map_err(|e| e.to_string())
            .and_then(|stored| {
                let mut bindings = Bindings::new();
                bindings.bind_stored("sa", Arc::new(stored));
                execute_plan(&plan, &bindings, &mut ExecContext::with_options(options()))
                    .map_err(|e| e.to_string())
            });
        std::fs::remove_file(&path).ok();
        prop_assert!(
            outcome.is_err(),
            "flip at byte {pos} bit {bit} answered with {} tuples",
            outcome.map(|r| r.len()).unwrap_or(0)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE acceptance property: stored relations bigger than the pool
    /// budget, streamed through scans/filters/merges, reproduce the
    /// in-memory run bit for bit — tuples, order, conflict-report
    /// order, counters — and the reference, and the pool really
    /// evicted. Each plan runs twice over the same stored relations:
    /// a ∪̃/∩̃/−̃ builds its right side's key index on the first run
    /// and finds it on the second, and nothing else tells them apart;
    /// a ×̃/⋈̃ drains its stored right side and builds no index.
    #[test]
    fn stored_execution_matches_reference_under_tiny_budget(
        seed in 0u64..1_000_000,
        shape in 0u8..10,
        val in 0u8..8,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (ga, gb) = pair(seed, 120);
        // ~3 pages of budget; each relation spans dozens of pages.
        let pool = Arc::new(BufferPool::new(3 * PAGE));
        let sa = store(&ga, &pool);
        let sb = store(&gb, &pool);
        prop_assert!(sa.segment().page_count() * PAGE as u64 > pool.budget_bytes() as u64,
            "relation must outgrow the buffer budget");

        let mut stored_bindings = Bindings::new();
        stored_bindings.bind_stored("sa", Arc::clone(&sa));
        stored_bindings.bind_stored("sb", Arc::clone(&sb));
        let mut mem_bindings = Bindings::new();
        mem_bindings.bind("sa", ga);
        mem_bindings.bind("sb", gb);

        let plan = shaped_plan(shape, val);
        let (reference, _) = execute_reference(&plan, &mem_bindings, &options())
            .expect("reference executes");
        let mut mem_ctx = ExecContext::with_options(options());
        mem_ctx.parallelism = threads;
        let mem = execute_plan(&plan, &mem_bindings, &mut mem_ctx).expect("in-memory executes");

        // Shapes 4–7 put a bare stored scan on a merge's or a
        // difference's right.
        let indexed = usize::from((4..8).contains(&shape));
        for builds in [indexed, 0] {
            let mut ctx = ExecContext::with_options(options());
            ctx.parallelism = threads;
            let streamed = execute_plan(&plan, &stored_bindings, &mut ctx)
                .expect("stored execution succeeds");
            if let Err(reason) = equivalent(&reference, &streamed) {
                prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
            }
            if let Err(reason) = identical(&mem, &streamed) {
                prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
            }
            prop_assert_eq!(
                mem_ctx.conflict_report().conflicts(),
                ctx.conflict_report().conflicts()
            );
            prop_assert_eq!(ctx.stats.key_index_builds, builds, "plan:\n{}", plan.render());
            prop_assert_eq!(mem_ctx.stats, masked(ctx.stats), "stats diverged");
        }
        prop_assert_eq!(sb.key_index().expect("indexes").1, indexed == 0);
        prop_assert!(sa.key_index().expect("indexes").1, "a left side is never indexed");
        let stats = pool.stats();
        prop_assert!(stats.evictions > 0, "budget never forced an eviction: {stats:?}");
    }

    /// The integration pipeline's paired merge over stored sides: an
    /// explicit pairing (equal and unequal keys matched, some right
    /// keys claimed by neither list) runs through the same ordinal
    /// build side — the unmatched-right phase asks the pairing about
    /// the key of the tuple it fetched — twice, against the in-memory
    /// run.
    #[test]
    fn paired_merge_over_stored_sides_matches_memory(
        seed in 0u64..1_000_000,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (ga, gb) = pair(seed, 120);
        let shared = |k: &[Value]| Value::render_key(k).starts_with("(shared-");
        let (l_keys, r_keys): (Vec<_>, Vec<_>) = (ga.keys().collect(), gb.keys().collect());
        let mut pairing = MergePairing::default();
        for key in l_keys.iter().filter(|k| shared(k)) {
            pairing.matched.insert(key.clone(), key.clone());
        }
        // Unequal keys: every fourth left-only key takes a right-only partner.
        let mut l_rest = l_keys.iter().filter(|k| !shared(k));
        let mut r_rest = r_keys.iter().filter(|k| !shared(k));
        for (at, lk) in l_rest.by_ref().enumerate() {
            match (at % 4, r_rest.next()) {
                (0, Some(rk)) => { pairing.matched.insert(lk.clone(), rk.clone()); }
                // Every other unmatched right key passes through; the
                // rest are claimed by neither list and must be dropped.
                (1, Some(rk)) => { pairing.right_only.insert(rk.clone()); }
                _ => {}
            }
            pairing.left_only.insert(lk.clone());
        }
        prop_assert!(pairing.matched.iter().any(|(l, r)| l != r));

        let pool = Arc::new(BufferPool::new(3 * PAGE));
        let stored = (BoundRelation::Stored(store(&ga, &pool)), BoundRelation::Stored(store(&gb, &pool)));
        let memory = (BoundRelation::Memory(Arc::new(ga)), BoundRelation::Memory(Arc::new(gb)));
        let merger = || Box::new(DempsterMerger::new(options())) as Box<dyn TupleMerger>;
        let run = |(l, r): &(BoundRelation, BoundRelation)| {
            let mut ctx = ExecContext::with_options(options());
            ctx.parallelism = threads;
            let out = execute_merge(l, r, pairing.clone(), &merger, &mut ctx).expect("merges");
            (out, ctx)
        };
        let (mem, mem_ctx) = run(&memory);
        prop_assert!(mem_ctx.stats.pairs_merged > 0 && !mem_ctx.conflict_report().is_empty());
        for builds in [1, 0] {
            let (out, ctx) = run(&stored);
            if let Err(reason) = identical(&mem, &out) {
                prop_assert!(false, "{reason} (builds={builds}, threads={threads})");
            }
            prop_assert_eq!(
                mem_ctx.conflict_report().conflicts(),
                ctx.conflict_report().conflicts()
            );
            prop_assert_eq!(ctx.stats.key_index_builds, builds);
            prop_assert_eq!(mem_ctx.stats, masked(ctx.stats));
        }
    }

    /// Forcing the build side of a ∪̃, ∩̃, −̃, ×̃ or ⋈̃ to spill
    /// (threshold 0) is invisible: relation, insertion order, stats,
    /// and report order all match the in-memory build side.
    #[test]
    fn spilled_build_side_is_bit_invisible(
        seed in 0u64..1_000_000,
        shape in 0usize..5,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (ga, gb) = pair(seed, 160);
        let mut b = Bindings::new();
        b.bind("sa", ga).bind("sb", gb);
        let plan = shaped_plan([4, 6, 7, 8, 9][shape], seed as u8);

        let mut mem_ctx = ExecContext::with_options(options());
        mem_ctx.parallelism = threads;
        mem_ctx.spill_threshold_bytes = usize::MAX; // never spill
        let mem = execute_plan(&plan, &b, &mut mem_ctx).expect("in-memory merge");

        let mut spill_ctx = ExecContext::with_options(options());
        spill_ctx.parallelism = threads;
        spill_ctx.spill_threshold_bytes = 0; // always spill
        spill_ctx.pool = Arc::new(BufferPool::new(2 * evirel_store::DEFAULT_PAGE_SIZE));
        let spilled = execute_plan(&plan, &b, &mut spill_ctx).expect("spilled merge");
        // A −̃ only probes: its spilled side's key index answers, and no
        // record is read back.
        prop_assert_eq!(
            spill_ctx.pool.stats().misses > 0,
            shape != 2,
            "a spilled build side that is read must page through the pool\nplan:\n{}",
            plan.render()
        );

        if let Err(reason) = equivalent(&mem, &spilled) {
            prop_assert!(false, "{reason} (threads={threads})");
        }
        for (m, s) in mem.iter().zip(spilled.iter()) {
            prop_assert_eq!(m.key(mem.schema()), s.key(spilled.schema()));
        }
        prop_assert_eq!(mem_ctx.stats, spill_ctx.stats);
        prop_assert_eq!(
            mem_ctx.conflict_report().conflicts(),
            spill_ctx.conflict_report().conflicts()
        );
    }
}

/// The stored-scan merge takes its build side straight off the
/// on-disk segment (one keys-only pass, once per relation, no
/// re-spill), a query over stored relations still surfaces its ∪̃
/// conflict report, and `EXPLAIN ANALYZE` says whether the index was
/// built or found.
#[test]
fn stored_merge_indexes_segment_directly() {
    let (ga, gb) = pair(7, 300);
    let pool = Arc::new(BufferPool::new(4 * PAGE));
    let sa = store(&ga, &pool);
    let sb = store(&gb, &pool);
    let mut bindings = Bindings::new();
    bindings.bind_stored("sa", sa);
    bindings.bind_stored("sb", Arc::clone(&sb));

    let plan = scan("sa").union(scan("sb")).build();
    let mut ctx = ExecContext::with_options(options());
    ctx.parallelism = 1;
    let misses_before = pool.stats().misses;
    let out = execute_plan(&plan, &bindings, &mut ctx).unwrap();

    let mut mem_bindings = Bindings::new();
    mem_bindings.bind("sa", ga);
    mem_bindings.bind("sb", gb);
    let mut mem_ctx = ExecContext::with_options(options());
    let mem = execute_plan(&plan, &mem_bindings, &mut mem_ctx).unwrap();

    assert!(mem.approx_eq(&out));
    assert_eq!(ctx.stats.key_index_builds, 1);
    assert_eq!(mem_ctx.stats, masked(ctx.stats));
    assert!(
        !ctx.conflict_report().is_empty(),
        "κ reports must survive storage"
    );
    assert!(pool.stats().misses > misses_before);
    // EXPLAIN renders the stored scan with its page geometry, and says
    // nothing about an index it has not asked for.
    let explain = |bindings: &Bindings, analyze: bool| {
        let mut ctx = ExecContext::with_options(options());
        explain_plan(&plan, bindings, &mut ctx, analyze).unwrap()
    };
    let text = explain(&bindings, false);
    assert!(text.contains("[stored:"), "{text}");
    assert!(!text.contains("build: stored index"), "{text}");
    // ANALYZE ran the ∪̃: the index the first query built is found.
    let text = explain(&bindings, true);
    assert!(
        text.contains("merge: dempster, on κ=1: vacuous; build: stored index (cached)) [est≈"),
        "{text}"
    );
    // A rebind is a new `StoredRelation`: its first query builds.
    let path = evirel_store::spill_path("equiv-rebind");
    evirel_store::write_segment(&sb.to_relation().unwrap(), &path, PAGE).unwrap();
    let reopened = StoredRelation::open(&path, Arc::clone(&pool)).unwrap();
    std::fs::remove_file(&path).ok();
    bindings.bind_stored("sb", Arc::new(reopened));
    let text = explain(&bindings, true);
    assert!(
        text.contains("build: stored index (built)) [est≈"),
        "{text}"
    );
}

/// A segment that stores one key twice (hand-built: no writer of a
/// relation produces one) fails ∪̃, ∩̃ and −̃ over it with the typed
/// corruption error of the index build — where the parent's index
/// silently pointed both ordinals at the last record — and as a left
/// side fails on the duplicate insert, as `to_relation` does.
#[test]
fn duplicate_stored_key_is_a_typed_error_from_every_setop() {
    let (ga, gb) = pair(5, 40);
    let pool = Arc::new(BufferPool::new(4 * PAGE));
    let path = evirel_store::spill_path("equiv-dup");
    let mut writer = evirel_store::SegmentWriter::create(&path, gb.schema(), PAGE).unwrap();
    let first = gb.iter().next().unwrap();
    for tuple in gb.iter().chain([first]) {
        writer.append(tuple).unwrap();
    }
    writer.finish().unwrap();
    let dup = Arc::new(StoredRelation::open(&path, Arc::clone(&pool)).unwrap());
    std::fs::remove_file(&path).ok();
    assert!(dup.to_relation().is_err());

    let mut bindings = Bindings::new();
    bindings.bind_stored("sa", store(&ga, &pool));
    bindings.bind_stored("sb", dup);
    for plan in [
        scan("sa").union(scan("sb")).build(),
        scan("sa").intersect(scan("sb")).build(),
        scan("sa").difference(scan("sb")).build(),
    ] {
        for threads in [1, 4] {
            let mut ctx = ExecContext::with_options(options());
            ctx.parallelism = threads;
            let err = execute_plan(&plan, &bindings, &mut ctx).expect_err("never a result");
            let text = err.to_string();
            assert!(
                matches!(
                    err,
                    evirel_plan::PlanError::Store(evirel_store::StoreError::Corrupt { .. })
                ) && text.contains("duplicate key (")
                    && text.contains("page 0 slot 0 and page "),
                "{text}\nplan:\n{}",
                plan.render()
            );
            assert_eq!(
                ctx.stats.key_index_builds, 0,
                "a failed build is not a build"
            );
        }
    }
}

/// A predicate that cannot be evaluated — an attribute the schema does
/// not have, a value outside the attribute's domain — fails a stored
/// query with the text it fails an in-memory one with.
#[test]
fn fused_selection_fails_with_the_in_memory_error_text() {
    let (ga, _) = pair(11, 40);
    let pool = Arc::new(BufferPool::new(4 * PAGE));
    let mut stored_bindings = Bindings::new();
    stored_bindings.bind_stored("sa", store(&ga, &pool));
    let mut mem_bindings = Bindings::new();
    mem_bindings.bind("sa", ga);
    for predicate in [
        Predicate::is("e9", [Value::str("v1")]),
        Predicate::is("e1", [Value::str("not-a-label")]),
        Predicate::theta(
            Operand::attr("e0"),
            ThetaOp::Ge,
            Operand::Value(Value::int(3)),
        ),
        Predicate::is("e1", [Value::str("v1")])
            .negate()
            .or(Predicate::theta(
                Operand::attr("e2"),
                ThetaOp::Eq,
                Operand::attr("nope"),
            )),
    ] {
        let plan = scan("sa").select(predicate).build();
        let fails = |bindings: &Bindings| {
            execute_plan(&plan, bindings, &mut ExecContext::with_options(options()))
                .expect_err("the predicate cannot be evaluated")
                .to_string()
        };
        assert_eq!(
            fails(&mem_bindings),
            fails(&stored_bindings),
            "{}",
            plan.render()
        );
    }
}

// ------------------------------------------------- σ̃ inside the merge

/// The generated pair plus hand-made tuples the generator never draws
/// (its evidence always keeps mass on Ω, and its memberships are
/// positive), appended in this order to both sides unless noted:
/// a total conflict on `e0` alone, on `e2` alone, on every attribute;
/// a total conflict on the membership pair — `(1, 1)` against
/// `(0, 0)`; a weak pair no threshold admits; and one zero-support
/// tuple on each side alone, which a ∪̃ drops before any σ̃ sees it.
fn hazardous_pair(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    let (mut ga, mut gb) = pair(seed, tuples);
    let frame = {
        let domain = ga.schema().attr(1).ty().domain().expect("e0 is evidential");
        Arc::clone(domain.frame())
    };
    let certain = |label: &str| {
        AttrValue::Evidential(MassFunction::certain(Arc::clone(&frame), label).unwrap())
    };
    let vacuous = || AttrValue::Evidential(MassFunction::vacuous(Arc::clone(&frame)).unwrap());
    let add = |rel: &mut ExtendedRelation, key: &str, e: [AttrValue; 3], sn: f64, sp: f64| {
        let mut values = vec![AttrValue::Definite(Value::str(key))];
        values.extend(e);
        let tuple = Tuple::new(rel.schema(), values, SupportPair::new(sn, sp).unwrap()).unwrap();
        rel.insert_with_policy(tuple, CwaPolicy::AllowZero).unwrap();
    };
    let agree = || [certain("v1"), certain("v2"), vacuous()];
    add(
        &mut ga,
        "hz-e0",
        [certain("v0"), certain("v2"), vacuous()],
        1.0,
        1.0,
    );
    add(
        &mut gb,
        "hz-e0",
        [certain("v1"), certain("v2"), vacuous()],
        1.0,
        1.0,
    );
    add(
        &mut ga,
        "hz-e2",
        [certain("v0"), vacuous(), certain("v4")],
        1.0,
        1.0,
    );
    add(
        &mut gb,
        "hz-e2",
        [certain("v0"), vacuous(), certain("v5")],
        0.9,
        1.0,
    );
    add(
        &mut ga,
        "hz-all",
        [certain("v1"), certain("v2"), certain("v3")],
        1.0,
        1.0,
    );
    add(
        &mut gb,
        "hz-all",
        [certain("v2"), certain("v3"), certain("v1")],
        1.0,
        1.0,
    );
    add(&mut ga, "hz-member", agree(), 1.0, 1.0);
    add(&mut gb, "hz-member", agree(), 0.0, 0.0);
    add(&mut ga, "hz-weak", agree(), 0.05, 0.4);
    add(&mut gb, "hz-weak", agree(), 0.05, 0.3);
    add(&mut ga, "hz-zero-l", agree(), 0.0, 0.5);
    add(&mut gb, "hz-zero-r", agree(), 0.0, 1.0);
    (ga, gb)
}

/// How the two sides of the merge are bound.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sides {
    Memory,
    StoredLeft,
    StoredRight,
    StoredBoth,
    /// In memory, the build side forced to a temp segment.
    Spilled,
}

impl Sides {
    fn stored_left(self) -> bool {
        matches!(self, Sides::StoredLeft | Sides::StoredBoth)
    }

    fn stored_right(self) -> bool {
        matches!(self, Sides::StoredRight | Sides::StoredBoth)
    }
}

const SIDES: [Sides; 5] = [
    Sides::Memory,
    Sides::StoredLeft,
    Sides::StoredRight,
    Sides::StoredBoth,
    Sides::Spilled,
];

fn bind_sides(
    sides: Sides,
    ga: &ExtendedRelation,
    gb: &ExtendedRelation,
    pool: &Arc<BufferPool>,
) -> Bindings {
    let mut b = Bindings::new();
    match sides.stored_left() {
        true => b.bind_stored("sa", store(ga, pool)),
        false => b.bind("sa", ga.clone()),
    };
    match sides.stored_right() {
        true => b.bind_stored("sb", store(gb, pool)),
        false => b.bind("sb", gb.clone()),
    };
    b
}

/// [`predicate_of`]'s kinds, then the ones only a merge makes
/// interesting: `is` on a definite attribute — the key, whose value a
/// matched pair takes from the left — alone and under ∨, and two
/// predicates that cannot be evaluated.
fn merge_predicate_of(kind: u8, attr: u8, val: u8) -> Predicate {
    let shared = |i: u8| Value::str(format!("shared-{}", i % 16));
    let on_key = Predicate::is("k", [shared(val), shared(val + 1), Value::str("hz-e2")]);
    match kind % 10 {
        6 => on_key,
        7 => on_key.or(predicate_of(0, attr, val)),
        8 => Predicate::is("e9", [Value::str("v1")]),
        9 => predicate_of(0, attr, val).and(Predicate::is("e1", [Value::str("not-a-label")])),
        kind => predicate_of(kind, attr, val),
    }
}

fn merge_plan(emit: MergeEmit, predicate: Predicate, threshold: Threshold) -> LogicalPlan {
    let merged = match emit {
        MergeEmit::Union => scan("sa").union(scan("sb")),
        MergeEmit::Intersect => scan("sa").intersect(scan("sb")),
    };
    merged.select_where(predicate, threshold).build()
}

/// `SelectOp` over `MergeOp` over in-memory scans, built by hand — what
/// the planner lowered a σ̃ over a ∪̃/∩̃ to before the selection moved
/// inside the merge.
fn unfused(
    emit: MergeEmit,
    ga: &ExtendedRelation,
    gb: &ExtendedRelation,
    options: &UnionOptions,
    predicate: &Predicate,
    threshold: Threshold,
) -> Box<dyn Operator> {
    let left = Box::new(ScanOp::new("sa", Arc::new(ga.clone())));
    let right = Box::new(ScanOp::new("sb", Arc::new(gb.clone())));
    let merger = Box::new(DempsterMerger::new(options.clone()));
    let merge = match emit {
        MergeEmit::Union => MergeOp::union(left, right, merger),
        MergeEmit::Intersect => MergeOp::intersect(left, right, merger),
    };
    let merge = Box::new(merge.expect("union-compatible"));
    Box::new(SelectOp::new(merge, predicate.clone(), threshold).expect("positive threshold"))
}

/// Drive `op` by hand: the tuples it emits — all of them, or the ones
/// before it fails — the failure's text, and the report of a run that
/// finished.
fn drive(
    op: &mut dyn Operator,
    ctx: &mut ExecContext,
) -> (Vec<Arc<Tuple>>, Option<String>, ConflictReport) {
    let mut emitted = Vec::new();
    let failure = (|| {
        op.open(ctx)?;
        while let Some(tuple) = op.next(ctx)? {
            emitted.push(tuple);
        }
        op.close(ctx)
    })()
    .err()
    .map(|e| e.to_string());
    (emitted, failure, ctx.conflict_report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// THE property of the third fusion: σ̃ over ∪̃/∩̃, evaluated inside
    /// the merge, is `SelectOp` over `MergeOp` bit for bit — tuples,
    /// `(sn, sp)`, order, the conflict report observation by
    /// observation, the counters (but for what only a stored run
    /// counts) or the error — for every side combination, predicate
    /// kind, threshold kind, non-error policy, combination rule and
    /// focal cap, at 1 and 4 threads, on data with total conflicts on
    /// read and unread attributes and on the membership pair; and it
    /// agrees with the reference, report included.
    #[test]
    fn fused_merge_is_select_over_merge_bit_for_bit(
        seed in 0u64..1_000_000,
        shape in 0u16..40,      // emit × sides × tuple count × threads
        pred_kind in 0u8..10,
        attr_val in 0u8..48,    // attribute index × predicate value
        th in 0u8..4,
        how in 0u8..24,         // policy × rule × focal cap
    ) {
        let emit = [MergeEmit::Union, MergeEmit::Intersect][usize::from(shape % 2)];
        let sides = SIDES[usize::from(shape / 2 % 5)];
        let threads = [1usize, 4][usize::from(shape / 10 % 2)];
        // Empty inputs too: nothing is evaluated, so nothing fails.
        let (ga, gb) = match shape / 20 {
            0 => hazardous_pair(seed, 90),
            _ => pair(seed, 0),
        };
        let options = UnionOptions {
            on_total_conflict: [
                ConflictPolicy::Vacuous,
                ConflictPolicy::KeepLeft,
                ConflictPolicy::KeepRight,
            ][usize::from(how % 3)],
            rule: CombinationRule::ALL[usize::from(how / 3 % 4)],
            max_focal: [None, Some(2)][usize::from(how / 12)],
        };
        let predicate = merge_predicate_of(pred_kind, attr_val / 16, attr_val % 16);
        // A key-only predicate under the default threshold is not a σ̃
        // over the ∪̃ at all: the rewrite pass distributes it below
        // (and the report then covers the surviving entities only).
        let threshold = threshold_of(if pred_kind == 6 { th | 1 } else { th });
        let plan = merge_plan(emit, predicate.clone(), threshold);

        let mut oracle_ctx = ExecContext::with_options(options.clone());
        let mut oracle = unfused(emit, &ga, &gb, &options, &predicate, threshold);
        let (expected, failure, report) = drive(oracle.as_mut(), &mut oracle_ctx);
        prop_assert_eq!(failure.is_some(), pred_kind >= 8 && !ga.is_empty());

        let pool = Arc::new(BufferPool::new(3 * PAGE));
        let bindings = bind_sides(sides, &ga, &gb, &pool);
        let mut ctx = ExecContext::with_options(options.clone());
        ctx.parallelism = threads;
        if sides == Sides::Spilled {
            ctx.spill_threshold_bytes = 0;
        }
        let fused = execute_plan(&plan, &bindings, &mut ctx);
        let mut mem_bindings = Bindings::new();
        mem_bindings.bind("sa", ga).bind("sb", gb);
        let reference = execute_reference(&plan, &mem_bindings, &options);
        let context = format!("{sides:?}, {threads} threads, {options:?}\nplan:\n{}", plan.render());
        match (&failure, fused, reference) {
            (None, Ok(fused), Ok((reference, reference_report))) => {
                if let Err(reason) = same_tuples(expected.iter().map(|t| &**t), fused.iter()) {
                    prop_assert!(false, "{reason}\n{context}");
                }
                if let Err(reason) = equivalent(&reference, &fused) {
                    prop_assert!(false, "vs reference: {reason}\n{context}");
                }
                let observed = ctx.conflict_report();
                prop_assert_eq!(report.conflicts(), observed.conflicts(), "{}", &context);
                prop_assert_eq!(reference_report.conflicts(), observed.conflicts(), "{}", &context);
                // `run` counts the root's tuples; the hand-driven oracle has none.
                let stats = ExecStats { tuples_emitted: 0, ..masked(ctx.stats) };
                prop_assert_eq!(oracle_ctx.stats, stats, "{}", &context);
            }
            (Some(expected), Err(fused), Err(reference)) => {
                prop_assert_eq!(expected, &fused.to_string(), "{}", &context);
                prop_assert_eq!(expected, &reference.to_string(), "{}", &context);
            }
            (failure, fused, reference) => prop_assert!(
                false,
                "unfused {:?}, fused {:?}, reference {:?}\n{context}",
                failure,
                fused.map(|r| r.len()),
                reference.map(|(r, _)| r.len()),
            ),
        }

        let text = explain_plan(&plan, &bindings, &mut ExecContext::new(), false).expect("explains");
        let symbol = if emit == MergeEmit::Union { "∪̃" } else { "∩̃" };
        let fused_line = format!("] with {threshold} ⟵ {symbol} (index right, stream left;");
        prop_assert!(text.contains(&fused_line), "{text}");
    }
}

/// A hand-made pair over `(k key, n definite, e0, e1)` whose matched
/// pairs are, in order: `a` agreeing; `b` unequal on the *definite*
/// `n`; `c` totally conflicting on `e0` (and partially on `e1`); `d`
/// totally conflicting on `e1`; `m` on the membership pair. Each side
/// also has one tuple of its own and one zero-support tuple of its own.
/// `skip` drops that many of `b`, `c`, `d`, `m` from the front, so that
/// under [`ConflictPolicy::Error`] each in turn is the first to abort.
fn definite_pair(skip: usize) -> (ExtendedRelation, ExtendedRelation) {
    let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
    let schema = |name: &str| {
        Arc::new(
            Schema::builder(name)
                .key_str("k")
                .definite("n", ValueKind::Int)
                .evidential("e0", Arc::clone(&domain))
                .evidential("e1", Arc::clone(&domain))
                .build()
                .unwrap(),
        )
    };
    let certain = |label: &str| {
        AttrValue::Evidential(MassFunction::certain(Arc::clone(domain.frame()), label).unwrap())
    };
    let leaning = |label: &str, mass: f64| {
        let m = MassFunction::<f64>::builder(Arc::clone(domain.frame()))
            .add([label], mass)
            .unwrap()
            .add_omega(1.0 - mass)
            .build()
            .unwrap();
        AttrValue::Evidential(m)
    };
    let (mut l, mut r) = (
        ExtendedRelation::new(schema("L")),
        ExtendedRelation::new(schema("R")),
    );
    let add = |rel: &mut ExtendedRelation,
               k: &str,
               n: i64,
               e0: AttrValue,
               e1: AttrValue,
               m: (f64, f64)| {
        let values = vec![
            AttrValue::Definite(Value::str(k)),
            AttrValue::Definite(Value::int(n)),
            e0,
            e1,
        ];
        let tuple = Tuple::new(rel.schema(), values, SupportPair::new(m.0, m.1).unwrap());
        rel.insert_with_policy(tuple.unwrap(), CwaPolicy::AllowZero)
            .unwrap();
    };
    add(&mut l, "l-zero", 7, certain("x"), certain("y"), (0.0, 0.5));
    add(&mut r, "r-zero", 7, certain("x"), certain("y"), (0.0, 1.0));
    add(&mut l, "a", 1, certain("x"), leaning("y", 0.7), (1.0, 1.0));
    add(&mut r, "a", 1, leaning("x", 0.6), certain("y"), (0.9, 1.0));
    if skip < 1 {
        add(&mut l, "b", 1, certain("x"), certain("y"), (1.0, 1.0));
        add(&mut r, "b", 2, certain("x"), certain("y"), (1.0, 1.0));
    }
    if skip < 2 {
        add(&mut l, "c", 3, certain("x"), leaning("y", 0.6), (1.0, 1.0));
        add(&mut r, "c", 3, certain("y"), leaning("z", 0.5), (1.0, 1.0));
    }
    if skip < 3 {
        add(&mut l, "d", 4, leaning("x", 0.9), certain("x"), (1.0, 1.0));
        add(&mut r, "d", 4, certain("x"), certain("z"), (1.0, 1.0));
    }
    if skip < 4 {
        add(&mut l, "m", 1, certain("x"), certain("y"), (1.0, 1.0));
        add(&mut r, "m", 1, certain("x"), certain("y"), (0.0, 0.0));
    }
    add(&mut l, "l-only", 4, certain("x"), certain("y"), (0.8, 1.0));
    add(
        &mut r,
        "r-only",
        1,
        leaning("x", 0.9),
        certain("y"),
        (1.0, 1.0),
    );
    (l, r)
}

/// One scan leaf: in memory, or a bare stored scan.
fn leaf(
    name: &str,
    rel: &ExtendedRelation,
    stored: bool,
    pool: &Arc<BufferPool>,
) -> Box<dyn Operator> {
    if stored {
        Box::new(SpillScanOp::new(name, store(rel, pool)))
    } else {
        Box::new(ScanOp::new(name, Arc::new(rel.clone())))
    }
}

/// One case of [`fused_merge_stops_where_select_over_merge_stops`]:
/// returns the text the unfused run failed with, if it failed.
fn stops_alike(
    skip: usize,
    predicate: &Predicate,
    policy: ConflictPolicy,
    emit: MergeEmit,
    pool: &Arc<BufferPool>,
) -> Option<String> {
    let (l, r) = definite_pair(skip);
    let options = UnionOptions {
        on_total_conflict: policy,
        ..Default::default()
    };
    let threshold = Threshold::SnAtLeast(0.3);
    let mut oracle = unfused(emit, &l, &r, &options, predicate, threshold);
    let mut oracle_ctx = ExecContext::with_options(options.clone());
    let (expected, failure, report) = drive(oracle.as_mut(), &mut oracle_ctx);
    assert_eq!(
        failure.is_some(),
        policy == ConflictPolicy::Error && skip < 4
    );
    for sides in &SIDES[..4] {
        let context = format!("skip {skip}, σ̃[{predicate}], {policy}, {emit:?}, {sides:?}");
        let mut fused = MergeOp::selecting(
            emit,
            leaf("sa", &l, sides.stored_left(), pool),
            leaf("sb", &r, sides.stored_right(), pool),
            options.clone(),
            predicate.clone(),
            threshold,
        )
        .expect("union-compatible, positive threshold");
        let mut ctx = ExecContext::with_options(options.clone());
        let (got, fused_failure, fused_report) = drive(&mut fused, &mut ctx);
        same_tuples(expected.iter().map(|t| &**t), got.iter().map(|t| &**t))
            .unwrap_or_else(|reason| panic!("{reason}: {context}"));
        assert_eq!(failure, fused_failure, "{context}");
        assert_eq!(report.conflicts(), fused_report.conflicts(), "{context}");
        assert_eq!(oracle_ctx.stats, masked(ctx.stats), "{context}");

        let bindings = bind_sides(*sides, &l, &r, pool);
        let plan = merge_plan(emit, predicate.clone(), threshold);
        let mut ctx = ExecContext::with_options(options.clone());
        let planned = execute_plan(&plan, &bindings, &mut ctx).map(|rel| rel.len());
        let whole = failure.clone().map_or(Ok(expected.len()), Err);
        assert_eq!(whole, planned.map_err(|e| e.to_string()), "{context}");
    }
    failure
}

/// The fused merge against `SelectOp` over `MergeOp`, operator against
/// operator, where a run may stop half way: under every policy —
/// `Error` included, each kind of total conflict in turn the first to
/// abort, on an attribute the predicate reads and on one it does not —
/// the tuples emitted before the failure are identical, the failure
/// has the same text, and a run that finishes leaves the same report.
/// The planner's own lowering of the plan fails with that text too.
#[test]
fn fused_merge_stops_where_select_over_merge_stops() {
    let pool = Arc::new(BufferPool::new(4 * PAGE));
    let predicates = [
        Predicate::is("e0", ["x"]),
        Predicate::is("e1", ["y"]),
        Predicate::is("n", [Value::int(1), Value::int(4)]),
        Predicate::is("e0", ["x"]).and(Predicate::theta(
            Operand::attr("n"),
            ThetaOp::Lt,
            Operand::Value(Value::int(4)),
        )),
    ];
    let policies = [
        ConflictPolicy::Error,
        ConflictPolicy::Vacuous,
        ConflictPolicy::KeepLeft,
        ConflictPolicy::KeepRight,
    ];
    let mut aborted = std::collections::BTreeSet::new();
    for skip in 0..5 {
        for predicate in &predicates {
            for policy in policies {
                for emit in [MergeEmit::Union, MergeEmit::Intersect] {
                    aborted.extend(stops_alike(skip, predicate, policy, emit, &pool));
                }
            }
        }
    }
    // Each kind of total conflict aborted some run: the definite
    // attribute, both evidential ones, and the membership pair.
    assert_eq!(aborted.len(), 4, "{aborted:?}");

    // A predicate that cannot be evaluated is not evaluated on a tuple
    // the merge drops first: two sides holding zero-support tuples
    // only yield an empty result, not the predicate's error.
    let (l, r) = definite_pair(5);
    let only_zero = |rel: &ExtendedRelation| {
        let mut out = ExtendedRelation::new(Arc::clone(rel.schema()));
        let zero = rel
            .iter()
            .next()
            .expect("the zero-support tuple comes first");
        out.insert_with_policy(zero.clone(), CwaPolicy::AllowZero)
            .unwrap();
        out
    };
    let (l, r) = (only_zero(&l), only_zero(&r));
    for (stored_left, stored_right) in [(false, false), (true, true)] {
        let mut fused = MergeOp::selecting(
            MergeEmit::Union,
            leaf("sa", &l, stored_left, &pool),
            leaf("sb", &r, stored_right, &pool),
            options(),
            Predicate::is("nope", ["x"]),
            Threshold::POSITIVE,
        )
        .unwrap();
        let (got, failure, _) = drive(&mut fused, &mut ExecContext::with_options(options()));
        assert!(got.is_empty() && failure.is_none(), "{failure:?}");
    }
}

/// Make every checksum of a v3 segment agree with its (tampered)
/// bytes again — page CRCs, then the table's, then the preamble's — as
/// a writer that encoded rot would have sealed it. Layout per
/// `evirel_store::segment`'s module docs.
fn reseal(bytes: &mut [u8]) {
    use evirel_store::crc::crc32;
    let u64_at =
        |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (table, pages) = (u64_at(bytes, 16) as usize, u64_at(bytes, 24) as usize);
    for entry in (0..pages).map(|page| table + 16 * page) {
        let offset = u64_at(bytes, entry) as usize;
        let len = u32::from_le_bytes(bytes[entry + 8..entry + 12].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 12..entry + 16].copy_from_slice(&crc.to_le_bytes());
    }
    let table_crc = crc32(&bytes[table..table + 16 * pages]);
    bytes[44..48].copy_from_slice(&table_crc.to_le_bytes());
    let preamble_crc = crc32(&bytes[..48]);
    bytes[48..52].copy_from_slice(&preamble_crc.to_le_bytes());
}

/// The PR 16 integrity case, reached through the merge: a record the
/// fused selection rejects unmatched is never decoded in full, yet a
/// rotted tag or length in an attribute it *skips* is still a typed
/// corruption error — on either side of the merge. The rot is sealed
/// under valid checksums, so nothing but the masked decode stands
/// between it and an answer.
#[test]
fn fused_merge_refuses_rot_in_an_attribute_it_skips() {
    let (ga, gb) = pair(3, 60);
    // Reads `e2`, skips `e0`; admits nothing, the generator keeps mass on Ω.
    let predicate = Predicate::is("e2", [Value::str("v0")]);
    let plan = merge_plan(MergeEmit::Union, predicate, Threshold::SnAtLeast(0.99));
    let run = |sa: &[u8], sb: &[u8]| {
        let mut bindings = Bindings::new();
        for (name, bytes) in [("sa", sa), ("sb", sb)] {
            let path = evirel_store::spill_path("equiv-rot");
            std::fs::write(&path, bytes).unwrap();
            let stored = StoredRelation::open(&path, Arc::new(BufferPool::new(4 * PAGE)));
            std::fs::remove_file(&path).ok();
            // The stats section is intact, so the open reads no page.
            bindings.bind_stored(name, Arc::new(stored.expect("sealed segments open")));
        }
        let mut ctx = ExecContext::with_options(options());
        let out = execute_plan(&plan, &bindings, &mut ctx);
        (out.map(|rel| rel.len()), ctx.stats)
    };
    let encoded = |rel: &ExtendedRelation| {
        let path = evirel_store::spill_path("equiv-rot-src");
        evirel_store::write_segment(rel, &path, PAGE).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    let (sa, sb) = (encoded(&ga), encoded(&gb));
    let (answer, stats) = run(&sa, &sb);
    assert_eq!(answer, Ok(0));
    assert_eq!(stats.tuples_scanned, 120);
    // 30 + 30 unmatched records, rejected without a full decode.
    assert_eq!(stats.records_skipped, 60);

    // `e0` follows the key: attribute tag, weight tag, u32 focal count.
    for (rot, at, value) in [("tag", 0, 7u8), ("length", 5, 0x7F)] {
        for (side, key) in [("sa", "left-45"), ("sb", "right-45")] {
            let mut bytes = if side == "sa" { sa.clone() } else { sb.clone() };
            let key_at = bytes.windows(key.len()).position(|w| w == key.as_bytes());
            bytes[key_at.expect("an unmatched record") + key.len() + at] = value;
            reseal(&mut bytes);
            let (answer, _) = match side {
                "sa" => run(&bytes, &sb),
                _ => run(&sa, &bytes),
            };
            assert!(
                matches!(
                    answer,
                    Err(evirel_plan::PlanError::Store(
                        evirel_store::StoreError::Corrupt { .. }
                    ))
                ),
                "rotted {rot} of e0 in {key}: {answer:?}"
            );
        }
    }
}
