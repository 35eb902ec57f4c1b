//! The storage engine's acceptance property: a relation larger than
//! the configured buffer budget (verified via pool stats — pages
//! evicted > 0) scans, filters, and ∪̃-merges through the plan layer
//! with results identical to the in-memory executor, proptest-checked
//! against `plan::reference`. Also pins the spilled-build-side path:
//! forcing every merge's right side to a temp segment
//! (`spill_threshold_bytes = 0`) must not change a single bit of the
//! output, the stats, or the conflict-report order. And the fused
//! path: a σ̃ directly over a stored scan runs inside the scan, for
//! every predicate and threshold kind, with output bit-identical to
//! the in-memory run and to the reference. And the shared key index:
//! every stored shape runs twice over the same `StoredRelation`s — the
//! first run builds the right side's index, the second reuses it — and
//! the two runs are indistinguishable except for `key_index_builds`.

use evirel_algebra::union::UnionOptions;
use evirel_algebra::{ConflictPolicy, Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::ops::DempsterMerger;
use evirel_plan::reference::execute_reference;
use evirel_plan::{
    execute_merge, execute_plan, explain_plan, scan, Bindings, BoundRelation, BufferPool,
    ExecContext, ExecStats, LogicalPlan, MergePairing, StoredRelation, TupleMerger,
};
use evirel_relation::{ExtendedRelation, Value};
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
fn identical(expected: &ExtendedRelation, got: &ExtendedRelation) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("sizes differ: {} vs {}", expected.len(), got.len()));
    }
    for (at, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
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

/// The fields a stored run may differ from an in-memory one in.
fn masked(stats: ExecStats) -> ExecStats {
    ExecStats {
        records_skipped: 0,
        key_index_builds: 0,
        ..stats
    }
}

/// One plan shape per drawn discriminant: scan, filter, threshold,
/// project, ∪̃, σ̃(∪̃), ∩̃, −̃.
fn shaped_plan(shape: u8, val: u8) -> LogicalPlan {
    let label = |i: u8| Value::str(format!("v{}", i % 8));
    match shape % 8 {
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
        _ => scan("sa").difference(scan("sb")).build(),
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
    /// and finds it on the second, and nothing else tells them apart.
    #[test]
    fn stored_execution_matches_reference_under_tiny_budget(
        seed in 0u64..1_000_000,
        shape in 0u8..8,
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
        let indexed = usize::from(shape % 8 >= 4);
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

    /// Forcing the merge build side to spill (threshold 0) is
    /// invisible: relation, insertion order, stats, and report order
    /// all match the in-memory build side.
    #[test]
    fn spilled_build_side_is_bit_invisible(
        seed in 0u64..1_000_000,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (ga, gb) = pair(seed, 160);
        let mut b = Bindings::new();
        b.bind("sa", ga).bind("sb", gb);
        let plan = scan("sa").union(scan("sb")).build();

        let mut mem_ctx = ExecContext::with_options(options());
        mem_ctx.parallelism = threads;
        mem_ctx.spill_threshold_bytes = usize::MAX; // never spill
        let mem = execute_plan(&plan, &b, &mut mem_ctx).expect("in-memory merge");

        let mut spill_ctx = ExecContext::with_options(options());
        spill_ctx.parallelism = threads;
        spill_ctx.spill_threshold_bytes = 0; // always spill
        spill_ctx.pool = Arc::new(BufferPool::new(2 * evirel_store::DEFAULT_PAGE_SIZE));
        let spilled = execute_plan(&plan, &b, &mut spill_ctx).expect("spilled merge");
        prop_assert!(
            spill_ctx.pool.stats().misses > 0,
            "a spilled build side must page through the pool"
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
