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
use evirel_evidence::MassFunction;
use evirel_plan::ops::{run, DempsterMerger, MergeEmit, MergeOp, Operator, ScanOp, SelectOp};
use evirel_plan::reference::execute_reference;
use evirel_plan::spill::SpillScanOp;
use evirel_plan::{
    execute_merge, execute_plan, explain_plan, scan, Bindings, BoundRelation, BufferPool,
    ExecContext, ExecStats, LogicalPlan, MergePairing, StoredRelation, TupleMerger,
};
use evirel_relation::cwa::CwaPolicy;
use evirel_relation::{
    AttrDomain, AttrValue, ExtendedRelation, RelationBuilder, Schema, SupportPair, Tuple, Value,
};
use evirel_testkit::{
    config, definite_pair, encode, equivalent, exec_context, generated_pair, hazardous_pair,
    identical, masked, pair, reseal, same_report, same_tuples, store, vacuous, OrFail, Sides,
    TempDir, PAGE,
};
use proptest::prelude::*;
use std::sync::Arc;

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
            let mut ctx = exec_context(vacuous());
            ctx.parallelism = threads;
            let out = execute_plan(&plan, bindings, &mut ctx).expect("plan executes");
            (out, ctx.stats)
        };
        let (mem, mem_stats) = run(&mem_bindings);
        let (fused, fused_stats) = run(&stored_bindings);

        let context = format!("plan:\n{}", plan.render());
        identical(&mem, &fused).or_fail(&context);
        let (reference, _) = execute_reference(&plan, &mem_bindings, &vacuous())
            .expect("reference executes");
        equivalent(&reference, &fused).or_fail(&context);

        prop_assert_eq!(fused_stats.tuples_scanned, sa.len());
        prop_assert_eq!(fused_stats.records_skipped, sa.len() - fused.len());
        prop_assert_eq!(masked(fused_stats), mem_stats);
        prop_assert!(pool.stats().evictions > 0, "budget never forced an eviction");

        let text = explain_plan(&plan, &stored_bindings, &mut ExecContext::new(&config()), false)
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
        let mut bytes = encode(&pair(seed, 60).0, PAGE);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1u8 << bit;
        let dir = TempDir::new("flip");
        let path = dir.join("sa.evb");
        std::fs::write(&path, &bytes).expect("segment writes");

        let plan = scan("sa")
            .select_where(predicate_of(pred_kind, 1, 3), Threshold::SnGreater(0.5))
            .build();
        let outcome = StoredRelation::open(&path, Arc::new(BufferPool::new(3 * PAGE)))
            .map_err(|e| e.to_string())
            .and_then(|stored| {
                let mut bindings = Bindings::new();
                bindings.bind_stored("sa", Arc::new(stored));
                execute_plan(&plan, &bindings, &mut exec_context(vacuous()))
                    .map_err(|e| e.to_string())
            });
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
        stored_bindings.bind_stored("sa", Arc::clone(&sa)).bind_stored("sb", Arc::clone(&sb));
        let mut mem_bindings = Bindings::new();
        mem_bindings.bind("sa", ga).bind("sb", gb);

        let plan = shaped_plan(shape, val);
        let context = format!("plan:\n{}", plan.render());
        let (reference, _) = execute_reference(&plan, &mem_bindings, &vacuous())
            .expect("reference executes");
        let mut mem_ctx = exec_context(vacuous());
        mem_ctx.parallelism = threads;
        let mem = execute_plan(&plan, &mem_bindings, &mut mem_ctx).expect("in-memory executes");

        // Shapes 4–7 put a bare stored scan on a merge's or a
        // difference's right.
        let indexed = usize::from((4..8).contains(&shape));
        for builds in [indexed, 0] {
            let mut ctx = exec_context(vacuous());
            ctx.parallelism = threads;
            let streamed = execute_plan(&plan, &stored_bindings, &mut ctx)
                .expect("stored execution succeeds");
            equivalent(&reference, &streamed).or_fail(&context);
            identical(&mem, &streamed).or_fail(&context);
            same_report(&mem_ctx.conflict_report(), &ctx.conflict_report()).or_fail(&context);
            prop_assert_eq!(ctx.stats.key_index_builds, builds, "{}", context);
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
        let merger = || Box::new(DempsterMerger::new(vacuous())) as Box<dyn TupleMerger>;
        let run = |(l, r): &(BoundRelation, BoundRelation)| {
            let mut ctx = exec_context(vacuous());
            ctx.parallelism = threads;
            let out = execute_merge(l, r, pairing.clone(), &merger, &mut ctx).expect("merges");
            (out, ctx)
        };
        let (mem, mem_ctx) = run(&memory);
        prop_assert!(mem_ctx.stats.pairs_merged > 0 && !mem_ctx.conflict_report().is_empty());
        for builds in [1, 0] {
            let (out, ctx) = run(&stored);
            let context = format!("builds={builds}, threads={threads}");
            identical(&mem, &out).or_fail(&context);
            same_report(&mem_ctx.conflict_report(), &ctx.conflict_report()).or_fail(&context);
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

        let mut mem_ctx = exec_context(vacuous());
        mem_ctx.parallelism = threads;
        mem_ctx.spill_threshold_bytes = usize::MAX; // never spill
        let mem = execute_plan(&plan, &b, &mut mem_ctx).expect("in-memory merge");

        let mut spill_ctx = exec_context(vacuous());
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

        let context = format!("threads={threads}\nplan:\n{}", plan.render());
        equivalent(&mem, &spilled).or_fail(&context);
        for (m, s) in mem.iter().zip(spilled.iter()) {
            prop_assert_eq!(m.key(mem.schema()), s.key(spilled.schema()));
        }
        prop_assert_eq!(mem_ctx.stats, spill_ctx.stats);
        same_report(&mem_ctx.conflict_report(), &spill_ctx.conflict_report()).or_fail(&context);
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
    bindings
        .bind_stored("sa", sa)
        .bind_stored("sb", Arc::clone(&sb));

    let plan = scan("sa").union(scan("sb")).build();
    let mut ctx = exec_context(vacuous());
    ctx.parallelism = 1;
    let misses_before = pool.stats().misses;
    let out = execute_plan(&plan, &bindings, &mut ctx).unwrap();

    let mut mem_bindings = Bindings::new();
    mem_bindings.bind("sa", ga).bind("sb", gb);
    let mut mem_ctx = exec_context(vacuous());
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
        let mut ctx = exec_context(vacuous());
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
    bindings.bind_stored("sb", store(&sb.to_relation().unwrap(), &pool));
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
            let mut ctx = exec_context(vacuous());
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
            execute_plan(&plan, bindings, &mut exec_context(vacuous()))
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
    let merger = Box::new(DempsterMerger::new(*options));
    let merge = match emit {
        MergeEmit::Union => MergeOp::union(left, right, merger),
        MergeEmit::Intersect => MergeOp::intersect(left, right, merger),
    };
    let merge = Box::new(merge.expect("union-compatible"));
    Box::new(SelectOp::new(merge, predicate.clone(), threshold).expect("positive threshold"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// THE property of the third fusion: σ̃ over ∪̃/∩̃, evaluated inside
    /// the merge, is `SelectOp` over `MergeOp` bit for bit — tuples,
    /// `(sn, sp)`, order, the conflict report observation by
    /// observation, the counters (but for what only a stored run
    /// counts) or the error — for every side combination, predicate
    /// kind, threshold kind and non-error policy, at 1 and 4 threads,
    /// on data with total conflicts on read and unread attributes and
    /// on the membership pair; and it agrees with the reference, report
    /// included.
    #[test]
    fn fused_merge_is_select_over_merge_bit_for_bit(
        seed in 0u64..1_000_000,
        shape in 0u16..40,      // emit × sides × tuple count × threads
        pred_kind in 0u8..10,
        attr_val in 0u8..48,    // attribute index × predicate value
        th in 0u8..4,
        how in 0u8..3,          // non-error policy
    ) {
        let emit = [MergeEmit::Union, MergeEmit::Intersect][usize::from(shape % 2)];
        let sides = Sides::ALL[usize::from(shape / 2 % 5)];
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
            ][usize::from(how)],
        };
        let predicate = merge_predicate_of(pred_kind, attr_val / 16, attr_val % 16);
        // A key-only predicate under the default threshold is not a σ̃
        // over the ∪̃ at all: the rewrite pass distributes it below
        // (and the report then covers the surviving entities only).
        let threshold = threshold_of(if pred_kind == 6 { th | 1 } else { th });
        let plan = merge_plan(emit, predicate.clone(), threshold);

        let mut oracle_ctx = exec_context(options);
        let mut oracle = unfused(emit, &ga, &gb, &options, &predicate, threshold);
        let (expected, failure, report) = drive(oracle.as_mut(), &mut oracle_ctx);
        prop_assert_eq!(failure.is_some(), pred_kind >= 8 && !ga.is_empty());

        let pool = Arc::new(BufferPool::new(3 * PAGE));
        let bindings = sides.bind(&ga, &gb, &pool);
        let mut ctx = exec_context(options);
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
                same_tuples(expected.iter().map(|t| &**t), fused.iter()).or_fail(&context);
                equivalent(&reference, &fused).or_fail(format_args!("vs reference\n{context}"));
                let observed = ctx.conflict_report();
                same_report(&report, &observed).or_fail(&context);
                same_report(&reference_report, &observed).or_fail(&context);
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

        let text = explain_plan(&plan, &bindings, &mut ExecContext::new(&config()), false).expect("explains");
        let symbol = if emit == MergeEmit::Union { "∪̃" } else { "∩̃" };
        let fused_line = format!("] with {threshold} ⟵ {symbol} (index right, stream left;");
        prop_assert!(text.contains(&fused_line), "{text}");
    }
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
    };
    let threshold = Threshold::SnAtLeast(0.3);
    let mut oracle = unfused(emit, &l, &r, &options, predicate, threshold);
    let mut oracle_ctx = exec_context(options);
    let (expected, failure, report) = drive(oracle.as_mut(), &mut oracle_ctx);
    assert_eq!(
        failure.is_some(),
        policy == ConflictPolicy::Error && skip < 4
    );
    for sides in &Sides::ALL[..4] {
        let context = format!("skip {skip}, σ̃[{predicate}], {policy}, {emit:?}, {sides:?}");
        let mut fused = MergeOp::selecting(
            emit,
            leaf("sa", &l, sides.stored_left(), pool),
            leaf("sb", &r, sides.stored_right(), pool),
            options,
            predicate.clone(),
            threshold,
        )
        .expect("union-compatible, positive threshold");
        let mut ctx = exec_context(options);
        let (got, fused_failure, fused_report) = drive(&mut fused, &mut ctx);
        same_tuples(expected.iter().map(|t| &**t), got.iter().map(|t| &**t)).or_fail(&context);
        assert_eq!(failure, fused_failure, "{context}");
        same_report(&report, &fused_report).or_fail(&context);
        assert_eq!(oracle_ctx.stats, masked(ctx.stats), "{context}");

        let bindings = sides.bind(&l, &r, pool);
        let plan = merge_plan(emit, predicate.clone(), threshold);
        let mut ctx = exec_context(options);
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
            vacuous(),
            Predicate::is("nope", ["x"]),
            Threshold::POSITIVE,
        )
        .unwrap();
        let (got, failure, _) = drive(&mut fused, &mut exec_context(vacuous()));
        assert!(got.is_empty() && failure.is_none(), "{failure:?}");
    }
}

/// The PR 16 integrity case, reached through the merge: a record the
/// fused selection rejects unmatched is never decoded in full, yet a
/// rotted tag or length in an attribute it *skips* is still a typed
/// corruption error — on either side of the merge. The rot is sealed
/// under valid checksums, so nothing but the masked decode stands
/// between it and an answer.
#[test]
fn fused_merge_refuses_rot_in_an_attribute_it_skips() {
    let (ga, gb) = generated_pair(3, 60);
    // Reads `e2`, skips `e0`; admits nothing, the generator keeps mass on Ω.
    let predicate = Predicate::is("e2", [Value::str("v0")]);
    let plan = merge_plan(MergeEmit::Union, predicate, Threshold::SnAtLeast(0.99));
    let run = |sa: &[u8], sb: &[u8]| {
        let dir = TempDir::new("equiv-rot");
        let mut bindings = Bindings::new();
        for (name, bytes) in [("sa", sa), ("sb", sb)] {
            std::fs::write(dir.join(name), bytes).unwrap();
            let stored = StoredRelation::open(dir.join(name), Arc::new(BufferPool::new(4 * PAGE)));
            // The stats section is intact, so the open reads no page.
            bindings.bind_stored(name, Arc::new(stored.expect("sealed segments open")));
        }
        let mut ctx = exec_context(vacuous());
        let out = execute_plan(&plan, &bindings, &mut ctx);
        (out.map(|rel| rel.len()), ctx.stats)
    };
    let (sa, sb) = (encode(&ga, PAGE), encode(&gb, PAGE));
    let (answer, stats) = run(&sa, &sb);
    assert_eq!(answer, Ok(0));
    assert_eq!(stats.tuples_scanned, 120);
    // 30 + 30 unmatched records, and both records of each of the 30
    // matched pairs, rejected without a full decode.
    assert_eq!(stats.records_skipped, 120);

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

/// Rot no checksum and no tag check can see, in an attribute the fused
/// σ̃ does not read, of a pair it matches: well-formed focal entries
/// that are not a mass function as they stand — weights summing to
/// 0.5, or two entries out of canonical order — sealed under valid
/// checksums into segments written by `SegmentWriter::append`. A view
/// refuses either, so the pair is decoded in full, and σ̃(sa ∪̃ sb)
/// answers what `SelectOp` over the unfused `MergeOp` and the reference
/// answer over the same bindings: the full decode's error, or the
/// result its sort makes of the out-of-order entries — the clean
/// data's — whichever sides are stored, at 1 and 4 threads.
#[test]
fn a_matched_pair_a_view_refuses_is_decoded_in_full() {
    let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
    let relation = |name: &str, lean: f64| {
        let schema = Schema::builder(name)
            .key_str("k")
            .evidential("e0", Arc::clone(&domain))
            .evidential("e1", Arc::clone(&domain))
            .build()
            .unwrap();
        let mut builder = RelationBuilder::new(Arc::new(schema));
        for (i, key) in ["a", "rot", "b"].into_iter().enumerate() {
            builder = builder
                .tuple(|t| {
                    let t = t
                        .set_str("k", key)
                        .set_evidence_with_omega("e0", [(&["x"][..], lean)], 1.0 - lean)
                        .membership_pair(0.9 - 0.2 * i as f64, 1.0);
                    match key {
                        // Weights no other record holds: the rot's address.
                        "rot" => t.set_evidence("e1", [(&["x"][..], 0.3125), (&["y"][..], 0.6875)]),
                        _ => t.set_evidence_with_omega("e1", [(&["z"][..], 0.5)], 0.5),
                    }
                })
                .unwrap();
        }
        builder.build()
    };
    let (ga, gb) = (relation("L", 0.7), relation("R", 0.6));
    // One focal entry as a record holds it: word count, word, weight.
    let entry = |bits: u64, w: f64| {
        [
            &1u16.to_le_bytes()[..],
            &bits.to_le_bytes(),
            &w.to_bits().to_le_bytes(),
        ]
        .concat()
    };
    let (x, y) = (entry(1, 0.3125), entry(2, 0.6875));
    let written = [x.clone(), y.clone()].concat();
    let rots = [
        ("a total of 0.5", [x.clone(), entry(2, 0.1875)].concat()),
        ("out of canonical order", [y, x].concat()),
    ];
    let dir = TempDir::new("view-rot");
    let pool = Arc::new(BufferPool::new(4 * PAGE));
    let options = vacuous();
    for (n, (rot, rotted)) in rots.iter().enumerate() {
        let stored: Vec<Arc<StoredRelation>> = [("sa", &ga), ("sb", &gb)]
            .into_iter()
            .map(|(name, rel)| {
                let path = dir.join(format!("{name}-{n}.evb"));
                let mut writer = evirel_store::SegmentWriter::create(&path, rel.schema(), PAGE)
                    .expect("segment writer opens");
                for tuple in rel.iter() {
                    writer.append(tuple).expect("record appends");
                }
                writer.finish().expect("segment writes");
                let mut bytes = std::fs::read(&path).unwrap();
                let at = bytes.windows(written.len()).position(|w| w == written);
                let at = at.expect("the record that rots");
                bytes[at..at + rotted.len()].copy_from_slice(rotted);
                reseal(&mut bytes);
                std::fs::write(&path, &bytes).unwrap();
                let stored = StoredRelation::open(&path, Arc::clone(&pool));
                Arc::new(stored.expect("sealed: the open succeeds"))
            })
            .collect();
        for predicate in [Predicate::is("e0", ["x"]), Predicate::is("e0", ["z"])] {
            let threshold = Threshold::POSITIVE;
            let plan = merge_plan(MergeEmit::Union, predicate.clone(), threshold);
            let mut clean = unfused(MergeEmit::Union, &ga, &gb, &options, &predicate, threshold);
            let clean = run(clean.as_mut(), &mut exec_context(options)).unwrap();
            for sides in Sides::ALL {
                let bound = [sides.stored_left(), sides.stored_right()];
                let mut bindings = Bindings::new();
                let mut leaves: Vec<Box<dyn Operator>> = Vec::new();
                for (i, (name, rel)) in [("sa", &ga), ("sb", &gb)].into_iter().enumerate() {
                    if bound[i] {
                        bindings.bind_stored(name, Arc::clone(&stored[i]));
                        leaves.push(Box::new(SpillScanOp::new(name, Arc::clone(&stored[i]))));
                    } else {
                        bindings.bind(name, rel.clone());
                        leaves.push(Box::new(ScanOp::new(name, Arc::new(rel.clone()))));
                    }
                }
                let right = leaves.pop().unwrap();
                let merger = Box::new(DempsterMerger::new(options));
                let merge = MergeOp::union(leaves.pop().unwrap(), right, merger).unwrap();
                let mut select =
                    SelectOp::new(Box::new(merge), predicate.clone(), threshold).unwrap();
                let unfused = run(&mut select, &mut exec_context(options));
                let reference = execute_reference(&plan, &bindings, &options);
                for threads in [1, 4] {
                    let mut ctx = exec_context(options);
                    ctx.parallelism = threads;
                    if sides == Sides::Spilled {
                        ctx.spill_threshold_bytes = 0;
                    }
                    let fused = execute_plan(&plan, &bindings, &mut ctx);
                    let context = format!("{rot}, {sides:?}, {threads} threads, σ̃[{predicate}]");
                    let rotted_side = bound.contains(&true);
                    match (&unfused, fused, &reference) {
                        (Ok(unfused), Ok(fused), Ok((reference, _))) => {
                            assert!(!rotted_side || n == 1, "{context}");
                            identical(unfused, &fused).or_fail(&context);
                            identical(&clean, &fused).or_fail(&context);
                            equivalent(reference, &fused).or_fail(&context);
                        }
                        (Err(unfused), Err(fused), Err(reference)) => {
                            assert!(rotted_side && n == 0, "{context}: {fused}");
                            assert_eq!(unfused.to_string(), fused.to_string(), "{context}");
                            assert_eq!(reference.to_string(), fused.to_string(), "{context}");
                        }
                        (unfused, fused, reference) => panic!(
                            "unfused {:?}, fused {:?}, reference {:?}\n{context}",
                            unfused.as_ref().map(|r| r.len()),
                            fused.map(|r| r.len()),
                            reference.as_ref().map(|(r, _)| r.len()),
                        ),
                    }
                }
            }
        }
    }
}

/// A definite value in an evidential attribute — which `Tuple::new`
/// accepts — is no focal view, so a stored record holding one is
/// decided from its full decode. Over `{k, d}` with `d = x` definite in
/// one record and `{y}` evidence in another (beside a partial `{x}`),
/// `d IS {x} WITH SN > 0.5` fused into the scan is `SelectOp` over the
/// bare scan and the reference, and so is it inside a ∪̃ with a second
/// such relation — whichever sides are stored or spilled, so the
/// scan's records, a merge's left records and its unmatched build-side
/// records are each decided this way — at 1 and 4 threads.
#[test]
fn a_definite_value_in_an_evidential_attribute_is_decided_in_full() {
    let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
    let relation = |name: &str, rows: [(&str, Option<&str>); 3]| {
        let schema = Schema::builder(name)
            .key_str("k")
            .evidential("d", Arc::clone(&domain))
            .build()
            .unwrap();
        let schema = Arc::new(schema);
        let mut rel = ExtendedRelation::new(Arc::clone(&schema));
        for (key, definite) in rows {
            let d = match definite {
                Some(label) => AttrValue::Definite(Value::str(label)),
                None if key.ends_with('y') => AttrValue::Evidential(
                    MassFunction::certain(Arc::clone(domain.frame()), "y").unwrap(),
                ),
                None => {
                    let m = MassFunction::<f64>::builder(Arc::clone(domain.frame()));
                    let m = m.add(["x"], 0.7).unwrap().add_omega(0.3).build();
                    AttrValue::Evidential(m.unwrap())
                }
            };
            let values = vec![AttrValue::Definite(Value::str(key)), d];
            rel.insert(Tuple::new(&schema, values, SupportPair::certain()).unwrap())
                .unwrap();
        }
        rel
    };
    let l = relation("L", [("a", Some("x")), ("by", None), ("c", None)]);
    let r = relation("R", [("a", None), ("by", Some("y")), ("r", Some("x"))]);
    let predicate = Predicate::is("d", [Value::str("x")]);
    let threshold = Threshold::SnGreater(0.5);
    let pool = Arc::new(BufferPool::new(4 * PAGE));

    // The scan, against `SelectOp` over the bare stored scan.
    let scanned = scan("sa")
        .select_where(predicate.clone(), threshold)
        .build();
    let bare = Box::new(SpillScanOp::new("sa", store(&l, &pool)));
    let mut select = SelectOp::new(bare, predicate.clone(), threshold).unwrap();
    let expected = run(&mut select, &mut exec_context(UnionOptions::default())).unwrap();
    assert_eq!(
        expected.len(),
        2,
        "a (definite x) and c ({{x}} at 0.7) pass"
    );
    // The merge, against `SelectOp` over `MergeOp` over in-memory scans.
    let merged = scan("sa")
        .union(scan("sb"))
        .select_where(predicate.clone(), threshold)
        .build();
    let options = UnionOptions::default();
    let mut unfused_merge = unfused(MergeEmit::Union, &l, &r, &options, &predicate, threshold);
    let expected_merge = run(unfused_merge.as_mut(), &mut exec_context(options)).unwrap();
    let mut mem_bindings = Bindings::new();
    mem_bindings.bind("sa", l.clone()).bind("sb", r.clone());

    for sides in Sides::ALL {
        let bindings = sides.bind(&l, &r, &pool);
        for threads in [1, 4] {
            let context = format!("{sides:?}, {threads} threads");
            for (plan, expected) in [(&scanned, &expected), (&merged, &expected_merge)] {
                let mut ctx = exec_context(options);
                ctx.parallelism = threads;
                if sides == Sides::Spilled {
                    ctx.spill_threshold_bytes = 0;
                }
                let fused = execute_plan(plan, &bindings, &mut ctx).expect(&context);
                identical(expected, &fused).or_fail(&context);
                let (reference, _) = execute_reference(plan, &mem_bindings, &options).unwrap();
                identical(&reference, &fused).or_fail(format_args!("vs reference, {context}"));
            }
        }
    }
}
