//! Prepared plans and the generation-keyed plan cache.
//!
//! Parsing is cheap; lowering, semantic validation, and the rewrite
//! optimizer are the per-query costs worth amortizing when the same
//! EQL text executes many times (the common shape of service
//! traffic). A [`PreparedPlan`] captures the *optimized* logical plan
//! once; re-execution ([`PreparedPlan::run`]) goes straight to
//! physical planning via [`evirel_plan::execute_optimized_metered`],
//! skipping lowering and every rewrite pass. Every way EQL text is
//! executed — [`crate::execute`], a [`crate::Session`] — is
//! [`PreparedPlan::prepare`] followed by [`PreparedPlan::run`], and
//! `EXPLAIN` ([`explain_with`]) lowers the text the same way.
//!
//! **Staleness is the hazard**: a plan prepared against catalog
//! generation G bakes in G's schemas and rewrite decisions. If a
//! `\load` or merge-write has since replaced a relation binding, the
//! plan may reference attributes that no longer exist or distribute
//! predicates the new schema does not support. The cache therefore
//! keys every entry on **(normalized text, catalog generation)** —
//! see [`crate::snapshot::SharedCatalog`] — and a lookup against any
//! other generation is a miss (counted as a stale invalidation). The
//! regression test `tests/plan_cache.rs` pins the failure mode.

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::QueryOutcome;
use crate::lexer::Token;
use crate::plan::lower_validated;
use crate::snapshot::CatalogSnapshot;
use evirel_obs::Trace;
use evirel_plan::{ExecContext, LogicalPlan, OpMeter};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default number of cached plans before FIFO eviction.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Normalize EQL text for cache keying by rendering the **lexer's
/// token stream** canonically ([`Token::canonical`], space-joined,
/// trailing `;` dropped) — so formatting variants, comments, keyword
/// case, and quote style collapse to one key while every semantic
/// difference survives. Keying on tokens rather than re-implementing
/// the lexer textually is what makes string literals safe: the lexer
/// accepts single- *and* double-quoted strings with `\`-escapes, and
/// any hand-rolled whitespace collapser that guesses at quoting
/// (treating `"a  b"` as outside a string, say) would merge queries
/// with different literals into one cache entry — wrong results, not
/// just a wasted slot. Identifiers and string literal *contents*
/// stay case-sensitive; only keywords fold (they are case-insensitive
/// in the lexer already).
///
/// Text the lexer rejects is keyed as its raw trimmed self: it can
/// never equal a canonical rendering (those re-lex cleanly), and
/// preparation fails with the lex error anyway — errors are not
/// cached.
pub fn normalize_eql(text: &str) -> String {
    let Ok(spanned) = crate::lexer::tokenize(text) else {
        return text.trim().to_owned();
    };
    let mut tokens: Vec<Token> = spanned.into_iter().map(|s| s.token).collect();
    while matches!(tokens.last(), Some(Token::Eof | Token::Semicolon)) {
        tokens.pop();
    }
    tokens
        .iter()
        .map(Token::canonical)
        .collect::<Vec<_>>()
        .join(" ")
}

/// A query prepared against one catalog generation: parsed, lowered,
/// validated, and rewritten exactly once.
#[derive(Debug)]
pub struct PreparedPlan {
    normalized: String,
    generation: u64,
    optimized: LogicalPlan,
    rewrites: Vec<String>,
}

/// Parse, lower, and validate `text` against `catalog` — the only
/// place EQL text becomes a plan.
fn lower_text(catalog: &Catalog, text: &str) -> Result<LogicalPlan, QueryError> {
    let stmt = crate::parser::parse(text)?;
    let logical = lower_validated(&stmt, catalog)?.to_logical();
    // Deriving the output schema forces every scan leaf to resolve,
    // so a query over an unregistered relation fails *here* — at
    // prepare time, with a typed error — instead of caching a plan
    // that can only fail at execution.
    evirel_plan::schema_of(&logical, catalog)?;
    Ok(logical)
}

/// Full `EXPLAIN` of `query` against `catalog` — logical plan, fired
/// rewrite rules, optimized plan, and the physical operator tree
/// exactly as [`PreparedPlan::run`] would build it under `ctx`
/// (exchange nodes included when its parallelism > 1). With `analyze`
/// the tree actually runs (result discarded) and every operator line
/// carries `[est≈N act=M]`: the cost model's row estimate next to
/// the true row count.
///
/// # Errors
/// Lex/parse errors, unknown relations/attributes, plan-build errors;
/// an execution failure under `analyze` is folded into the rendered
/// text, so the plan is still shown.
pub fn explain_with(
    catalog: &Catalog,
    query: &str,
    mut ctx: ExecContext,
    analyze: bool,
) -> Result<String, QueryError> {
    let logical = lower_text(catalog, query)?;
    Ok(evirel_plan::explain_plan(
        &logical, catalog, &mut ctx, analyze,
    )?)
}

impl PreparedPlan {
    /// Parse, lower, validate, and optimize `text` against `catalog`
    /// as it stands at `generation`.
    ///
    /// # Errors
    /// Lex/parse errors, unknown relations/attributes — exactly the
    /// plan-time errors of [`crate::execute`].
    pub fn prepare(
        catalog: &Catalog,
        generation: u64,
        text: &str,
    ) -> Result<PreparedPlan, QueryError> {
        let logical = lower_text(catalog, text)?;
        let (optimized, fired) = evirel_plan::optimize(&logical, catalog);
        Ok(PreparedPlan {
            normalized: normalize_eql(text),
            generation,
            optimized,
            rewrites: fired.iter().map(|r| r.to_string()).collect(),
        })
    }

    /// Execute the plan against `catalog` (the one it was prepared
    /// against) under `ctx`, returning the outcome and the
    /// per-operator est-vs-actual row counts.
    ///
    /// # Errors
    /// Plan-build and execution errors (including total-conflict
    /// aborts from `UNION`, governed by the context's union options).
    pub fn run(
        &self,
        catalog: &Catalog,
        mut ctx: ExecContext,
    ) -> Result<(QueryOutcome, Vec<OpMeter>), QueryError> {
        let (relation, meters) =
            evirel_plan::execute_optimized_metered(&self.optimized, catalog, &mut ctx)?;
        let outcome = QueryOutcome {
            relation,
            report: ctx.conflict_report(),
            stats: ctx.stats,
        };
        Ok((outcome, meters))
    }

    /// The normalized text this plan was prepared from.
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// The catalog generation this plan is valid for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The optimized logical plan (rewrites already applied).
    pub fn optimized(&self) -> &LogicalPlan {
        &self.optimized
    }

    /// The rewrite rules that fired during preparation, rendered.
    pub fn rewrites(&self) -> &[String] {
        &self.rewrites
    }
}

/// Counters describing cache effectiveness — `hits` is the
/// observable "lowering/rewrite was skipped" signal the service's
/// `STATS` command and the eql shell's `\cache` expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache (same text, same generation).
    pub hits: u64,
    /// Lookups that had to prepare (no entry at all).
    pub misses: u64,
    /// Lookups that found the text but at an older generation — the
    /// stale-plan hazard, detected and re-prepared.
    pub stale: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    plans: HashMap<String, Arc<PreparedPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
    stats: CacheStats,
}

/// A shared, bounded cache of [`PreparedPlan`]s keyed by normalized
/// EQL text, validated against the catalog generation on every
/// lookup. Thread-safe; one instance serves every session of a
/// query service.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (≥ 1 enforced).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The plan for `text` under `snapshot`'s generation, preparing
    /// and caching it on a miss. Returns the plan and whether it was
    /// a cache hit (`true` = lowering/rewrite were skipped).
    ///
    /// # Errors
    /// Preparation errors on a miss; errors are **not** cached.
    pub fn prepare_or_cached(
        &self,
        snapshot: &CatalogSnapshot,
        text: &str,
    ) -> Result<(Arc<PreparedPlan>, bool), QueryError> {
        let mut trace = Trace::new();
        self.prepare_or_cached_traced(snapshot, text, &mut trace)
    }

    /// [`PlanCache::prepare_or_cached`], recording stage timings into
    /// `trace`: `parse` (tokenize + canonical key), `cache_lookup`
    /// (the locked map probe), and — on a miss — `lower_rewrite` (the
    /// full prepare). On a hit, `lower_rewrite` is absent: that is
    /// the skipped work the cache exists to amortize, and its absence
    /// in a slow-query event is itself a signal.
    ///
    /// # Errors
    /// As [`PlanCache::prepare_or_cached`].
    pub fn prepare_or_cached_traced(
        &self,
        snapshot: &CatalogSnapshot,
        text: &str,
        trace: &mut Trace,
    ) -> Result<(Arc<PreparedPlan>, bool), QueryError> {
        let normalized = trace.time("parse", || normalize_eql(text));
        let lookup_started = Instant::now();
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let fresh = inner
                .plans
                .get(&normalized)
                .filter(|p| p.generation() == snapshot.generation())
                .cloned();
            let outcome = match fresh {
                Some(plan) => {
                    inner.stats.hits += 1;
                    Some(plan)
                }
                None if inner.plans.contains_key(&normalized) => {
                    inner.stats.stale += 1;
                    None
                }
                None => {
                    inner.stats.misses += 1;
                    None
                }
            };
            drop(inner);
            trace.record("cache_lookup", lookup_started.elapsed());
            if let Some(plan) = outcome {
                return Ok((plan, true));
            }
        }
        // Prepare outside the lock: planning is the expensive part,
        // and concurrent sessions preparing different queries should
        // not serialize. Two sessions racing on the *same* text both
        // prepare; the newest-generation plan wins the slot — wasted
        // work, never wrong results.
        let prepare_started = Instant::now();
        let plan = Arc::new(PreparedPlan::prepare(
            snapshot.catalog(),
            snapshot.generation(),
            text,
        )?);
        trace.record("lower_rewrite", prepare_started.elapsed());
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.plans.get(&normalized).map(|p| p.generation()) {
            // A racing session already cached a *fresher* plan for
            // this text; keep it — overwriting with the older one
            // would make every current-generation lookup count as
            // stale and re-prepare until the next insert.
            Some(existing) if existing > plan.generation() => {}
            Some(_) => {
                inner.plans.insert(normalized, Arc::clone(&plan));
            }
            None => {
                inner.plans.insert(normalized.clone(), Arc::clone(&plan));
                inner.order.push_back(normalized);
                while inner.plans.len() > self.capacity {
                    if let Some(oldest) = inner.order.pop_front() {
                        if inner.plans.remove(&oldest).is_some() {
                            inner.stats.evictions += 1;
                        }
                    } else {
                        break;
                    }
                }
            }
        }
        inner.stats.entries = inner.plans.len();
        Ok((plan, false))
    }

    /// Whether `text` would hit the cache at `generation`, without
    /// touching the statistics — for `EXPLAIN`-style observability.
    pub fn peek(&self, text: &str, generation: u64) -> bool {
        let normalized = normalize_eql(text);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .plans
            .get(&normalized)
            .is_some_and(|p| p.generation() == generation)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            entries: inner.plans.len(),
            ..inner.stats
        }
    }

    /// Drop every cached plan (stats are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.plans.clear();
        inner.order.clear();
        inner.stats.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SharedCatalog;
    use evirel_workload::restaurant_db_a;

    fn shared() -> SharedCatalog {
        let mut c = Catalog::new();
        c.register("ra", restaurant_db_a().restaurants);
        SharedCatalog::new(c)
    }

    #[test]
    fn normalization_collapses_whitespace_not_strings() {
        assert_eq!(
            normalize_eql("  SELECT *\n  FROM   ra ;  "),
            "SELECT * FROM ra"
        );
        // Whitespace inside string literals is preserved.
        assert_eq!(
            normalize_eql("SELECT * FROM ra WHERE rname = 'two  words'"),
            "SELECT * FROM ra WHERE rname = 'two  words'"
        );
        // Keywords fold (the lexer is case-insensitive for them)…
        assert_eq!(normalize_eql("select * from ra"), "SELECT * FROM ra");
        // …identifiers do not.
        assert_ne!(normalize_eql("SELECT * FROM RA"), "SELECT * FROM ra");
        // Comments are not query text.
        assert_eq!(
            normalize_eql("SELECT * -- pick everything\nFROM ra"),
            "SELECT * FROM ra"
        );
    }

    #[test]
    fn normalization_keys_literals_exactly_as_the_lexer_does() {
        // Double-quoted literals keep their interior whitespace: the
        // keys for "a  b" and "a b" must differ (a shared key would
        // let the second query replay the first one's cached plan).
        assert_ne!(
            normalize_eql(r#"SELECT * FROM ra WHERE rname = "a  b""#),
            normalize_eql(r#"SELECT * FROM ra WHERE rname = "a b""#)
        );
        // Same for whitespace after an escaped quote.
        assert_ne!(
            normalize_eql(r"SELECT * FROM ra WHERE rname = 'don\'t  stop'"),
            normalize_eql(r"SELECT * FROM ra WHERE rname = 'don\'t stop'")
        );
        // Quote style is spelling, not semantics: 'si' and "si" are
        // the same literal token, so they share one key.
        assert_eq!(
            normalize_eql(r#"SELECT * FROM ra WHERE rname = "si""#),
            normalize_eql("SELECT * FROM ra WHERE rname = 'si'")
        );
        // A literal never collides with the identifier it spells.
        assert_ne!(
            normalize_eql("SELECT * FROM ra WHERE rname = 'si'"),
            normalize_eql("SELECT * FROM ra WHERE rname = si")
        );
        // The canonical key re-lexes to the same token stream.
        let key = normalize_eql(r#"SELECT * FROM ra WHERE rname = "don't  stop""#);
        assert_eq!(normalize_eql(&key), key);
        // Unlexable text keys as raw trimmed text (and never collides
        // with a canonical key, which always re-lexes cleanly).
        assert_eq!(
            normalize_eql("  SELECT 'unterminated "),
            "SELECT 'unterminated"
        );
    }

    #[test]
    fn racing_insert_keeps_the_fresher_generation() {
        let shared = shared();
        let cache = PlanCache::new(8);
        let q = "SELECT * FROM ra WITH SN > 0";
        let old = shared.pin();
        shared
            .update(|c| {
                c.register("ra", restaurant_db_a().restaurants);
                Ok(())
            })
            .unwrap();
        let new = shared.pin();
        let (_, hit) = cache.prepare_or_cached(&new, q).unwrap();
        assert!(!hit);
        // A straggler session still pinned at the old generation
        // re-prepares (stale lookup) but must NOT clobber the
        // current-generation entry…
        let (_, hit) = cache.prepare_or_cached(&old, q).unwrap();
        assert!(!hit);
        assert!(cache.peek(q, new.generation()), "fresher entry survives");
        // …so current-generation sessions keep hitting.
        let (_, hit) = cache.prepare_or_cached(&new, q).unwrap();
        assert!(hit);
    }

    #[test]
    fn same_text_hits_different_generation_reprepares() {
        let shared = shared();
        let cache = PlanCache::new(8);
        let snap = shared.pin();
        let (_, hit) = cache
            .prepare_or_cached(&snap, "SELECT * FROM ra WITH SN > 0")
            .unwrap();
        assert!(!hit);
        let (_, hit) = cache
            .prepare_or_cached(&snap, "SELECT   * FROM ra   WITH SN > 0 ;")
            .unwrap();
        assert!(hit, "formatting variants share an entry");
        assert_eq!(cache.stats().hits, 1);

        shared
            .update(|c| {
                c.register("ra", restaurant_db_a().restaurants);
                Ok(())
            })
            .unwrap();
        let snap = shared.pin();
        let (_, hit) = cache
            .prepare_or_cached(&snap, "SELECT * FROM ra WITH SN > 0")
            .unwrap();
        assert!(!hit, "generation bump invalidates");
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let shared = shared();
        let cache = PlanCache::new(2);
        let snap = shared.pin();
        for q in [
            "SELECT * FROM ra",
            "SELECT * FROM ra WITH SN > 0.5",
            "SELECT * FROM ra WITH SN > 0.7",
        ] {
            cache.prepare_or_cached(&snap, q).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // The oldest entry is gone, the newest two still hit.
        assert!(!cache.peek("SELECT * FROM ra", snap.generation()));
        assert!(cache.peek("SELECT * FROM ra WITH SN > 0.7", snap.generation()));
    }

    #[test]
    fn errors_are_not_cached() {
        let shared = shared();
        let cache = PlanCache::new(8);
        let snap = shared.pin();
        assert!(cache
            .prepare_or_cached(&snap, "SELECT * FROM ghost")
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        // Two misses recorded, no entry left behind.
        assert!(cache
            .prepare_or_cached(&snap, "SELECT * FROM ghost")
            .is_err());
        assert_eq!(cache.stats().misses, 2);
    }
}
