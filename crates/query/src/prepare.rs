//! Prepared plans and the plan cache.
//!
//! The parser turns EQL text into its logical plan in one pass;
//! semantic validation and the rewrite optimizer are the per-query
//! costs worth amortizing when the same text executes many times (the
//! common shape of service traffic). A [`PreparedPlan`] captures the
//! *optimized* logical plan once; re-execution ([`PreparedPlan::run`])
//! goes straight to physical planning via
//! [`evirel_plan::execute_optimized_metered`], skipping parsing,
//! validation and every rewrite pass. Every way EQL text is executed —
//! [`crate::execute`], a [`crate::Session`] — is
//! [`PreparedPlan::prepare`] followed by [`PreparedPlan::run`], and
//! `EXPLAIN` ([`explain_with`]) builds its plan the same way.
//!
//! **Staleness is the hazard**: a plan bakes in the schemas and
//! statistics of the relations it scans — projection lists, rewrite
//! and join-order decisions. If a `\load` or merge-write has since
//! replaced one of those bindings, the plan may reference attributes
//! that no longer exist or distribute predicates the new schema does
//! not support. The cache therefore keys every entry on the
//! **normalized text** and validates it against the **bindings it
//! scans**: a plan reads the catalog only through
//! [`RelationSource::resolve`], so it records what each scan leaf
//! resolved to when it was prepared, and a lookup under any snapshot
//! in which one of those names is bound differently (or not at all)
//! is a miss (counted as a stale invalidation). A publish that rebinds
//! some *other* relation leaves the entry a hit. The regression test
//! `tests/plan_cache.rs` pins the failure mode.

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::QueryOutcome;
use crate::lexer::Token;
use crate::plan::lower_validated;
use crate::snapshot::CatalogSnapshot;
use evirel_obs::Trace;
use evirel_plan::{ExecContext, LogicalPlan, Meters, RelationSource};
use evirel_store::RelStats;
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
///
/// The key is built in one buffer: each token appends itself
/// ([`Token::write_canonical`]) after a separating space.
pub fn normalize_eql(text: &str) -> String {
    let Ok(spanned) = crate::lexer::tokenize(text) else {
        return text.trim().to_owned();
    };
    let kept = spanned
        .iter()
        .rposition(|s| !matches!(s.token, Token::Eof | Token::Semicolon))
        .map_or(0, |last| last + 1);
    let mut key = String::with_capacity(text.len());
    for (i, s) in spanned[..kept].iter().enumerate() {
        if i > 0 {
            key.push(' ');
        }
        s.token.write_canonical(&mut key);
    }
    key
}

/// A query prepared against one catalog generation: parsed into its
/// logical plan, validated, and rewritten exactly once.
#[derive(Debug)]
pub struct PreparedPlan {
    normalized: String,
    generation: u64,
    optimized: LogicalPlan,
    rewrites: Vec<String>,
    /// What each scanned name was bound to at prepare time,
    /// identified by the binding's statistics handle (compared with
    /// [`Arc::ptr_eq`]; every bind creates a fresh one, and holding it
    /// here keeps its address from being reused). Only the small
    /// statistics block — never the relation or its segment — so a
    /// cached plan cannot keep a superseded extension alive.
    scanned: Vec<(String, Arc<RelStats>)>,
}

/// Record what every `Scan` leaf of `plan` resolves to in `catalog`,
/// each name once.
fn scanned_bindings(
    plan: &LogicalPlan,
    catalog: &Catalog,
    scanned: &mut Vec<(String, Arc<RelStats>)>,
) -> Result<(), QueryError> {
    if let LogicalPlan::Scan { name } = plan {
        if !scanned.iter().any(|(seen, _)| seen == name) {
            let stats = catalog
                .stats_for(name)
                .ok_or_else(|| QueryError::UnknownRelation { name: name.clone() })?;
            scanned.push((name.clone(), stats));
        }
    }
    plan.inputs()
        .into_iter()
        .try_for_each(|input| scanned_bindings(input, catalog, scanned))
}

/// Parse `text` into its logical plan and validate it against
/// `catalog` — the only place EQL text becomes a plan.
fn lower_text(catalog: &Catalog, text: &str) -> Result<LogicalPlan, QueryError> {
    let stmt = crate::parser::parse(text)?;
    lower_validated(&stmt, catalog)?;
    let logical = stmt.plan;
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
    /// Parse, validate, and optimize `text` against `catalog` as it
    /// stands at `generation`.
    ///
    /// # Errors
    /// Lex/parse errors (a `WITH` that admits `sn = 0` among them),
    /// unknown relations/attributes — exactly the plan-time errors of
    /// [`crate::execute`].
    pub fn prepare(
        catalog: &Catalog,
        generation: u64,
        text: &str,
    ) -> Result<PreparedPlan, QueryError> {
        PreparedPlan::prepare_keyed(catalog, generation, text, normalize_eql(text))
    }

    /// [`PreparedPlan::prepare`] for a caller that already computed
    /// `normalized` = [`normalize_eql`]`(text)` (the cache, for its
    /// key).
    fn prepare_keyed(
        catalog: &Catalog,
        generation: u64,
        text: &str,
        normalized: String,
    ) -> Result<PreparedPlan, QueryError> {
        let logical = lower_text(catalog, text)?;
        let mut scanned = Vec::new();
        scanned_bindings(&logical, catalog, &mut scanned)?;
        let (optimized, fired) = evirel_plan::optimize(&logical, catalog);
        Ok(PreparedPlan {
            normalized,
            generation,
            optimized,
            rewrites: fired.iter().map(|r| r.to_string()).collect(),
            scanned,
        })
    }

    /// Whether `catalog` still binds every relation this plan scans
    /// to what it was prepared against — the whole of what a plan
    /// depends on, so the plan runs under `catalog` exactly as a fresh
    /// prepare would. The one validity rule of the [`PlanCache`].
    fn valid_in(&self, catalog: &Catalog) -> bool {
        self.scanned.iter().all(|(name, stats)| {
            catalog
                .resolve(name)
                .is_some_and(|binding| Arc::ptr_eq(&binding.stats, stats))
        })
    }

    /// Execute the plan against `catalog` (the one it was prepared
    /// against, or a later one that binds the relations it scans the
    /// same way) under `ctx`, returning the outcome and the
    /// per-operator est-vs-actual row counts (rendered only if read).
    ///
    /// # Errors
    /// Plan-build and execution errors (including total-conflict
    /// aborts from `UNION`, governed by the context's union options).
    pub fn run(
        &self,
        catalog: &Catalog,
        mut ctx: ExecContext,
    ) -> Result<(QueryOutcome, Meters), QueryError> {
        let (relation, meters) =
            evirel_plan::execute_optimized_metered(&self.optimized, catalog, &mut ctx)?;
        let outcome = QueryOutcome {
            relation,
            stats: ctx.stats,
            report: ctx.into_conflict_report(),
        };
        Ok((outcome, meters))
    }

    /// The normalized text this plan was prepared from.
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// The catalog generation this plan was prepared at. It stays
    /// valid for later generations until one rebinds a relation it
    /// scans.
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
    /// Lookups answered from cache (same text, every scanned
    /// relation bound as when the plan was prepared).
    pub hits: u64,
    /// Lookups that had to prepare (no entry at all).
    pub misses: u64,
    /// Lookups that found the text but a scanned relation was
    /// rebound (or dropped) since the plan was prepared — the
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

/// What the cache holds for a key under a snapshot.
enum Lookup {
    /// An entry valid under the snapshot.
    Hit(Arc<PreparedPlan>),
    /// An entry, but a relation it scans is bound differently.
    Stale,
    /// No entry.
    Miss,
}

impl CacheInner {
    /// The one lookup rule, shared by execution and `EXPLAIN`'s
    /// `plan cache:` line.
    fn lookup(&self, normalized: &str, snapshot: &CatalogSnapshot) -> Lookup {
        match self.plans.get(normalized) {
            Some(plan) if plan.valid_in(snapshot.catalog()) => Lookup::Hit(Arc::clone(plan)),
            Some(_) => Lookup::Stale,
            None => Lookup::Miss,
        }
    }
}

/// A shared, bounded cache of [`PreparedPlan`]s keyed by normalized
/// EQL text, validated on every lookup against the bindings the plan
/// scans. Thread-safe; one instance serves every session of a query
/// service.
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

    /// The plan for `text` under `snapshot`, preparing and caching it
    /// on a miss. Returns the plan and whether it was a cache hit
    /// (`true` = lowering/rewrite were skipped).
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
            let found = inner.lookup(&normalized, snapshot);
            match found {
                Lookup::Hit(_) => inner.stats.hits += 1,
                Lookup::Stale => inner.stats.stale += 1,
                Lookup::Miss => inner.stats.misses += 1,
            }
            drop(inner);
            trace.record("cache_lookup", lookup_started.elapsed());
            if let Lookup::Hit(plan) = found {
                return Ok((plan, true));
            }
        }
        // Prepare outside the lock: planning is the expensive part,
        // and concurrent sessions preparing different queries should
        // not serialize. Two sessions racing on the *same* text both
        // prepare; the newest-generation plan wins the slot — wasted
        // work, never wrong results.
        let prepare_started = Instant::now();
        let plan = Arc::new(PreparedPlan::prepare_keyed(
            snapshot.catalog(),
            snapshot.generation(),
            text,
            normalized.clone(),
        )?);
        trace.record("lower_rewrite", prepare_started.elapsed());
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.plans.get(&normalized).map(|p| p.generation()) {
            // A racing session already cached a plan prepared at a
            // *fresher* generation; keep it — overwriting with the
            // older one (a straggler still pinned before a rebind)
            // would make every current lookup count as stale and
            // re-prepare until the next insert.
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

    /// Whether executing `text` under `snapshot` would hit the cache,
    /// without touching the statistics — for `EXPLAIN`-style
    /// observability.
    pub fn peek(&self, snapshot: &CatalogSnapshot, text: &str) -> bool {
        let normalized = normalize_eql(text);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        matches!(inner.lookup(&normalized, snapshot), Lookup::Hit(_))
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
    use evirel_workload::{restaurant_db_a, restaurant_db_b};

    fn config() -> evirel_plan::Config {
        evirel_plan::Config::from_env()
    }

    fn shared() -> SharedCatalog {
        let mut c = Catalog::with_config(&config());
        c.register("ra", restaurant_db_a().restaurants);
        c.register("rb", restaurant_db_b().restaurants);
        SharedCatalog::new(c)
    }

    /// Publish a generation that rebinds `name` to a fresh copy of the
    /// restaurant relation.
    fn rebind(shared: &SharedCatalog, name: &str) {
        shared
            .update(|c| {
                c.register(name, restaurant_db_a().restaurants);
                Ok(())
            })
            .unwrap();
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

    /// The parent's `normalize_eql` — one `String` per token, collected
    /// and joined — over the parent's `Token::canonical`: the oracle
    /// for the one-buffer key.
    fn normalize_oracle(text: &str) -> String {
        let Ok(spanned) = crate::lexer::tokenize(text) else {
            return text.trim().to_owned();
        };
        let mut tokens: Vec<Token> = spanned.into_iter().map(|s| s.token).collect();
        while matches!(tokens.last(), Some(Token::Eof | Token::Semicolon)) {
            tokens.pop();
        }
        tokens
            .iter()
            .map(crate::lexer::oracle::canonical)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// EQL-ish source text: keywords in any case, identifiers, strings
    /// in either quote style with quotes and backslashes inside (some
    /// escaped needlessly), integers and floats (`1e-7` lexes as an
    /// integer and an identifier; `0.0000001` is the float `1e-7`),
    /// punctuation, comments, and a trailing `;` or two.
    fn eql_text() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        const WORDS: [&str; 19] = [
            "select", "from", "where", "with", "and", "or", "not", "is", "union", "join", "on",
            "sn", "sp", "ra", "rb", "bldg-no", "RA.rname", "x_1", "e1",
        ];
        const NUMBERS: [&str; 10] = [
            "1e-7",
            "0.0000001",
            "1.0",
            "0.55",
            "-0.5",
            "42",
            "-7",
            "100.",
            "3.14159",
            "0",
        ];
        const PUNCT: [&str; 17] = [
            "*",
            ",",
            ";",
            "(",
            ")",
            "{",
            "}",
            "[",
            "]",
            "^",
            "=",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
            "-- note\n",
        ];
        const GAPS: [&str; 4] = [" ", "  ", "\n", "\t "];
        let piece = (0u8..4, 0usize..64, 0u32..16, "[a-z '\"\\\\.]{0,6}", 0u8..2);
        proptest::collection::vec((piece, 0usize..4), 0..14).prop_map(move |pieces| {
            let mut text = String::new();
            for ((kind, pick, case, content, quote), gap) in pieces {
                match kind {
                    0 => {
                        let word = WORDS[pick % WORDS.len()];
                        for (i, c) in word.chars().enumerate() {
                            if case >> (i % 4) & 1 == 1 {
                                text.push(c.to_ascii_uppercase());
                            } else {
                                text.push(c);
                            }
                        }
                    }
                    1 => text.push_str(NUMBERS[pick % NUMBERS.len()]),
                    2 => text.push_str(PUNCT[pick % PUNCT.len()]),
                    _ => {
                        let q = if quote == 0 { '\'' } else { '"' };
                        text.push(q);
                        for (i, c) in content.chars().enumerate() {
                            if c == q || c == '\\' || (case >> (i % 4)) & 1 == 1 {
                                text.push('\\');
                            }
                            text.push(c);
                        }
                        text.push(q);
                    }
                }
                text.push_str(GAPS[gap]);
            }
            text
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The one-buffer key equals the parent's collect-and-join key,
        /// and every token's appended rendering equals its parent
        /// rendering and `canonical()`.
        #[test]
        fn one_buffer_key_equals_the_oracle(text in eql_text()) {
            let key = normalize_eql(&text);
            proptest::prop_assert_eq!(&key, &normalize_oracle(&text), "{:?}", text);
            if let Ok(spanned) = crate::lexer::tokenize(&text) {
                for s in spanned {
                    let mut out = String::from("key ");
                    s.token.write_canonical(&mut out);
                    let expected = crate::lexer::oracle::canonical(&s.token);
                    proptest::prop_assert_eq!(&out[4..], expected.as_str());
                    proptest::prop_assert_eq!(s.token.canonical(), expected);
                }
            }
        }
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
        assert!(cache.peek(&new, q), "fresher entry survives");
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

        rebind(&shared, "ra");
        let snap = shared.pin();
        let (_, hit) = cache
            .prepare_or_cached(&snap, "SELECT * FROM ra WITH SN > 0")
            .unwrap();
        assert!(!hit, "a generation that rebinds ra invalidates");
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn a_publish_that_leaves_the_scanned_relation_alone_is_a_hit() {
        let shared = shared();
        let cache = PlanCache::new(8);
        let q = "SELECT * FROM ra WITH SN > 0";
        cache.prepare_or_cached(&shared.pin(), q).unwrap();
        // A new name, then a rebind of another existing one.
        rebind(&shared, "m3");
        rebind(&shared, "rb");
        let snap = shared.pin();
        assert_eq!(snap.generation(), 2);
        assert!(cache.peek(&snap, q));
        let (plan, hit) = cache.prepare_or_cached(&snap, q).unwrap();
        assert!(hit, "rebinding other relations must not invalidate");
        assert_eq!(plan.generation(), 0, "the plan prepared at generation 0");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.stale, stats.misses), (1, 0, 1));
        // `peek` and the lookup agree on the other side of the rule too.
        rebind(&shared, "ra");
        assert!(!cache.peek(&shared.pin(), q));
    }

    #[test]
    fn a_union_plan_goes_stale_when_either_side_changes() {
        let shared = shared();
        let cache = PlanCache::new(8);
        let q = "SELECT * FROM ra UNION rb";
        let prepare = |expect_hit: bool, why: &str| {
            let (_, hit) = cache.prepare_or_cached(&shared.pin(), q).unwrap();
            assert_eq!(hit, expect_hit, "{why}");
        };
        prepare(false, "cold");
        prepare(true, "warm");
        rebind(&shared, "ra");
        prepare(false, "left side rebound");
        prepare(true, "re-prepared against the new left side");
        rebind(&shared, "rb");
        prepare(false, "right side rebound");
        // Dropped and registered again is a different binding, and a
        // plan over a name that is gone re-prepares into the typed
        // error rather than running.
        shared.update(|c| Ok(c.deregister("rb"))).unwrap();
        assert!(!cache.peek(&shared.pin(), q));
        let err = cache.prepare_or_cached(&shared.pin(), q).unwrap_err();
        assert_eq!(err.kind(), "unknown-relation");
        rebind(&shared, "rb");
        prepare(false, "right side dropped and re-registered");
        assert_eq!(cache.stats().stale, 4);
        assert_eq!(cache.stats().misses, 1);
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
        assert!(!cache.peek(&snap, "SELECT * FROM ra"));
        assert!(cache.peek(&snap, "SELECT * FROM ra WITH SN > 0.7"));
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
