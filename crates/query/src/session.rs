//! One query session over a shared catalog: snapshot-pinned reads,
//! cached prepared plans, and per-session resource budgets.
//!
//! A [`Session`] is what a server worker (or the eql shell) holds per
//! connection. Every query pins one catalog generation
//! ([`crate::snapshot::SharedCatalog::pin`]), resolves its plan
//! through the shared [`crate::prepare::PlanCache`], and executes
//! under this session's slice of the process-wide resources: the
//! catalog's thread budget and spill budget are carved per session so
//! N concurrent sessions cannot multiply them by N.

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::QueryOutcome;
use crate::prepare::{PlanCache, PreparedPlan};
use crate::snapshot::{CatalogSnapshot, SharedCatalog};
use evirel_obs::{Counter, Event, Histogram, MetricsRegistry, Trace};
use evirel_plan::{ExecContext, Meters, DEFAULT_SLOW_QUERY_MS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-registered handles for the per-query hot path, so executing a
/// query touches only atomics — the registry's map lock is paid once
/// per session, not once per query.
#[derive(Debug, Clone)]
struct QueryMetrics {
    executions: Counter,
    slow_queries: Counter,
    total_seconds: Histogram,
    stage_parse: Histogram,
    stage_cache_lookup: Histogram,
    stage_lower_rewrite: Histogram,
    stage_execute: Histogram,
    tuples_scanned: Counter,
    records_skipped: Counter,
    key_index_builds: Counter,
    tuples_emitted: Counter,
    pairs_merged: Counter,
    conflicts: Counter,
}

impl QueryMetrics {
    fn new(registry: &MetricsRegistry) -> QueryMetrics {
        let stage = |name: &str| {
            registry.histogram(
                "evirel_query_stage_seconds",
                "Per-stage query lifecycle latency",
                &[("stage", name)],
            )
        };
        QueryMetrics {
            executions: registry.counter(
                "evirel_query_executions_total",
                "Queries executed to completion",
                &[],
            ),
            slow_queries: registry.counter(
                "evirel_query_slow_total",
                "Queries at or over the EVIREL_SLOW_QUERY_MS threshold",
                &[],
            ),
            total_seconds: registry.histogram(
                "evirel_query_seconds",
                "End-to-end query latency (prepare + execute)",
                &[],
            ),
            stage_parse: stage("parse"),
            stage_cache_lookup: stage("cache_lookup"),
            stage_lower_rewrite: stage("lower_rewrite"),
            stage_execute: stage("execute"),
            tuples_scanned: registry.counter(
                "evirel_exec_tuples_scanned_total",
                "Tuples pulled out of scan leaves",
                &[],
            ),
            records_skipped: registry.counter(
                "evirel_exec_records_skipped_total",
                "Records of stored relations visited and never decoded in full (a selection fused into the scan or the merge rejected them)",
                &[],
            ),
            key_index_builds: registry.counter(
                "evirel_exec_key_index_builds_total",
                "Key indexes built over stored relations (once per relation, by the first query that probes it)",
                &[],
            ),
            tuples_emitted: registry.counter(
                "evirel_exec_tuples_emitted_total",
                "Tuples emitted by plan roots",
                &[],
            ),
            pairs_merged: registry.counter(
                "evirel_exec_pairs_merged_total",
                "Tuple pairs combined by \u{222a}\u{303}/\u{2229}\u{303} merges",
                &[],
            ),
            conflicts: registry.counter(
                "evirel_exec_conflicts_total",
                "Conflict-report entries recorded during execution",
                &[],
            ),
        }
    }

    fn stage_histogram(&self, stage: &str) -> Option<&Histogram> {
        match stage {
            "parse" => Some(&self.stage_parse),
            "cache_lookup" => Some(&self.stage_cache_lookup),
            "lower_rewrite" => Some(&self.stage_lower_rewrite),
            "execute" => Some(&self.stage_execute),
            _ => None,
        }
    }
}

/// Per-session resource limits, carved from the process budgets.
/// `None` fields fall back to the pinned catalog's own settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionBudget {
    /// Worker threads this session's queries may use (caps
    /// [`ExecContext::parallelism`]).
    pub parallelism: Option<usize>,
    /// Spill threshold in bytes for this session's build sides
    /// (caps [`ExecContext::spill_threshold_bytes`]).
    pub spill_bytes: Option<usize>,
}

impl SessionBudget {
    /// An even share of `total_threads` and `pool_bytes` across
    /// `sessions` concurrent sessions (each at least 1 thread / 1
    /// byte, so small budgets degrade to sequential, eagerly-spilling
    /// sessions rather than panicking).
    pub fn share_of(total_threads: usize, pool_bytes: usize, sessions: usize) -> SessionBudget {
        let sessions = sessions.max(1);
        SessionBudget {
            parallelism: Some((total_threads / sessions).max(1)),
            spill_bytes: Some((pool_bytes / sessions).max(1)),
        }
    }
}

/// The result of one session query: the relation/report/stats of
/// [`QueryOutcome`] plus execution provenance.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The relation, conflict report, and counters.
    pub outcome: QueryOutcome,
    /// `true` when the plan came from the cache — lowering,
    /// validation, and the rewrite pass were all skipped.
    pub cached_plan: bool,
    /// The catalog generation the query executed against.
    pub generation: u64,
}

/// A session over a [`SharedCatalog`] + [`PlanCache`] pair. Cheap to
/// clone conceptually (all shared state is behind `Arc`s), but each
/// connection should own one so budgets stay per-session.
#[derive(Debug)]
pub struct Session {
    shared: Arc<SharedCatalog>,
    cache: Arc<PlanCache>,
    /// This session's resource slice.
    pub budget: SessionBudget,
    metrics: Arc<MetricsRegistry>,
    qm: QueryMetrics,
    slow_query_ms: u64,
}

impl Session {
    /// A session with default (uncapped) budgets.
    pub fn new(shared: Arc<SharedCatalog>, cache: Arc<PlanCache>) -> Session {
        Session::with_budget(shared, cache, SessionBudget::default())
    }

    /// A session with an explicit budget. Metrics land in the
    /// process-wide [`evirel_obs::global`] registry until
    /// [`Session::set_metrics`] plumbs in a specific one.
    pub fn with_budget(
        shared: Arc<SharedCatalog>,
        cache: Arc<PlanCache>,
        budget: SessionBudget,
    ) -> Session {
        let metrics = Arc::clone(evirel_obs::global());
        let qm = QueryMetrics::new(&metrics);
        Session {
            shared,
            cache,
            budget,
            metrics,
            qm,
            slow_query_ms: DEFAULT_SLOW_QUERY_MS,
        }
    }

    /// Route this session's metrics and slow-query events into
    /// `registry` — the server plumbs its per-instance registry here
    /// so concurrent in-process servers do not bleed counters into
    /// each other.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.qm = QueryMetrics::new(&registry);
        self.metrics = registry;
    }

    /// The registry this session's queries report into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Set the slow-query threshold (ms, default [`DEFAULT_SLOW_QUERY_MS`];
    /// `0` logs every query): a query at or over it emits one structured
    /// `slow_query` event (to the registry's event log and stderr) with
    /// per-stage span timings and the plan's est-vs-actual row counts.
    pub fn set_slow_query_ms(&mut self, ms: u64) {
        self.slow_query_ms = ms;
    }

    /// The shared catalog this session reads and writes.
    pub fn shared(&self) -> &Arc<SharedCatalog> {
        &self.shared
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Pin the current catalog generation (see
    /// [`SharedCatalog::pin`]).
    pub fn pin(&self) -> Arc<CatalogSnapshot> {
        self.shared.pin()
    }

    /// Execute `text` against a pinned snapshot, through the plan
    /// cache, under this session's budget.
    ///
    /// # Errors
    /// As [`crate::execute`]; additionally nothing — a malformed
    /// query, unknown relation, or algebra failure all round-trip as
    /// typed [`QueryError`]s, never a panic.
    pub fn query(&self, text: &str) -> Result<SessionOutcome, QueryError> {
        let snapshot = self.pin();
        self.query_pinned(&snapshot, text)
    }

    /// [`Session::query`] against an already-pinned snapshot — for
    /// callers composing a read with other reads of the same
    /// generation.
    ///
    /// # Errors
    /// As [`Session::query`].
    pub fn query_pinned(
        &self,
        snapshot: &CatalogSnapshot,
        text: &str,
    ) -> Result<SessionOutcome, QueryError> {
        let mut trace = Trace::new();
        let (prepared, cached_plan) = self
            .cache
            .prepare_or_cached_traced(snapshot, text, &mut trace)?;
        let ctx = self.context_for(snapshot.catalog());
        let exec_started = Instant::now();
        let (outcome, meters) = prepared.run(snapshot.catalog(), ctx)?;
        trace.record("execute", exec_started.elapsed());
        let outcome = SessionOutcome {
            outcome,
            cached_plan,
            generation: snapshot.generation(),
        };
        self.observe_query(&prepared, &outcome, &trace, &meters);
        Ok(outcome)
    }

    /// Flush one completed query into the registry: stage latency
    /// histograms, the end-to-end histogram, and the execution
    /// counters — and emit a slow-query event when the total meets
    /// the threshold.
    ///
    /// This is the **only** place [`evirel_plan::ExecStats`] flow
    /// into the registry, and it reads the parent context *after* the
    /// exchange has re-merged its per-worker contexts — so parallel
    /// queries count each tuple exactly once, including when a
    /// fragment declines the exchange and re-recurses into an inner
    /// one (the per-worker contexts are private to the exchange and
    /// never flushed here).
    fn observe_query(
        &self,
        prepared: &PreparedPlan,
        outcome: &SessionOutcome,
        trace: &Trace,
        meters: &Meters,
    ) {
        let qm = &self.qm;
        qm.executions.inc();
        for (stage, elapsed) in trace.stages() {
            if let Some(h) = qm.stage_histogram(stage) {
                h.observe(*elapsed);
            }
        }
        let total = trace.total();
        qm.total_seconds.observe(total);
        let stats = &outcome.outcome.stats;
        qm.tuples_scanned.add(stats.tuples_scanned as u64);
        qm.records_skipped.add(stats.records_skipped as u64);
        qm.key_index_builds.add(stats.key_index_builds as u64);
        qm.tuples_emitted.add(stats.tuples_emitted as u64);
        qm.pairs_merged.add(stats.pairs_merged as u64);
        qm.conflicts.add(stats.conflicts as u64);

        if total < Duration::from_millis(self.slow_query_ms) {
            return;
        }
        qm.slow_queries.inc();
        let mut event = Event::new("slow_query")
            .field("eql", prepared.normalized())
            .field("generation", outcome.generation)
            .field("cached_plan", outcome.cached_plan)
            .field(
                "total_us",
                total.as_micros().min(u128::from(u64::MAX)) as u64,
            );
        for (key, value) in trace.stage_fields() {
            event.fields.push((key, value));
        }
        // The operator lines are rendered here and only here: a query
        // under the threshold never formats its plan.
        let meters = meters.collect();
        if let Some(root) = meters.first() {
            event = event.field("root_est_rows", root.est_rows);
            event = event.field("root_act_rows", root.actual_rows);
        }
        let plan_lines: Vec<String> = meters
            .iter()
            .map(|m| format!("{} est={} act={}", m.describe, m.est_rows, m.actual_rows))
            .collect();
        event = event.field("plan", plan_lines.join("; "));
        eprintln!("{}", event.render());
        self.metrics.events().record(event);
    }

    /// Apply a catalog mutation as the next generation (see
    /// [`SharedCatalog::update`]). Cached plans that scan a relation
    /// the mutation rebinds become stale automatically — the cache
    /// re-prepares them on next lookup; the rest stay hits.
    ///
    /// # Errors
    /// Whatever `mutate` returns; nothing is published then.
    pub fn update<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        self.shared.update(mutate)
    }

    /// Full `EXPLAIN` of `text` against the current generation —
    /// **analyzing**: the plan executes (result discarded) under the
    /// same context [`Session::query`] would run it in, so the
    /// physical tree is the one this session's queries get (its
    /// thread and spill budget, not the whole catalog's) and every
    /// operator line shows estimated vs actual rows
    /// ([`crate::explain_with`]) — with a trailing `plan cache:`
    /// line showing whether execution would hit the prepared-plan
    /// cache (the observable "lowering/rewrite skipped" signal).
    ///
    /// # Errors
    /// As [`crate::explain_with`].
    pub fn explain(&self, text: &str) -> Result<String, QueryError> {
        let snapshot = self.pin();
        let catalog = snapshot.catalog();
        let mut out = crate::explain_with(catalog, text, self.context_for(catalog), true)?;
        let hit = self.cache.peek(&snapshot, text);
        out.push_str(&format!(
            "plan cache: {} (generation {})\n",
            if hit {
                "hit — lowering/rewrite skipped"
            } else {
                "miss — would prepare"
            },
            snapshot.generation(),
        ));
        Ok(out)
    }

    /// The execution context this session's queries run under: the
    /// catalog's own ([`Catalog::exec_context`]), with parallelism and
    /// spill threshold capped to the session budget.
    fn context_for(&self, catalog: &Catalog) -> ExecContext {
        let mut ctx = catalog.exec_context();
        if let Some(parallelism) = self.budget.parallelism {
            ctx.parallelism = parallelism.max(1);
        }
        if let Some(spill_bytes) = self.budget.spill_bytes {
            ctx.spill_threshold_bytes = spill_bytes;
        }
        ctx
    }
}

/// Register the query-level collectors — plan cache, buffer pool /
/// catalog generation, and the store's process-wide fsync count — into
/// `metrics`. Both the `evirel-serve` server (per-server registry) and
/// the `eql` REPL (process-global registry) call this, so `STATS`,
/// `METRICS`, `\cache` and `\pool` all read the same series names.
///
/// The closures capture only the narrow `Arc`s passed in — safe to
/// call with a registry owned by a struct that also owns these Arcs
/// without creating a reference cycle.
pub fn register_query_collectors(
    metrics: &MetricsRegistry,
    catalog: &Arc<SharedCatalog>,
    cache: &Arc<PlanCache>,
) {
    {
        let cache = Arc::clone(cache);
        let hits = metrics.counter(
            "evirel_query_cache_hits_total",
            "Plan-cache hits (lowering/rewrite skipped)",
            &[],
        );
        let misses = metrics.counter("evirel_query_cache_misses_total", "Plan-cache misses", &[]);
        let stale = metrics.counter(
            "evirel_query_cache_stale_total",
            "Plan-cache lookups that re-prepared because a scanned relation was rebound",
            &[],
        );
        let evictions = metrics.counter(
            "evirel_query_cache_evictions_total",
            "Plan-cache FIFO evictions",
            &[],
        );
        let entries = metrics.gauge("evirel_query_cache_entries", "Plan-cache entries", &[]);
        metrics.register_collector("query.cache", move || {
            let s = cache.stats();
            hits.set_at_least(s.hits);
            misses.set_at_least(s.misses);
            stale.set_at_least(s.stale);
            evictions.set_at_least(s.evictions);
            entries.set(s.entries as u64);
        });
    }
    {
        let catalog = Arc::clone(catalog);
        let generation = metrics.gauge(
            "evirel_catalog_generation",
            "Published catalog generation",
            &[],
        );
        let hits = metrics.counter("evirel_store_pool_hits_total", "Buffer-pool page hits", &[]);
        let misses = metrics.counter(
            "evirel_store_pool_misses_total",
            "Buffer-pool page misses (disk reads)",
            &[],
        );
        let evictions = metrics.counter(
            "evirel_store_pool_evictions_total",
            "Buffer-pool page evictions",
            &[],
        );
        let overcommits = metrics.counter(
            "evirel_store_pool_overcommits_total",
            "Pages admitted past the byte budget",
            &[],
        );
        let bytes = metrics.gauge("evirel_store_pool_cached_bytes", "Bytes cached", &[]);
        let pages = metrics.gauge("evirel_store_pool_cached_pages", "Pages cached", &[]);
        let fsyncs = metrics.counter(
            "evirel_store_fsyncs_total",
            "File and directory fsyncs issued by the durability layer, process-wide",
            &[],
        );
        metrics.register_collector("store.pool", move || {
            fsyncs.set_at_least(evirel_store::failpoint::fsyncs_total());
            let snapshot = catalog.pin();
            generation.set(snapshot.generation());
            let s = snapshot.catalog().pool.stats();
            hits.set_at_least(s.hits);
            misses.set_at_least(s.misses);
            evictions.set_at_least(s.evictions);
            overcommits.set_at_least(s.overcommits);
            bytes.set(s.bytes_cached as u64);
            pages.set(s.pages_cached as u64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_workload::{restaurant_db_a, restaurant_db_b};

    fn config() -> evirel_plan::Config {
        evirel_plan::Config::from_env()
    }

    fn session() -> Session {
        let mut c = Catalog::with_config(&config());
        c.register("ra", restaurant_db_a().restaurants);
        c.register("rb", restaurant_db_b().restaurants);
        Session::new(
            Arc::new(SharedCatalog::new(c)),
            Arc::new(PlanCache::default()),
        )
    }

    /// `ga`/`gb`: 600-tuple inputs, enough to clear the exchange's
    /// pay-off floor, so `ga UNION gb` at 4 threads really executes
    /// through exchange workers.
    fn big_union_catalog() -> Catalog {
        use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
        let (ga, gb) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 600,
                seed: 7,
                ..Default::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.0,
        })
        .unwrap();
        let mut c = Catalog::with_config(&config());
        c.register("ga", ga);
        c.register("gb", gb);
        c
    }

    /// [`big_union_catalog`] with `ga`/`gb` also attached as the stored
    /// relations `sa`/`sb`.
    fn stored_union_catalog() -> Catalog {
        let mut c = big_union_catalog();
        for (name, stored) in [("ga", "sa"), ("gb", "sb")] {
            let path = evirel_store::spill_path("session-stored");
            c.store_segment(name, &path).unwrap();
            c.attach_stored(stored, &path).unwrap();
            std::fs::remove_file(&path).ok();
        }
        c
    }

    #[test]
    fn query_results_match_direct_execution_and_cache_kicks_in() {
        let s = session();
        let q = "SELECT * FROM ra UNION rb";
        let first = s.query(q).unwrap();
        assert_eq!(first.outcome.relation.len(), 6);
        assert!(!first.cached_plan);
        assert!(!first.outcome.report.is_empty());
        let second = s.query(q).unwrap();
        assert!(second.cached_plan, "second run must reuse the plan");
        assert!(first.outcome.relation.approx_eq(&second.outcome.relation));
        assert_eq!(first.outcome.stats, second.outcome.stats);
        // Direct (uncached) execution agrees bit for bit.
        let direct = crate::execute(s.pin().catalog(), q).unwrap();
        assert!(direct.approx_eq(&second.outcome.relation));
        assert_eq!(
            direct.keys().collect::<Vec<_>>(),
            second.outcome.relation.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn budgets_cap_parallelism_and_spill() {
        let budget = SessionBudget::share_of(8, 4096, 4);
        assert_eq!(budget.parallelism, Some(2));
        assert_eq!(budget.spill_bytes, Some(1024));
        // Degenerate splits stay ≥ 1 instead of zeroing out.
        let tiny = SessionBudget::share_of(1, 10, 64);
        assert_eq!(tiny.parallelism, Some(1));
        assert_eq!(tiny.spill_bytes, Some(1));
    }

    #[test]
    fn explain_reports_cache_state() {
        let s = session();
        let q = "SELECT * FROM ra WITH SN > 0.5";
        let text = s.explain(q).unwrap();
        assert!(text.contains("plan cache: miss"), "{text}");
        s.query(q).unwrap();
        let text = s.explain(q).unwrap();
        assert!(text.contains("plan cache: hit"), "{text}");
        // EXPLAIN says what the next QUERY does: a publish that leaves
        // `ra` alone keeps the plan, one that rebinds it does not.
        for (rebound, line, hit) in [
            ("rb", "plan cache: hit", true),
            ("ra", "plan cache: miss", false),
        ] {
            s.update(|c| {
                c.register(rebound, restaurant_db_a().restaurants);
                Ok(())
            })
            .unwrap();
            let text = s.explain(q).unwrap();
            assert!(text.contains(line), "after rebinding {rebound}: {text}");
            let queried = s.query(q).unwrap();
            assert_eq!(queried.cached_plan, hit, "after rebinding {rebound}");
        }
    }

    /// Regression: `EXPLAIN` renders the plan *this session* runs. A
    /// session budgeted to one thread over a 4-thread catalog shows
    /// no exchange (it used to show the catalog's); an unbudgeted
    /// session over the same catalog does.
    #[test]
    fn explain_runs_under_the_session_budget() {
        let mut c = big_union_catalog();
        c.parallelism = 4;
        let shared = Arc::new(SharedCatalog::new(c));
        let explain = |budget: SessionBudget| {
            Session::with_budget(Arc::clone(&shared), Arc::new(PlanCache::default()), budget)
                .explain("SELECT * FROM ga UNION gb")
                .unwrap()
        };
        let text = explain(SessionBudget {
            parallelism: Some(1),
            spill_bytes: None,
        });
        assert!(!text.contains("exchange"), "{text}");
        let text = explain(SessionBudget::default());
        assert!(text.contains("⇄ exchange (4 threads"), "{text}");
    }

    /// Satellite regression: per-worker `ExecContext` stats summed at
    /// exchange re-merge must flow into the registry **exactly once**
    /// — the flush reads the parent context after re-merge, never the
    /// workers, so a parallel run reports the same registry totals as
    /// a sequential one (a per-worker or in-exchange flush would
    /// double-count whenever a declined exchange re-recurses into an
    /// inner one).
    #[test]
    fn exec_stats_reach_registry_exactly_once_at_1_and_4_threads() {
        let shared = Arc::new(SharedCatalog::new(big_union_catalog()));
        let run = |threads: usize| -> [u64; 4] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut s = Session::new(Arc::clone(&shared), Arc::new(PlanCache::default()));
            s.budget.parallelism = Some(threads);
            s.set_metrics(Arc::clone(&registry));
            let out = s.query("SELECT * FROM ga UNION gb").unwrap();
            let value = |name: &str| registry.value(name, &[]).unwrap();
            let totals = [
                value("evirel_exec_tuples_scanned_total"),
                value("evirel_exec_tuples_emitted_total"),
                value("evirel_exec_pairs_merged_total"),
                value("evirel_exec_conflicts_total"),
            ];
            // Registry totals equal the query's own stats (one query
            // against a fresh registry): nothing lost, nothing
            // counted twice.
            assert_eq!(totals[0], out.outcome.stats.tuples_scanned as u64);
            assert_eq!(totals[1], out.outcome.stats.tuples_emitted as u64);
            assert_eq!(totals[2], out.outcome.stats.pairs_merged as u64);
            assert_eq!(totals[3], out.outcome.stats.conflicts as u64);
            assert!(totals[0] > 0 && totals[1] > 0 && totals[2] > 0);
            assert_eq!(value("evirel_query_executions_total"), 1);
            totals
        };
        assert_eq!(
            run(1),
            run(4),
            "registry totals diverged across parallelism"
        );
    }

    /// The same exactness for a σ̃ fused into a stored scan: the
    /// registry's scanned and skipped totals are the query's own stats
    /// — every stored record counted once as scanned, every dropped
    /// one once as skipped, so scanned − skipped = emitted — at either
    /// thread budget. And for a σ̃ fused into a stored ∪̃, which skips
    /// the unmatched records it rejects, on both sides.
    #[test]
    fn fused_scan_stats_reach_registry_exactly_once_at_1_and_4_threads() {
        let c = stored_union_catalog();
        let shared = Arc::new(SharedCatalog::new(c));
        let merged = |threads: usize| -> [u64; 3] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut s = Session::new(Arc::clone(&shared), Arc::new(PlanCache::default()));
            s.budget.parallelism = Some(threads);
            s.set_metrics(Arc::clone(&registry));
            let out = s
                .query("SELECT k FROM sa UNION sb WHERE e1 IS {v3} WITH SN > 0.5")
                .unwrap();
            let value = |name: &str| registry.value(name, &[]).unwrap();
            let totals = [
                value("evirel_exec_tuples_scanned_total"),
                value("evirel_exec_records_skipped_total"),
                value("evirel_exec_tuples_emitted_total"),
            ];
            let stats = out.outcome.stats;
            assert_eq!(totals[0], stats.tuples_scanned as u64);
            assert_eq!(totals[1], stats.records_skipped as u64);
            assert_eq!(totals[2], stats.tuples_emitted as u64);
            assert_eq!(totals[0], 1200, "both sides, every record");
            assert_eq!(stats.pairs_merged, 300);
            // 300 unmatched records a side; a kept one is decoded in full.
            assert!(totals[1] > 0 && totals[1] <= 600, "{totals:?}");
            assert!(totals[2] > 0 && totals[1] + totals[2] >= 600, "{totals:?}");
            totals
        };
        assert_eq!(merged(1), merged(4));
        let run = |threads: usize| -> [u64; 3] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut s = Session::new(Arc::clone(&shared), Arc::new(PlanCache::default()));
            s.budget.parallelism = Some(threads);
            s.set_metrics(Arc::clone(&registry));
            let out = s
                .query("SELECT k FROM sa WHERE e1 IS {v3} WITH SN > 0.5")
                .unwrap();
            let value = |name: &str| registry.value(name, &[]).unwrap();
            let totals = [
                value("evirel_exec_tuples_scanned_total"),
                value("evirel_exec_records_skipped_total"),
                value("evirel_exec_tuples_emitted_total"),
            ];
            let stats = out.outcome.stats;
            assert_eq!(totals[0], stats.tuples_scanned as u64);
            assert_eq!(totals[1], stats.records_skipped as u64);
            assert_eq!(totals[2], stats.tuples_emitted as u64);
            assert_eq!(totals[0], 600, "every stored record is a tuple scanned");
            assert!(totals[2] > 0 && totals[2] < 600);
            assert_eq!(totals[0] - totals[1], totals[2]);
            totals
        };
        assert_eq!(run(1), run(4));
    }

    /// The same exactness for the key index of a stored build side:
    /// over K identical stored-union queries on one binding the
    /// registry reads one build, not K — the index rides on the
    /// relation — and every query still counts both sides as scanned,
    /// at either thread budget.
    #[test]
    fn key_index_builds_reach_registry_once_per_binding_at_1_and_4_threads() {
        let run = |threads: usize| -> [u64; 3] {
            let shared = Arc::new(SharedCatalog::new(stored_union_catalog()));
            let registry = Arc::new(MetricsRegistry::new());
            let mut s = Session::new(Arc::clone(&shared), Arc::new(PlanCache::default()));
            s.budget.parallelism = Some(threads);
            s.set_metrics(Arc::clone(&registry));
            let value = |name: &str| registry.value(name, &[]).unwrap();
            let mut builds = 0;
            for k in 0..4u64 {
                let out = s.query("SELECT * FROM sa UNION sb").unwrap();
                let stats = out.outcome.stats;
                assert_eq!(stats.key_index_builds, usize::from(k == 0));
                assert_eq!(stats.tuples_scanned, 1200, "both sides, every query");
                builds += stats.key_index_builds as u64;
                assert_eq!(value("evirel_exec_key_index_builds_total"), builds);
            }
            [
                value("evirel_exec_key_index_builds_total"),
                value("evirel_exec_tuples_scanned_total"),
                value("evirel_exec_pairs_merged_total"),
            ]
        };
        let totals = run(1);
        assert_eq!(totals[0], 1);
        assert_eq!(totals[1], 4 * 1200);
        assert!(totals[2] > 0);
        assert_eq!(totals, run(4));
    }

    /// A throttled query (threshold 0 = log everything) lands one
    /// `slow_query` event carrying the normalized EQL, generation,
    /// per-stage spans, and est-vs-actual rows.
    #[test]
    fn slow_query_log_captures_stages_and_row_meters() {
        let mut s = session();
        let registry = Arc::new(MetricsRegistry::new());
        s.set_metrics(Arc::clone(&registry));
        s.set_slow_query_ms(0);
        s.query("select  *  from ra  union rb ;").unwrap();
        let events = registry.events().snapshot();
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.kind, "slow_query");
        let field = |k: &str| {
            event
                .fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("missing field {k} in {event:?}"))
        };
        // Normalized EQL, not the raw text.
        assert_eq!(field("eql"), "SELECT * FROM ra UNION rb");
        assert_eq!(field("generation"), "0");
        assert_eq!(field("cached_plan"), "false");
        for stage in [
            "parse_us",
            "cache_lookup_us",
            "lower_rewrite_us",
            "execute_us",
        ] {
            field(stage).parse::<u64>().unwrap();
        }
        // Root meter: 6 rows actually emitted by the union.
        assert_eq!(field("root_act_rows"), "6");
        assert!(field("plan").contains("act="), "{event:?}");
        assert_eq!(registry.value("evirel_query_slow_total", &[]), Some(1));
        // A second, cached run records a hit trace: lower_rewrite is
        // absent (that work was skipped), cached_plan flips to true.
        s.query("SELECT * FROM ra UNION rb").unwrap();
        let events = registry.events().snapshot();
        assert_eq!(events.len(), 2);
        let cached = &events[1];
        assert!(cached
            .fields
            .iter()
            .any(|(k, v)| k == "cached_plan" && v == "true"));
        assert!(!cached.fields.iter().any(|(k, _)| k == "lower_rewrite_us"));
        // A stored ∪̃ reads both segments itself — a selection inside
        // it decides what to decode of each record — and both scans'
        // meters still say what was read of them.
        let c = stored_union_catalog();
        let mut s = Session::new(
            Arc::new(SharedCatalog::new(c)),
            Arc::new(PlanCache::default()),
        );
        let registry = Arc::new(MetricsRegistry::new());
        s.set_metrics(Arc::clone(&registry));
        s.set_slow_query_ms(0);
        s.query("SELECT * FROM sa UNION sb WHERE e1 IS {v3} WITH SN > 0.5")
            .unwrap();
        let events = registry.events().snapshot();
        let plan = events[0].fields.iter().find(|(key, _)| key == "plan");
        let plan = &plan.expect("a plan field").1;
        for scan in [
            "scan sa [stored: 600 tuples, ",
            "scan sb [stored: 600 tuples, ",
        ] {
            let meter = plan.split("; ").find(|m| m.starts_with(scan));
            let meter = meter.unwrap_or_else(|| panic!("no meter for {scan}: {plan}"));
            assert!(meter.ends_with(" est=600 act=600"), "{meter}");
        }
        // Above-threshold sessions stay quiet for fast queries.
        let mut quiet = session();
        let registry = Arc::new(MetricsRegistry::new());
        quiet.set_metrics(Arc::clone(&registry));
        quiet.set_slow_query_ms(60_000);
        quiet.query("SELECT * FROM ra").unwrap();
        assert!(registry.events().snapshot().is_empty());
        assert_eq!(registry.value("evirel_query_slow_total", &[]), Some(0));
    }

    #[test]
    fn malformed_input_is_typed_never_a_panic() {
        let s = session();
        for bad in [
            "",
            "SELEC",
            "SELECT * FROM ghost",
            "SELECT * FROM ra WHERE ghost IS {x}",
            "SELECT phone FROM ra",
            "\u{0}\u{1}garbage\u{ffff}",
        ] {
            assert!(s.query(bad).is_err(), "{bad:?} must be a typed error");
        }
    }
}
