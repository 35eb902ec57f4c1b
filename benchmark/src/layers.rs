//! The adapter: **every symbol of the repository the traced replay
//! calls is named in this file** (the list is in `README.md`). When a
//! refactor renames or reshapes one of them, this is the only file of
//! the benchmark that has to follow; `loadgen` does not link it.
//!
//! Each method below is one call — or the shortest sequence of calls —
//! into one layer's public interface, shaped so that `replay` can put
//! one span around it. The request path mirrors what
//! `evirel-serve`'s connection loop and `Session::query_pinned` do,
//! composed from the same public functions:
//!
//! ```text
//! serve     read_frame, Request::parse            decode
//! query     SharedCatalog::pin                    pin
//! query     PlanCache::prepare_or_cached          prepare (hit or miss)
//! plan      execute_optimized_metered             execute
//! relation  Display for ExtendedRelation          render
//! serve     Response::encode, write_frame         encode
//! query     SharedCatalog::update_at around
//!           DurableCatalog::record_bind +
//!           Catalog::attach_stored                publish
//! ```

use crate::stream::Spec;
use evirel_algebra::union::merge_tuples;
use evirel_algebra::{ConflictReport, UnionOptions};
use evirel_evidence::combine::dempster;
use evirel_plan::{execute_optimized_metered, optimize, schema_of, ExecContext, LogicalPlan};
use evirel_query::ast::SelectStmt;
use evirel_query::lexer::tokenize;
use evirel_query::parser::parse;
use evirel_query::plan::lower_validated;
use evirel_query::{
    normalize_eql, Catalog, CatalogSnapshot, DurableCatalog, PlanCache, PreparedPlan, SharedCatalog,
};
use evirel_relation::{ExtendedRelation, Tuple};
use evirel_serve::{read_frame, write_frame, Request, Response};
use evirel_store::{
    write_segment, BufferPool, Journal, JournalRecord, StoredRelation, DEFAULT_BUFFER_BYTES,
    DEFAULT_PAGE_SIZE,
};
use evirel_workload::generator::generate_pair;
use evirel_workload::{restaurant_db_a, restaurant_db_b, GeneratorConfig, PairConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Failure = Box<dyn std::error::Error>;

/// A decoded request frame.
pub enum Decoded {
    /// `QUERY\n<text>`
    Query(String),
    /// `MERGE <name>\n<text>`
    Merge {
        /// Target binding.
        name: String,
        /// Source query.
        query: String,
    },
}

/// One pinned catalog generation.
pub struct Pinned(Arc<CatalogSnapshot>);

/// A prepared plan and whether the cache had it.
pub struct Planned {
    plan: Arc<PreparedPlan>,
    /// Served from the plan cache.
    pub hit: bool,
}

/// A query result before rendering.
pub struct Rows {
    relation: ExtendedRelation,
    conflicts: usize,
}

/// A parsed statement, a lowered plan: opaque steps of a prepare.
pub struct Statement(SelectStmt);
/// See [`Statement`].
pub struct Lowered(LogicalPlan);

/// What `evirel-serve` holds for its sessions, built the way its
/// `main` builds it.
pub struct Engine {
    shared: Arc<SharedCatalog>,
    cache: PlanCache,
    durable: DurableCatalog,
    /// A second journal and segment path, next to the real ones, for
    /// timing `Journal::append` and `write_segment` on their own.
    scratch_journal: Journal,
    scratch_segment: PathBuf,
}

impl Engine {
    /// The catalog of `evirel-serve --seed-workload N --data-dir DIR`
    /// with `EVIREL_THREADS=1` and the workload's pool budget, plus
    /// the workload's stored segments.
    ///
    /// # Errors
    /// Whatever the layers report.
    pub fn open(spec: &Spec, dir: &Path) -> Result<Engine, Failure> {
        let _ = std::fs::remove_dir_all(dir);
        let data = dir.join("data");
        let scratch = dir.join("scratch");
        std::fs::create_dir_all(&data)?;
        std::fs::create_dir_all(&scratch)?;
        let mut catalog = Catalog::new();
        let budget = spec
            .buffer_bytes
            .map_or(DEFAULT_BUFFER_BYTES, |b| b as usize);
        catalog.pool = Arc::new(BufferPool::new(budget));
        catalog.parallelism = 1;
        // As `seed()` in crates/serve/src/bin/evirel-serve.rs.
        catalog.register("ra", restaurant_db_a().restaurants);
        catalog.register("rb", restaurant_db_b().restaurants);
        let pair = PairConfig {
            base: GeneratorConfig {
                tuples: spec.seed_tuples as usize,
                ..GeneratorConfig::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.25,
        };
        let (ga, gb) = generate_pair(&pair)?;
        catalog.register("ga", ga);
        catalog.register("gb", gb);
        let (durable, _recovered) = DurableCatalog::open(&data)?;
        let (scratch_journal, _) = Journal::open_or_create(&scratch)?;
        let mut engine = Engine {
            shared: Arc::new(SharedCatalog::new(catalog)),
            cache: PlanCache::default(),
            durable,
            scratch_journal,
            scratch_segment: scratch.join("seg-scratch.evb"),
        };
        for (name, source) in spec.stored {
            let pinned = engine.pin();
            let planned = engine.prepare(&pinned, source)?;
            let rows = engine.execute(&pinned, &planned)?;
            engine.publish(name, &rows)?;
        }
        Ok(engine)
    }

    /// serve: one frame off the wire → a request.
    ///
    /// # Errors
    /// Frame and protocol errors; verbs the benchmark does not send.
    pub fn decode(frame: &[u8]) -> Result<Decoded, Failure> {
        let payload = read_frame(&mut std::io::Cursor::new(frame))?.ok_or("empty frame stream")?;
        match Request::parse(&payload)? {
            Request::Query(text) => Ok(Decoded::Query(text)),
            Request::Merge { name, query } => Ok(Decoded::Merge { name, query }),
            other => Err(format!("replay does not handle {}", other.verb()).into()),
        }
    }

    /// query: pin the current generation.
    pub fn pin(&self) -> Pinned {
        Pinned(self.shared.pin())
    }

    /// query: the plan for `text`, from the cache or prepared now.
    ///
    /// # Errors
    /// Lex, parse and plan errors.
    pub fn prepare(&self, pinned: &Pinned, text: &str) -> Result<Planned, Failure> {
        let (plan, hit) = self.cache.prepare_or_cached(&pinned.0, text)?;
        Ok(Planned { plan, hit })
    }

    /// plan: run the optimized plan under a session's budget (one
    /// thread; spill threshold half the pool, as two workers share it).
    ///
    /// # Errors
    /// Execution errors.
    pub fn execute(&self, pinned: &Pinned, planned: &Planned) -> Result<Rows, Failure> {
        let catalog = pinned.0.catalog();
        let mut ctx = ExecContext::with_options(catalog.union_options.clone());
        ctx.pool = Arc::clone(&catalog.pool);
        ctx.parallelism = 1;
        ctx.spill_threshold_bytes = (catalog.pool.budget_bytes() / 2).max(1);
        let (relation, _meters) =
            execute_optimized_metered(planned.plan.optimized(), catalog, &mut ctx)?;
        Ok(Rows {
            relation,
            conflicts: ctx.conflict_report().len(),
        })
    }

    /// relation: the `QUERY` reply body, as `query_response` formats it.
    pub fn render(rows: &Rows, hit: bool, pinned: &Pinned) -> String {
        format!(
            "tuples={} conflicts={} cached={} generation={}\n{}",
            rows.relation.len(),
            rows.conflicts,
            u8::from(hit),
            pinned.0.generation(),
            rows.relation,
        )
    }

    /// Tuples in a result.
    pub fn tuples(rows: &Rows) -> usize {
        rows.relation.len()
    }

    /// serve: an `OK` reply → one frame in `out`.
    ///
    /// # Errors
    /// Oversized frames.
    pub fn encode(body: String, out: &mut Vec<u8>) -> Result<(), Failure> {
        out.clear();
        write_frame(out, &Response::Ok { body }.encode())?;
        Ok(())
    }

    /// query + store: publish `rows` as `name` durably — segment
    /// write, journal append and fsync under the catalog's write
    /// guard, then re-attach from the segment. Returns the generation.
    ///
    /// # Errors
    /// Store errors; nothing is published then.
    pub fn publish(&mut self, name: &str, rows: &Rows) -> Result<u64, Failure> {
        let durable = &mut self.durable;
        let ((), generation) = self.shared.update_at(|catalog, generation| {
            let path = durable.record_bind(name, &rows.relation, generation)?;
            catalog.attach_stored(name.to_owned(), path)?;
            Ok(())
        })?;
        Ok(generation)
    }

    // ---- steps of a prepare, each on its own ----

    /// query: the plan-cache key of `text`.
    pub fn normalize(text: &str) -> String {
        normalize_eql(text)
    }

    /// query: `tokenize` then `parse` (which tokenizes again, as it
    /// does inside a prepare; the first call is what `normalize_eql`
    /// pays).
    ///
    /// # Errors
    /// Lex and parse errors.
    pub fn lex_parse(text: &str) -> Result<Statement, Failure> {
        black_box(tokenize(text)?);
        Ok(Statement(parse(text)?))
    }

    /// query: lower and validate against the pinned catalog, and
    /// resolve the output schema.
    ///
    /// # Errors
    /// Unknown relations and attributes.
    pub fn lower(stmt: &Statement, pinned: &Pinned) -> Result<Lowered, Failure> {
        let catalog = pinned.0.catalog();
        let logical = lower_validated(&stmt.0, catalog)?.to_logical();
        schema_of(&logical, catalog)?;
        Ok(Lowered(logical))
    }

    /// plan: the rewrite pass. Returns how many rules fired.
    pub fn optimize(lowered: &Lowered, pinned: &Pinned) -> usize {
        let (plan, fired) = optimize(&lowered.0, pinned.0.catalog());
        black_box(plan);
        fired.len()
    }

    // ---- steps of a publish, each on its own ----

    /// store: write `rows` as a v3 segment (temp → fsync → rename).
    ///
    /// # Errors
    /// Store errors.
    pub fn segment_write(&self, rows: &Rows) -> Result<(), Failure> {
        write_segment(&rows.relation, &self.scratch_segment, DEFAULT_PAGE_SIZE)?;
        Ok(())
    }

    /// store: append one bind record to a journal and fsync it.
    ///
    /// # Errors
    /// Store errors.
    pub fn journal_append(&mut self, name: &str, generation: u64) -> Result<(), Failure> {
        self.scratch_journal.append(&JournalRecord::Bind {
            name: name.to_owned(),
            file: "seg-scratch.evb".to_owned(),
            format_version: 3,
            checksum: 0,
            tuple_count: 0,
            generation,
        })?;
        Ok(())
    }

    // ---- kernels, on the workload's own data ----

    /// store: iterate the stored relation `name` once through the
    /// workload's buffer pool. Returns (tuples, ns).
    ///
    /// # Errors
    /// `name` is not stored; decode errors.
    pub fn scan_kernel(&self, name: &str) -> Result<(u64, u64), Failure> {
        let stored = self.stored(name)?;
        let started = Instant::now();
        let mut tuples = 0u64;
        for tuple in stored.iter() {
            black_box(tuple?);
            tuples += 1;
        }
        Ok((tuples, started.elapsed().as_nanos() as u64))
    }

    /// algebra + evidence: up to `limit` key-matched tuple pairs of
    /// `left` and `right`, merged by `merge_tuples`, and their
    /// evidential attributes combined by `dempster`. Returns
    /// (pairs, merge ns, attribute pairs, dempster ns).
    ///
    /// # Errors
    /// Unknown relations; decode errors. Totally conflicting pairs
    /// are part of the data and are counted, not failed.
    pub fn merge_kernels(
        &self,
        left: &str,
        right: &str,
        limit: usize,
    ) -> Result<(u64, u64, u64, u64), Failure> {
        let (l, r) = (self.materialize(left)?, self.materialize(right)?);
        let schema = l.schema();
        let right_by_key: std::collections::HashMap<_, _> = r.iter_keyed().collect();
        let pairs: Vec<(Vec<_>, &Tuple, &Tuple)> = l
            .iter_keyed()
            .filter_map(|(key, lt)| right_by_key.get(&key).map(|rt| (key, lt, *rt)))
            .take(limit)
            .collect();
        let options = UnionOptions::default();

        let mut report = ConflictReport::new();
        let started = Instant::now();
        for (key, lt, rt) in &pairs {
            black_box(merge_tuples(schema, key, lt, rt, &options, &mut report).ok());
        }
        let merge_ns = started.elapsed().as_nanos() as u64;

        let masses: Vec<_> = pairs
            .iter()
            .flat_map(|(_, lt, rt)| lt.values().iter().zip(rt.values()))
            .filter_map(|(a, b)| a.as_evidential().zip(b.as_evidential()))
            .collect();
        let started = Instant::now();
        for (a, b) in &masses {
            black_box(dempster(a, b).ok());
        }
        let dempster_ns = started.elapsed().as_nanos() as u64;
        Ok((
            pairs.len() as u64,
            merge_ns,
            masses.len() as u64,
            dempster_ns,
        ))
    }

    fn stored(&self, name: &str) -> Result<Arc<StoredRelation>, Failure> {
        let snapshot = self.shared.pin();
        snapshot
            .catalog()
            .get_stored(name)
            .ok_or_else(|| format!("{name} is not a stored relation").into())
    }

    fn materialize(&self, name: &str) -> Result<ExtendedRelation, Failure> {
        Ok(self.shared.pin().catalog().materialize(name)?)
    }
}
