//! The catalog: named extended relations available to queries.

use crate::error::QueryError;
use evirel_algebra::union::UnionOptions;
use evirel_plan::{
    Binding, Bindings, BoundRelation, BufferPool, ExecContext, RelationSource, StoredRelation,
};
use evirel_relation::ExtendedRelation;
use std::sync::Arc;

/// A registry of queryable relations plus execution options.
///
/// The name → relation bookkeeping is the plan layer's
/// [`Bindings`]; this type adds what executing *queries* needs on
/// top: the shared buffer pool, the ∪̃ options and the thread budget.
/// Relations are held behind [`Arc`] so scan operators stream them
/// without cloning whole extensions. A name can alternatively be
/// *attached* to an on-disk binary segment
/// ([`Catalog::attach_stored`]): queries then stream its pages
/// through the catalog's shared buffer pool instead of requiring the
/// relation in memory — the eql shell's `\load` (and `\store` to
/// write segments) sits on top of this.
///
/// `Clone` is cheap — relation extensions and stored attachments are
/// behind `Arc`s, so a clone copies one small map of handles plus
/// the options. The epoch-snapshot layer
/// ([`crate::snapshot::SharedCatalog`]) leans on this: every write
/// clones the current catalog, mutates the clone, and publishes it as
/// the next generation, so readers never observe a half-applied
/// change.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Names, their relations, and the per-relation statistics
    /// feeding the cost model ([`evirel_plan::CostModel`]).
    bindings: Bindings,
    /// The buffer pool stored relations (and spilled merge build
    /// sides) page through — one pool per catalog, shared by every
    /// query and exchange worker, budgeted by `EVIREL_BUFFER_BYTES`.
    pub pool: Arc<BufferPool>,
    /// Options applied to `UNION` sources (conflict policy,
    /// combination rule, focal cap).
    pub union_options: UnionOptions,
    /// Worker threads for query execution: shardable plan fragments
    /// run through the plan layer's exchange operator when > 1.
    /// Defaults to the `EVIREL_THREADS` environment variable (else
    /// 1); the eql shell sets it with `\set threads N`.
    pub parallelism: usize,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog {
            bindings: Bindings::new(),
            pool: Arc::new(BufferPool::from_env()),
            union_options: UnionOptions::default(),
            parallelism: evirel_plan::default_parallelism(),
        }
    }
}

impl Catalog {
    /// An empty catalog with default union options.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The execution context queries against this catalog run under
    /// — its ∪̃ options, thread budget, and pool, with merge build
    /// sides spilling once they outgrow the whole pool budget. The
    /// one place a context is derived from a catalog; a
    /// [`crate::Session`] then caps it with its own budget.
    pub fn exec_context(&self) -> ExecContext {
        let mut ctx = ExecContext::with_options(self.union_options.clone());
        ctx.parallelism = self.parallelism.max(1);
        // One pool per catalog: stored scans and spilled merge build
        // sides of every query page under a single byte budget.
        ctx.pool = Arc::clone(&self.pool);
        ctx.spill_threshold_bytes = self.pool.budget_bytes();
        ctx
    }

    /// Register (or replace) a relation under `name`. Lookup is by the
    /// registered name, not the relation's schema name. Replaces a
    /// stored attachment of the same name.
    pub fn register(&mut self, name: impl Into<String>, rel: ExtendedRelation) {
        self.bindings.bind(name, rel);
    }

    /// Remove a relation; returns it if present. Also detaches a
    /// stored binding of the same name (returning `None` for it —
    /// stored extensions live on disk).
    pub fn deregister(&mut self, name: &str) -> Option<ExtendedRelation> {
        self.bindings
            .unbind(name)
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Attach `name` to an on-disk binary segment: queries scan it
    /// page-at-a-time through [`Catalog::pool`] instead of holding
    /// the extension in memory. Replaces an in-memory registration of
    /// the same name.
    ///
    /// # Errors
    /// [`QueryError::Execution`] when the segment cannot be opened.
    pub fn attach_stored(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), QueryError> {
        let stored = StoredRelation::open(path, Arc::clone(&self.pool)).map_err(|e| {
            QueryError::Execution {
                message: e.to_string(),
            }
        })?;
        self.attach(name, stored);
        Ok(())
    }

    /// Attach `name` to an already-open stored relation. The durable
    /// recovery path ([`crate::durable::DurableCatalog::open`]) uses
    /// this after verifying the segment's content checksum against
    /// the committed manifest/journal record — going through
    /// [`Catalog::attach_stored`] would reopen the file and lose that
    /// verification. Replaces an in-memory registration of the same
    /// name.
    pub fn attach(&mut self, name: impl Into<String>, stored: impl Into<Arc<StoredRelation>>) {
        self.bindings.bind_stored(name, stored.into());
    }

    /// Write the relation registered under `name` to a binary segment
    /// at `path` (the `\store` meta-command). Works for both in-memory
    /// registrations and stored attachments (the latter streams the
    /// source segment page-at-a-time — an on-disk copy, never a full
    /// materialization). The existing binding is left in place; pass
    /// the path to [`Catalog::attach_stored`] (or `\load`) to query
    /// it from disk.
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`] / [`QueryError::Execution`].
    pub fn store_segment(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), QueryError> {
        let exec_err = |e: evirel_store::StoreError| QueryError::Execution {
            message: e.to_string(),
        };
        if let Some(rel) = self.get(name) {
            return evirel_store::write_segment(rel, path, evirel_store::DEFAULT_PAGE_SIZE)
                .map_err(exec_err);
        }
        if let Some(stored) = self.get_stored(name) {
            let mut writer = evirel_store::SegmentWriter::create(
                path,
                stored.schema(),
                evirel_store::DEFAULT_PAGE_SIZE,
            )
            .map_err(exec_err)?;
            for tuple in stored.iter() {
                writer.append(&tuple.map_err(exec_err)?).map_err(exec_err)?;
            }
            writer.finish().map_err(exec_err)?;
            return Ok(());
        }
        Err(QueryError::UnknownRelation {
            name: name.to_owned(),
        })
    }

    /// The relation under `name`, materialized: an in-memory
    /// registration is cheaply cloned out of its `Arc`; a stored
    /// attachment is decoded from its segment. The text-notation
    /// `\save` uses this so every listed relation can be saved.
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`] / [`QueryError::Execution`].
    pub fn materialize(&self, name: &str) -> Result<ExtendedRelation, QueryError> {
        if let Some(rel) = self.get(name) {
            return Ok(rel.clone());
        }
        if let Some(stored) = self.get_stored(name) {
            return stored.to_relation().map_err(|e| QueryError::Execution {
                message: e.to_string(),
            });
        }
        Err(QueryError::UnknownRelation {
            name: name.to_owned(),
        })
    }

    /// Look up an in-memory relation.
    pub fn get(&self, name: &str) -> Option<&ExtendedRelation> {
        match &self.resolve(name)?.relation {
            BoundRelation::Memory(rel) => Some(rel),
            BoundRelation::Stored(_) => None,
        }
    }

    /// Look up a stored (disk-backed) relation handle.
    pub fn get_stored(&self, name: &str) -> Option<Arc<StoredRelation>> {
        match &self.resolve(name)?.relation {
            BoundRelation::Memory(_) => None,
            BoundRelation::Stored(stored) => Some(Arc::clone(stored)),
        }
    }

    /// Statistics for the relation under `name` (`None` for an
    /// unknown name): computed at register time for an in-memory
    /// registration, the segment's own for a stored attachment.
    pub fn stats_for(&self, name: &str) -> Option<Arc<evirel_store::RelStats>> {
        Some(Arc::clone(&self.resolve(name)?.stats))
    }

    /// Human-readable per-relation statistics, one line per
    /// registered name (sorted) — the `STATS` / `\stats` payload.
    pub fn stats_summary(&self) -> String {
        let mut out = String::new();
        for name in self.names() {
            let binding = self.resolve(name).expect("names() lists only bound names");
            let kind = match binding.relation {
                BoundRelation::Memory(_) => "memory",
                BoundRelation::Stored(_) => "stored",
            };
            out.push_str(&format!("{name} ({kind}): {}\n", binding.stats.render()));
        }
        if out.is_empty() {
            out.push_str("no relations registered\n");
        }
        out
    }

    /// Registered names (in-memory and stored), sorted.
    pub fn names(&self) -> Vec<&str> {
        self.bindings.names()
    }

    /// Number of registered relations (in-memory and stored).
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl RelationSource for Catalog {
    fn resolve(&self, name: &str) -> Option<&Binding> {
        self.bindings.resolve(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder, Schema};
    use std::sync::Arc;

    fn rel() -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x"]).unwrap());
        let schema = Arc::new(
            Schema::builder("r")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        RelationBuilder::new(schema)
            .tuple(|t| t.set_str("k", "a").set_evidence("d", [(&["x"][..], 1.0)]))
            .unwrap()
            .build()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register("ra", rel());
        c.register("rb", rel());
        assert_eq!(c.len(), 2);
        assert!(c.get("ra").is_some());
        assert!(c.get("zz").is_none());
        assert_eq!(c.names(), vec!["ra", "rb"]);
        assert!(c.deregister("ra").is_some());
        assert_eq!(c.len(), 1);
        assert!(c.deregister("ra").is_none());
    }

    #[test]
    fn registration_replaces() {
        let mut c = Catalog::new();
        c.register("r", rel());
        c.register("r", rel());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stored_attachments_register_and_replace() {
        let mut c = Catalog::new();
        c.register("r", rel());
        let path = evirel_store::spill_path("catalog");
        c.store_segment("r", &path).unwrap();
        // Attaching under the same name replaces the in-memory copy…
        c.attach_stored("r", &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(c.len(), 1);
        assert!(c.get("r").is_none());
        let stored = c.get_stored("r").unwrap();
        assert_eq!(stored.len(), 1);
        assert_eq!(c.names(), vec!["r"]);
        // A stored attachment can itself be \store'd (segment →
        // segment copy) and materialized for \save.
        let copy = evirel_store::spill_path("catalog-copy");
        c.store_segment("r", &copy).unwrap();
        let mut c2 = Catalog::new();
        c2.attach_stored("r2", &copy).unwrap();
        std::fs::remove_file(&copy).ok();
        assert_eq!(c2.get_stored("r2").unwrap().len(), 1);
        assert_eq!(c.materialize("r").unwrap().len(), 1);
        // …and re-registering in memory replaces the attachment.
        c.register("r", rel());
        assert!(c.get_stored("r").is_none());
        assert_eq!(c.len(), 1);
        // Errors surface, not panic.
        assert!(c.store_segment("ghost", "/nonexistent/x.evb").is_err());
        assert!(c.attach_stored("x", "/nonexistent/x.evb").is_err());
        assert!(c.materialize("ghost").is_err());
    }

    /// A stored relation is queryable end to end: scans stream pages
    /// through the catalog pool and results equal the in-memory run.
    #[test]
    fn stored_relation_queryable() {
        use evirel_workload::generator::{generate, GeneratorConfig};
        let big = generate(
            "G",
            &GeneratorConfig {
                tuples: 400,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let mut mem = Catalog::new();
        mem.register("g", big.clone());
        let mut disk = Catalog::new();
        disk.pool = Arc::new(evirel_plan::BufferPool::new(2048)); // tiny
        disk.register("g", big);
        let path = evirel_store::spill_path("catalog-query");
        disk.store_segment("g", &path).unwrap();
        disk.attach_stored("g", &path).unwrap();
        std::fs::remove_file(&path).ok();

        let q = "SELECT * FROM g WHERE e0 IS {v0, v1} WITH SN > 0";
        let a = crate::execute(&mem, q).unwrap();
        let b = crate::execute(&disk, q).unwrap();
        assert!(a.approx_eq(&b));
        assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
        let stats = disk.pool.stats();
        assert!(stats.evictions > 0, "tiny pool must evict: {stats:?}");
        // Unknown attributes still error at plan time against the
        // stored schema.
        assert!(matches!(
            crate::execute(&disk, "SELECT * FROM g WHERE ghost IS {v0}"),
            Err(QueryError::UnknownAttribute { .. })
        ));
    }
}
