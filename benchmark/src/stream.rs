//! The five workloads and their request streams.
//!
//! A stream is a pure function of (workload, seed, connection): the
//! same seed gives the same requests in the same order. The seed
//! chooses the order of the texts and, on `read_cold`, the literals;
//! the data the server holds comes from its own `--seed-workload`
//! generator and does not depend on the seed.

/// Merge targets rotate over `m0..m7`.
pub const MERGE_TARGETS: usize = 8;
/// The source every `MERGE` in this benchmark registers: the paper's
/// extended union of the two restaurant databases.
pub const MERGE_SOURCE: &str = "SELECT * FROM ra UNION rb";
/// Capacity of the server's plan cache (`DEFAULT_PLAN_CACHE_CAPACITY`
/// in `evirel-query`); `read_cold` needs far more distinct texts.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// What the main window of a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Both connections issue `QUERY`s.
    Reads,
    /// Connection 0 issues `MERGE`s back to back; connection 1 issues
    /// `QUERY`s until the writer is done.
    WriterAndReader,
}

/// One workload: what the server is started with, what is sent, and
/// how much of it per second of `--seconds`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `--seed-workload N`: tuples in each of `ga` and `gb`.
    pub seed_tuples: u32,
    /// `EVIREL_BUFFER_BYTES`, or the server's default (64 MiB).
    pub buffer_bytes: Option<u64>,
    /// `(name, source)` pairs merged at set-up so that `name` is a
    /// stored segment.
    pub stored: &'static [(&'static str, &'static str)],
    /// Query templates; `{T}` is the `WITH SN >` literal.
    pub queries: Vec<Template>,
    /// Every request carries a literal no earlier request carried.
    pub unique_literals: bool,
    /// Traffic in the main window.
    pub mix: Mix,
    /// Unmeasured requests per connection before the window.
    pub warmup_per_conn: u32,
    /// Main-window operations per connection per second of
    /// `--seconds` (for [`Mix::Reads`] the two connections share twice
    /// this many; for [`Mix::WriterAndReader`] it is the writer's, and
    /// the reader runs until the writer is done). Sized on the 2-vCPU box
    /// this benchmark was defined on so that the window takes about
    /// `--seconds`; frozen, so that the server's counters repeat.
    pub ops_per_conn_per_s: u32,
    /// Operations of the verb the main window lacks, issued alone
    /// after it, per second of `--seconds`: `MERGE`s after a read
    /// window, `QUERY`s after the writer-and-reader window.
    pub tail_per_s: u32,
    /// Times the window and the tail are run, in turn, each time with
    /// this share of their operations. 1: the window, then the tail.
    /// More where the tail would otherwise be a fraction of a second
    /// at one end of the run.
    pub rounds: u32,
    /// Requests the traced replay handles (and as many again
    /// untraced).
    pub replay_requests: u32,
}

/// A query text with an optional threshold placeholder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// EQL with `{T}` where the threshold literal goes, or none.
    pub text: String,
    /// Leading digits of the literal: `"0.0"` or `"0.5"`. Every
    /// literal `<base>dddddd` selects the same tuples (checked when
    /// the digests are blessed), so one digest covers them all.
    pub base: &'static str,
}

impl Template {
    fn fixed(text: String) -> Template {
        Template { text, base: "" }
    }

    /// The text with its literal: `<base>5` when `unique` is `None`,
    /// else `<base>` followed by six digits.
    pub fn render(&self, unique: Option<u32>) -> String {
        if !self.text.contains("{T}") {
            return self.text.clone();
        }
        let literal = match unique {
            None => format!("{}5", self.base),
            Some(u) => format!("{}{:06}", self.base, u % 1_000_000),
        };
        self.text.replace("{T}", &literal)
    }
}

/// The eight read shapes over the paper's restaurant relations:
/// thresholds, selection with `IS`, projection, and `UNION`. Every
/// result has at most 6 tuples.
fn restaurant_shapes() -> Vec<Template> {
    [
        ("SELECT * FROM ra WITH SN > {T}", "0.5"),
        ("SELECT * FROM ra UNION rb WITH SN > {T}", "0.0"),
        (
            "SELECT rname, speciality FROM ra WHERE speciality IS {si} WITH SN > {T}",
            "0.0",
        ),
        (
            "SELECT rname, rating FROM rb WHERE rating IS {ex} WITH SN > {T}",
            "0.5",
        ),
        ("SELECT rname, phone FROM ra UNION rb WITH SN > {T}", "0.5"),
        (
            "SELECT * FROM ra UNION rb WHERE rating IS {gd, ex} WITH SN > {T}",
            "0.5",
        ),
        (
            "SELECT rname FROM ra UNION rb WHERE speciality IS {mu} WITH SN > {T}",
            "0.0",
        ),
        (
            "SELECT rname, best-dish FROM rb WHERE best-dish IS {d1, d2} WITH SN > {T}",
            "0.0",
        ),
    ]
    .into_iter()
    .map(|(text, base)| Template {
        text: text.to_owned(),
        base,
    })
    .collect()
}

/// 3 evidential attributes × 16 domain values = 48 selective scans
/// (about 0.5 % of the tuples each) of `source`.
fn generated_scans(source: &str) -> Vec<Template> {
    (0..3)
        .flat_map(|attr| (0..16).map(move |value| (attr, value)))
        .map(|(attr, value)| {
            Template::fixed(format!(
                "SELECT k FROM {source} WHERE e{attr} IS {{v{value}}} WITH SN > 0.8"
            ))
        })
        .collect()
}

/// All workloads, in the order they run.
pub fn workloads() -> Vec<Spec> {
    vec![
        Spec {
            name: "read_warm",
            seed_tuples: 200,
            buffer_bytes: None,
            stored: &[],
            queries: restaurant_shapes(),
            unique_literals: false,
            mix: Mix::Reads,
            warmup_per_conn: 2000,
            ops_per_conn_per_s: 11_500,
            tail_per_s: 240,
            rounds: 1,
            replay_requests: 2000,
        },
        Spec {
            name: "read_cold",
            seed_tuples: 200,
            buffer_bytes: None,
            stored: &[],
            queries: restaurant_shapes(),
            unique_literals: true,
            mix: Mix::Reads,
            warmup_per_conn: 2000,
            ops_per_conn_per_s: 6_300,
            tail_per_s: 240,
            rounds: 1,
            replay_requests: 2000,
        },
        Spec {
            name: "scan_stored",
            seed_tuples: 10_000,
            buffer_bytes: Some(262_144),
            stored: &[("sa", "SELECT * FROM ga")],
            queries: generated_scans("sa"),
            unique_literals: false,
            mix: Mix::Reads,
            warmup_per_conn: 24,
            ops_per_conn_per_s: 23,
            tail_per_s: 240,
            rounds: 1,
            replay_requests: 48,
        },
        Spec {
            name: "union_stored",
            seed_tuples: 10_000,
            buffer_bytes: None,
            stored: &[("sa", "SELECT * FROM ga"), ("sb", "SELECT * FROM gb")],
            queries: generated_scans("sa UNION sb"),
            unique_literals: false,
            mix: Mix::Reads,
            warmup_per_conn: 8,
            ops_per_conn_per_s: 8,
            tail_per_s: 240,
            rounds: 1,
            replay_requests: 24,
        },
        Spec {
            name: "write_mixed",
            seed_tuples: 200,
            buffer_bytes: None,
            stored: &[],
            queries: restaurant_shapes(),
            unique_literals: false,
            mix: Mix::WriterAndReader,
            warmup_per_conn: 500,
            ops_per_conn_per_s: 540,
            tail_per_s: 4000,
            rounds: 10,
            replay_requests: 1500,
        },
    ]
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Verb of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `QUERY\n<eql>`
    Query,
    /// `MERGE <name>\n<eql>`
    Merge,
}

/// One request: the frame payload and the index of the digest line
/// its reply is checked against (see [`Spec::digest_keys`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Verb.
    pub verb: Verb,
    /// Index into [`Spec::digest_keys`].
    pub key: usize,
    /// Frame payload.
    pub payload: String,
}

impl Spec {
    /// One line per distinct text the run sends, in a fixed order:
    /// the query templates, the set-up merges, the eight `MERGE`s,
    /// and the eight reads of their targets made after the restart.
    /// Newlines are written `\n`.
    pub fn digest_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.queries.iter().map(|t| t.text.clone()).collect();
        keys.extend(
            self.stored
                .iter()
                .map(|(name, source)| format!("MERGE {name}\\n{source}")),
        );
        keys.extend((0..MERGE_TARGETS).map(|j| format!("MERGE m{j}\\n{MERGE_SOURCE}")));
        keys.extend((0..MERGE_TARGETS).map(|j| format!("SELECT * FROM m{j}")));
        keys
    }

    /// The set-up merges that create the stored segments.
    pub fn setup_merges(&self) -> Vec<Request> {
        self.stored
            .iter()
            .enumerate()
            .map(|(i, (name, source))| Request {
                verb: Verb::Merge,
                key: self.queries.len() + i,
                payload: format!("MERGE {name}\n{source}"),
            })
            .collect()
    }

    /// The `i`-th `MERGE` of the run (set-up merges not counted).
    pub fn merge(&self, i: u64) -> Request {
        let j = (i % MERGE_TARGETS as u64) as usize;
        Request {
            verb: Verb::Merge,
            key: self.queries.len() + self.stored.len() + j,
            payload: format!("MERGE m{j}\n{MERGE_SOURCE}"),
        }
    }

    /// Reads made after the `kill -9` and restart: every merge target,
    /// and for a workload with stored segments its first query.
    pub fn recovery_checks(&self) -> Vec<Request> {
        let first_read = self.queries.len() + self.stored.len() + MERGE_TARGETS;
        let mut checks: Vec<Request> = (0..MERGE_TARGETS)
            .map(|j| Request {
                verb: Verb::Query,
                key: first_read + j,
                payload: format!("QUERY\nSELECT * FROM m{j}"),
            })
            .collect();
        if !self.stored.is_empty() {
            checks.push(Request {
                verb: Verb::Query,
                key: 0,
                payload: format!("QUERY\n{}", self.queries[0].render(None)),
            });
        }
        checks
    }

    /// The query stream of connection `conn` (0 or 1) under `seed`.
    pub fn queries(&self, seed: u64, conn: u32) -> QueryStream<'_> {
        // The literal sequence walks the 10^6 six-digit values with a
        // stride coprime to 10^6, from a seed-chosen start: no literal
        // repeats within a million requests, so a plan cached for one
        // request can never serve another.
        let start = splitmix(seed ^ 0xC01D) % 1_000_000;
        QueryStream {
            spec: self,
            seed,
            conn,
            next: 0,
            perm: Vec::new(),
            literal_start: start as u32,
        }
    }

    /// Main-window operations per connection for a run of `seconds`,
    /// divided by `scale` (50 in `--smoke`), at least a handful.
    pub fn main_ops(&self, seconds: u32, scale: u32) -> u64 {
        let ops = u64::from(self.ops_per_conn_per_s) * u64::from(seconds) / u64::from(scale);
        ops.max(MERGE_TARGETS as u64)
    }

    /// Tail operations for a run of `seconds`, divided by `scale`; at
    /// least one per merge target so the restart check has all eight
    /// to read.
    pub fn tail_ops(&self, seconds: u32, scale: u32) -> u64 {
        (u64::from(self.tail_per_s) * u64::from(seconds) / u64::from(scale))
            .max(MERGE_TARGETS as u64)
    }
}

/// Stride of the literal walk: odd and not a multiple of 5.
const LITERAL_STRIDE: u64 = 618_033;

/// Endless query stream of one connection. Texts come in blocks, each
/// block a seeded permutation of all templates, so every template is
/// sent equally often whatever the seed.
#[derive(Debug)]
pub struct QueryStream<'a> {
    spec: &'a Spec,
    seed: u64,
    conn: u32,
    next: u64,
    perm: Vec<usize>,
    literal_start: u32,
}

impl Iterator for QueryStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let n = self.spec.queries.len() as u64;
        let (block, pos) = (self.next / n, (self.next % n) as usize);
        if pos == 0 {
            let mut state = splitmix(self.seed ^ (u64::from(self.conn) << 56) ^ block);
            self.perm = (0..n as usize).collect();
            for i in (1..self.perm.len()).rev() {
                state = splitmix(state);
                self.perm.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        let key = self.perm[pos];
        let unique = self.spec.unique_literals.then(|| {
            // Connections interleave on the walk: 0 takes the even
            // steps, 1 the odd ones.
            let step = self.next * 2 + u64::from(self.conn);
            ((u64::from(self.literal_start) + step * LITERAL_STRIDE) % 1_000_000) as u32
        });
        self.next += 1;
        Some(Request {
            verb: Verb::Query,
            key,
            payload: format!("QUERY\n{}", self.spec.queries[key].render(unique)),
        })
    }
}

/// SplitMix64 step: the whole of this benchmark's randomness.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn take(spec: &Spec, seed: u64, conn: u32, n: usize) -> Vec<Request> {
        spec.queries(seed, conn).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_for_every_workload() {
        for spec in workloads() {
            for conn in 0..2 {
                assert_eq!(
                    take(&spec, 42, conn, 500),
                    take(&spec, 42, conn, 500),
                    "{}",
                    spec.name
                );
            }
            assert_ne!(take(&spec, 42, 0, 500), take(&spec, 42, 1, 500));
        }
    }

    #[test]
    fn another_seed_changes_order_and_literals_but_not_shape_counts() {
        for spec in workloads() {
            let blocks = 20 * spec.queries.len();
            let (a, b) = (take(&spec, 1, 0, blocks), take(&spec, 2, 0, blocks));
            assert_ne!(a, b, "{}", spec.name);
            let counts = |reqs: &[Request]| {
                let mut c = BTreeMap::new();
                for r in reqs {
                    *c.entry(r.key).or_insert(0u32) += 1;
                }
                c
            };
            assert_eq!(counts(&a), counts(&b), "{}", spec.name);
            assert!(counts(&a).values().all(|&n| n == 20), "{}", spec.name);
            let texts = |reqs: &[Request]| -> BTreeSet<String> {
                reqs.iter().map(|r| r.payload.clone()).collect()
            };
            if spec.unique_literals {
                assert_ne!(texts(&a), texts(&b));
                assert_eq!(texts(&a).len(), blocks);
            } else {
                assert_eq!(texts(&a), texts(&b), "{}", spec.name);
                assert_eq!(texts(&a).len(), spec.queries.len());
            }
        }
    }

    #[test]
    fn cold_literals_never_repeat_across_both_connections() {
        let spec = workload("read_cold").unwrap();
        let n = 40 * PLAN_CACHE_CAPACITY;
        let mut seen = BTreeSet::new();
        for conn in 0..2 {
            for r in take(&spec, 9, conn, n) {
                // The literal is what follows "SN > ".
                let literal = r.payload.rsplit("SN > ").next().unwrap().to_owned();
                assert_eq!(literal.len(), "0.5".len() + 6, "{literal}");
                assert!(seen.insert(literal), "repeated literal in {}", r.payload);
            }
        }
        assert_eq!(seen.len(), 2 * n);
    }

    #[test]
    fn digest_keys_cover_every_request_kind() {
        for spec in workloads() {
            let keys = spec.digest_keys();
            let unique: BTreeSet<&String> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "{}", spec.name);
            for r in spec
                .setup_merges()
                .into_iter()
                .chain((0..16).map(|i| spec.merge(i)))
                .chain(spec.recovery_checks())
                .chain(take(&spec, 3, 1, 100))
            {
                assert!(r.key < keys.len());
                let (verb, body) = r.payload.split_once('\n').unwrap();
                match r.verb {
                    Verb::Merge => {
                        assert_eq!(keys[r.key], format!("{verb}\\n{body}"));
                    }
                    Verb::Query => {
                        assert_eq!(verb, "QUERY");
                        // The template with its literal filled in.
                        let (head, tail) =
                            keys[r.key].split_once("{T}").unwrap_or((&keys[r.key], ""));
                        assert!(body.starts_with(head) && body.ends_with(tail), "{body}");
                    }
                }
            }
        }
    }

    #[test]
    fn op_counts_scale_with_seconds_and_smoke() {
        let warm = workload("read_warm").unwrap();
        assert_eq!(warm.main_ops(15, 1), 172_500);
        assert_eq!(warm.main_ops(15, 50), 3450);
        assert_eq!(warm.tail_ops(15, 50), 72);
        let union = workload("union_stored").unwrap();
        // Never less than one operation per merge target.
        assert_eq!(union.main_ops(10, 50), 8);
        assert_eq!(union.tail_ops(1, 50), 8);
    }
}
