//! Output verification: every reply is reduced to (tuples, conflicts,
//! hash of the body) and compared with the checked-in digest of its
//! text, `expected/<workload>.digest`.

use crate::stream::Verb;
use crate::wire::header_field;
use std::path::Path;

/// What a correct reply to one text looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// `tuples=` of the reply.
    pub tuples: u64,
    /// `conflicts=` of a `QUERY` reply; 0 for a `MERGE`.
    pub conflicts: u64,
    /// FNV-1a of the part of the reply that does not depend on when
    /// it was made: the rendered relation of a `QUERY`, the
    /// acknowledgement of a `MERGE` without its generation.
    pub hash: u64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reduce the body of an `OK` reply. Returns the digest and the
/// catalog generation the reply reports.
///
/// # Errors
/// A description of what is missing from the reply.
pub fn observe(verb: Verb, body: &str) -> Result<(Digest, u64), String> {
    let (header, rest) = body.split_once('\n').unwrap_or((body, ""));
    let field = |key: &str| {
        header_field(header, key).ok_or_else(|| format!("no {key}= in reply header {header:?}"))
    };
    let digest = match verb {
        Verb::Query => Digest {
            tuples: field("tuples")?,
            conflicts: field("conflicts")?,
            hash: fnv1a(rest.as_bytes()),
        },
        Verb::Merge => {
            let stable = header
                .rsplit_once(" generation=")
                .ok_or_else(|| format!("no generation= in merge acknowledgement {header:?}"))?
                .0;
            Digest {
                tuples: field("tuples")?,
                conflicts: 0,
                hash: fnv1a(stable.as_bytes()),
            }
        }
    };
    Ok((digest, field("generation")?))
}

/// The digests of one workload, indexed like
/// [`crate::stream::Spec::digest_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    keys: Vec<String>,
    digests: Vec<Option<Digest>>,
}

impl Expected {
    /// A table with every digest unknown — what `--bless` starts from.
    pub fn blank(keys: Vec<String>) -> Expected {
        let digests = vec![None; keys.len()];
        Expected { keys, digests }
    }

    /// Read a digest file. Every key must be present exactly once and
    /// nothing else.
    ///
    /// # Errors
    /// I/O errors and any line that does not parse or match.
    pub fn load(path: &Path, keys: Vec<String>) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e} (run with --bless?)", path.display()))?;
        let mut table = Expected::blank(keys);
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("{}:{}: malformed digest line", path.display(), n + 1);
            let mut parts = line.splitn(4, '\t');
            let mut next = || parts.next().ok_or_else(bad);
            let tuples = next()?.parse().map_err(|_| bad())?;
            let conflicts = next()?.parse().map_err(|_| bad())?;
            let hash = u64::from_str_radix(next()?, 16).map_err(|_| bad())?;
            let key = next()?;
            let slot = table
                .keys
                .iter()
                .position(|k| k == key)
                .ok_or_else(|| format!("{}:{}: unknown text {key:?}", path.display(), n + 1))?;
            if table.digests[slot].is_some() {
                return Err(format!("{}:{}: duplicate text", path.display(), n + 1));
            }
            table.digests[slot] = Some(Digest {
                tuples,
                conflicts,
                hash,
            });
        }
        match table.digests.iter().position(Option::is_none) {
            Some(missing) => Err(format!(
                "{}: no digest for {:?}",
                path.display(),
                table.keys[missing]
            )),
            None => Ok(table),
        }
    }

    /// Compare an observation with the digest of `key`. A blank slot
    /// takes the observation (blessing); every later observation of
    /// that key must then agree with it.
    ///
    /// # Errors
    /// A description of the mismatch.
    pub fn check(&mut self, key: usize, seen: Digest) -> Result<(), String> {
        match self.digests[key] {
            None => {
                self.digests[key] = Some(seen);
                Ok(())
            }
            Some(want) if want == seen => Ok(()),
            Some(want) => Err(format!(
                "reply to {:?} differs: expected tuples={} conflicts={} hash={:016x}, \
                 got tuples={} conflicts={} hash={:016x}",
                self.keys[key],
                want.tuples,
                want.conflicts,
                want.hash,
                seen.tuples,
                seen.conflicts,
                seen.hash
            )),
        }
    }

    /// The digest of `key`, if known.
    pub fn get(&self, key: usize) -> Option<Digest> {
        self.digests[key]
    }

    /// Fold in what another connection's copy of this table learned
    /// while blessing.
    ///
    /// # Errors
    /// When the two copies disagree about a text.
    pub fn merge(&mut self, other: &Expected) -> Result<(), String> {
        for (key, seen) in other.digests.iter().enumerate() {
            if let Some(seen) = seen {
                self.check(key, *seen)?;
            }
        }
        Ok(())
    }

    /// Write the digest file.
    ///
    /// # Errors
    /// I/O errors, or a text that was never observed.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (key, digest) in self.keys.iter().zip(&self.digests) {
            let d = digest.ok_or_else(|| format!("text {key:?} was never sent; cannot bless"))?;
            out.push_str(&format!(
                "{}\t{}\t{:016x}\t{key}\n",
                d.tuples, d.conflicts, d.hash
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn query_digest_ignores_cache_state_and_generation() {
        let a = observe(
            Verb::Query,
            "tuples=2 conflicts=1 cached=0 generation=3\nRA\n| x |\n",
        )
        .unwrap();
        let b = observe(
            Verb::Query,
            "tuples=2 conflicts=1 cached=1 generation=9\nRA\n| x |\n",
        )
        .unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!((a.1, b.1), (3, 9));
        let c = observe(
            Verb::Query,
            "tuples=2 conflicts=1 cached=1 generation=9\nRA\n| y |\n",
        )
        .unwrap();
        assert_ne!(a.0, c.0);
        assert!(observe(Verb::Query, "conflicts=1 generation=9\n").is_err());
    }

    #[test]
    fn merge_digest_ignores_only_the_generation() {
        let a = observe(Verb::Merge, "merged m3 tuples=6 generation=17").unwrap();
        let b = observe(Verb::Merge, "merged m3 tuples=6 generation=18").unwrap();
        let c = observe(Verb::Merge, "merged m4 tuples=6 generation=18").unwrap();
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
        assert_eq!((a.0.tuples, a.1, b.1), (6, 17, 18));
        assert!(observe(Verb::Merge, "merged m3 tuples=6").is_err());
    }

    #[test]
    fn bless_then_load_round_trips_and_tampering_is_caught() {
        let keys = vec!["SELECT a".to_owned(), "MERGE m0\\nSELECT b".to_owned()];
        let d = |n| Digest {
            tuples: n,
            conflicts: 0,
            hash: 0xabc + n,
        };
        let mut t = Expected::blank(keys.clone());
        t.check(0, d(1)).unwrap();
        t.check(0, d(1)).unwrap();
        assert!(t.check(0, d(2)).is_err(), "blessing must be consistent");
        // Scratch space stays inside the benchmark's own ignored out/.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("digest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.digest");
        assert!(t.save(&path).is_err(), "unseen text cannot be blessed");
        t.check(1, d(5)).unwrap();
        t.save(&path).unwrap();
        let mut loaded = Expected::load(&path, keys.clone()).unwrap();
        assert_eq!(loaded, t);
        assert!(loaded.check(1, d(5)).is_ok());
        assert!(loaded.check(1, d(6)).is_err());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("abd", "abe", 1)).unwrap();
        let mut tampered = Expected::load(&path, keys.clone()).unwrap();
        assert!(tampered.check(0, d(1)).is_err());
        std::fs::write(&path, text.lines().next().unwrap()).unwrap();
        assert!(Expected::load(&path, keys).is_err(), "missing line");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
