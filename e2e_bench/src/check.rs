//! The correctness gate: canonical report lines are digested and checked
//! against the table recorded per (workload, seed, config) on a known-good
//! tree, and every failed check counts against the run.

use std::collections::BTreeMap;

/// Digests recorded on a known-good tree: `workload<TAB>seed<TAB>config<TAB>digest`.
/// Regenerate with `--record-digests <first-seed> <last-seed>`.
const TABLE: &str = include_str!("../digests.tsv");

/// FNV-1a, 64-bit: a stable digest of a canonical report line.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Expected digests for one (workload, seed), by config. A config the
/// table does not pin is pinned by its first observed line, so every
/// later iteration must still reproduce it byte for byte.
#[derive(Debug)]
pub struct Reference {
    expected: BTreeMap<String, u64>,
    from_table: usize,
}

impl Reference {
    /// Loads the recorded digests of `workload` at `seed`.
    pub fn load(workload: &str, seed: u64) -> Self {
        Self::from_tsv(TABLE, workload, seed)
    }

    fn from_tsv(tsv: &str, workload: &str, seed: u64) -> Self {
        let seed = seed.to_string();
        let expected: BTreeMap<String, u64> = tsv
            .lines()
            .filter_map(|line| {
                let mut f = line.split('\t');
                let (w, s, c, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
                if w != workload || s != seed {
                    return None;
                }
                Some((c.to_string(), u64::from_str_radix(d, 16).ok()?))
            })
            .collect();
        let from_table = expected.len();
        Reference {
            expected,
            from_table,
        }
    }

    /// How many configs the recorded table pins for this seed.
    pub fn pinned(&self) -> usize {
        self.from_table
    }

    /// Checks one canonical line of `config`.
    pub fn check(&mut self, config: &str, line: &str) -> Result<(), String> {
        let got = fnv64(line.as_bytes());
        match self.expected.get(config) {
            Some(&want) if want != got => Err(format!(
                "{config}: report digest {got:016x}, expected {want:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.expected.insert(config.to_string(), got);
                Ok(())
            }
        }
    }
}

/// One table row, as `--record-digests` prints it.
pub fn table_row(workload: &str, seed: u64, config: &str, line: &str) -> String {
    format!(
        "{workload}\t{seed}\t{config}\t{:016x}",
        fnv64(line.as_bytes())
    )
}

/// Counts attempted and failed operations and keeps the first few
/// failure messages for the log.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted (iterations or jobs).
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// Records one operation; `outcome` is its first failure, if any.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(message);
            }
        }
    }

    /// The recorded failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// `Ok` when two paths produced the same bytes.
pub fn same(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: lines differ (digests {:016x} vs {:016x})",
            fnv64(a.as_bytes()),
            fnv64(b.as_bytes())
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn table_pins_and_first_line_pins() {
        let line = "{\"x\":1}";
        let tsv = table_row("w", 7, "8way", line) + "\nw\t8\t8way\t0\n";
        let mut r = Reference::from_tsv(&tsv, "w", 7);
        assert_eq!(r.pinned(), 1);
        assert!(r.check("8way", line).is_ok());
        assert!(r.check("8way", "{\"x\":2}").is_err());
        // An unpinned config is pinned by its first line.
        assert!(r.check("2wide", "a").is_ok());
        assert!(r.check("2wide", "a").is_ok());
        assert!(r.check("2wide", "b").is_err());
    }

    #[test]
    fn gate_counts_failures() {
        let mut g = Gate::default();
        g.record(Ok(()));
        g.record(Err("boom".into()));
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.notes(), ["boom"]);
    }
}
