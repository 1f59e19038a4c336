//! Checked-in FNV-1a digests of the quick suite at the default seed.
//!
//! `goldens.txt` holds one `<kind> <name> <hex digest>` line per trace byte
//! stream and per figure CSV. Regenerating it is a reviewed change (see
//! README.md), never a fix for a failing check.

use std::collections::BTreeMap;

/// The seed the goldens were taken at (`WorkloadParams`' default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Parsed golden digests, keyed `"<kind> <name>"`.
#[derive(Debug, Clone, Default)]
pub struct Goldens {
    digests: BTreeMap<String, u64>,
}

impl Goldens {
    /// The checked-in table.
    pub fn checked_in() -> Self {
        Self::parse(include_str!("../goldens.txt"))
    }

    /// Parses `<kind> <name> <hex>` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Self {
        let digests = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let (kind, name, hex) = (parts.next()?, parts.next()?, parts.next()?);
                let digest = u64::from_str_radix(hex, 16).ok()?;
                Some((format!("{kind} {name}"), digest))
            })
            .collect();
        Self { digests }
    }

    /// Compares `digest` with the golden for `kind name`. A missing or
    /// different golden is an error message, never a panic: the caller
    /// counts it as a failed op.
    pub fn verify(&self, kind: &str, name: &str, digest: u64) -> Result<(), String> {
        match self.digests.get(&format!("{kind} {name}")) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "{kind} {name}: digest {digest:016x}, golden {want:016x}"
            )),
            None => Err(format!("{kind} {name}: no golden digest")),
        }
    }
}

/// One golden line, as `goldens.txt` stores it.
pub fn line(kind: &str, name: &str, digest: u64) -> String {
    format!("{kind} {name} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_line_writes() {
        let g = Goldens::parse(&format!("# header\n{}\n", line("figure", "fig2", 0xabc)));
        assert_eq!(g.verify("figure", "fig2", 0xabc), Ok(()));
        assert!(g.verify("figure", "fig2", 0xabd).is_err());
        assert!(g.verify("figure", "fig3", 0xabc).is_err());
    }

    #[test]
    fn checked_in_table_covers_every_trace_and_figure() {
        let g = Goldens::checked_in();
        assert_eq!(
            g.digests.keys().filter(|k| k.starts_with("trace ")).count(),
            11
        );
        assert_eq!(
            g.digests
                .keys()
                .filter(|k| k.starts_with("figure "))
                .count(),
            19
        );
    }
}
