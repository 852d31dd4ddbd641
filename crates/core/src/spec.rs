//! The plan grammar's surface syntax: `directive(,directive)*`, where
//! each directive is a keyword immediately followed by its operands
//! (`join4@3`, …). This module splits a spec into directives and words
//! the unknown-directive error; [`crate::WorldPlan::parse`] parses the
//! operands.

/// Splits `s` into its (possibly empty) list of non-empty, trimmed
/// directives.
pub(crate) fn split_directives(s: &str) -> Vec<&str> {
    s.split(',')
        .map(str::trim)
        .filter(|d| !d.is_empty())
        .collect()
}

/// The "unknown directive" error: names the directive and the keywords
/// the plan accepts.
pub(crate) fn unknown_directive(directive: &str, expected: &str) -> String {
    format!("unknown directive '{directive}' (expected {expected})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_seed_and_trims_directives() {
        assert_eq!(split_directives(" a ,, b "), vec!["a", "b"]);
        // A leading `SEED:` is not split off: it stays in the first
        // directive, which then fails to parse as an unknown one.
        assert_eq!(split_directives("7: a ,, b "), vec!["7: a", "b"]);
    }

    #[test]
    fn empty_spec_yields_no_directives() {
        for spec in ["", " ", ",", " , "] {
            assert!(split_directives(spec).is_empty(), "'{spec}'");
        }
    }

    #[test]
    fn unknown_directive_wording_is_uniform() {
        let err = unknown_directive("explode", "join<R>@<E>");
        assert_eq!(err, "unknown directive 'explode' (expected join<R>@<E>)");
    }
}
