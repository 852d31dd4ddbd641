//! The shared `SEED:SPEC` plan grammar.
//!
//! Both declarative schedules in this workspace — [`crate::FaultPlan`]
//! (what goes wrong on the wire: message drop/delay) and `dlb_core`'s
//! `WorldPlan` (who is in the world: rank joins, leaves and failures) —
//! speak the same surface syntax:
//!
//! ```text
//! SEED:directive(,directive)*
//! ```
//!
//! where `SEED` is a `u64` and each directive is a keyword immediately
//! followed by its operands (`drop0.01`, `join4@3`, …). This module owns
//! what the two grammars share, so they split and fail identically: the
//! same split of seed from spec, the same trimming and empty-directive
//! tolerance, and the same unknown-directive wording — a CLI typo in
//! `--fault-plan` reads exactly like one in `--world-plan`. Each plan
//! parses its own operands.

/// Splits `s` into its seed and its (possibly empty) list of non-empty,
/// trimmed directives. `what` names the plan kind for error messages
/// (e.g. `"fault"`), and `example` shows a well-formed spec.
///
/// ```
/// use dlb_mpisim::spec::split_seed_spec;
/// let (seed, ds) = split_seed_spec("42:drop0.01, delay0.5", "fault", "42:drop0.01").unwrap();
/// assert_eq!(seed, 42);
/// assert_eq!(ds, vec!["drop0.01", "delay0.5"]);
/// assert!(split_seed_spec("nocolon", "fault", "42:drop0.01").is_err());
/// ```
pub fn split_seed_spec<'a>(
    s: &'a str,
    what: &str,
    example: &str,
) -> Result<(u64, Vec<&'a str>), String> {
    let (seed_str, spec) = s
        .split_once(':')
        .ok_or_else(|| format!("{what} plan '{s}' must be SEED:spec (e.g. {example})"))?;
    let seed: u64 = seed_str
        .trim()
        .parse()
        .map_err(|_| format!("{what} plan seed '{seed_str}' is not a u64"))?;
    let directives = spec.split(',').map(str::trim).filter(|d| !d.is_empty()).collect();
    Ok((seed, directives))
}

/// The uniform "unknown directive" error: names the directive and the
/// keywords the plan accepts.
pub fn unknown_directive(directive: &str, expected: &str) -> String {
    format!("unknown directive '{directive}' (expected {expected})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_seed_and_trims_directives() {
        let (seed, ds) = split_seed_spec("7: a ,, b ", "test", "7:a").unwrap();
        assert_eq!(seed, 7);
        assert_eq!(ds, vec!["a", "b"]);
    }

    #[test]
    fn empty_spec_yields_no_directives() {
        let (seed, ds) = split_seed_spec("99:", "test", "99:x").unwrap();
        assert_eq!(seed, 99);
        assert!(ds.is_empty());
    }

    #[test]
    fn split_errors_name_the_plan_kind() {
        let err = split_seed_spec("nocolon", "fault", "42:drop0.01").unwrap_err();
        assert!(err.contains("fault plan"), "{err}");
        assert!(err.contains("SEED:spec"), "{err}");
        let err = split_seed_spec("x:join1@2", "world", "1:join1@2").unwrap_err();
        assert!(err.contains("world plan seed 'x'"), "{err}");
    }

    #[test]
    fn unknown_directive_wording_is_uniform() {
        let err = unknown_directive("explode", "join<R>@<E>");
        assert_eq!(err, "unknown directive 'explode' (expected join<R>@<E>)");
    }
}
