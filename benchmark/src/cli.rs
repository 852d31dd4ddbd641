//! Strict command line: an unknown flag or an unparsable value is an
//! error (exit 2), never a silent default.

use std::path::PathBuf;
use std::str::FromStr;

use crate::workload::{Workload, DEFAULT_SEED};

pub const USAGE: &str = "\
usage: benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--quick] [--spans FILE]
           one run of one workload; the last line of stdout is the result JSON
       benchmark [--workload NAME] [--seed N] [--seconds S] [--quick] [--out FILE] [--check-against FILE]
           every workload (or the named one), untraced then traced, each in its own process
       benchmark --describe
           print the content of BENCHMARK.json, generated from the metric tables
workloads: amr_epochs amr_incremental cage_repart cage_dist2 rmat_static";

/// Seconds of measured op time a run aims for when `--seconds` is not
/// given (the `run_seconds` of BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `Some` selects a single run in this process; `None` the suite.
    pub trace: Option<bool>,
    pub quick: bool,
    pub out: Option<PathBuf>,
    pub check_against: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    pub describe: bool,
}

fn value<T: FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("cannot parse {flag} value '{raw}'"))
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        out: None,
        check_against: None,
        spans: None,
        describe: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, args.next())?;
                out.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => out.seed = value(&flag, args.next())?,
            "--seconds" => {
                out.seconds = value(&flag, args.next())?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {}", out.seconds));
                }
            }
            "--trace" => {
                out.trace = Some(match value::<u8>(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--quick" => out.quick = true,
            "--describe" => out.describe = true,
            "--out" => out.out = Some(value(&flag, args.next())?),
            "--check-against" => out.check_against = Some(value(&flag, args.next())?),
            "--spans" => out.spans = Some(value(&flag, args.next())?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match out.trace {
        Some(_) if out.workload.is_none() => Err("--trace needs --workload".into()),
        Some(_) if out.out.is_some() || out.check_against.is_some() => {
            Err("--out and --check-against belong to the suite (drop --trace)".into())
        }
        Some(false) | None if out.spans.is_some() => Err("--spans needs --trace 1".into()),
        _ => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form_parses() {
        let a = parse_str("--workload cage_dist2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::CageDist2));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        let a = parse_str("").unwrap();
        assert_eq!((a.seed, a.trace, a.quick), (DEFAULT_SEED, None, false));
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        for bad in [
            "--sed 1",
            "--seed abc",
            "--seed",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--trace 1",
            "--workload nope --trace 0",
            "--workload rmat_static --trace 0 --out x.json",
            "--workload rmat_static --trace 0 --spans x.json",
            "--spans x.json",
            "stray",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }
}
