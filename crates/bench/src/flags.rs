//! Strict command-line flags for the bench binaries: an unknown flag, a
//! flag without its value, a value that does not parse or one outside
//! the flag's range is an error (message on stderr, exit code 2) —
//! never a silent fall-back to the default or a panic mid-run.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::process::exit;
use std::str::FromStr;

/// The scales `dlb_workloads::Dataset::generate` accepts: `(0, 1]`.
pub const DATASET_SCALE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Included(1.0));

/// `range` in interval notation, e.g. `[2, inf)` or `(0, 1]`.
fn interval<T: Display>(range: &impl RangeBounds<T>) -> String {
    let lo = match range.start_bound() {
        Bound::Included(a) => format!("[{a}"),
        Bound::Excluded(a) => format!("({a}"),
        Bound::Unbounded => "(-inf".to_string(),
    };
    let hi = match range.end_bound() {
        Bound::Included(b) => format!("{b}]"),
        Bound::Excluded(b) => format!("{b})"),
        Bound::Unbounded => "inf)".to_string(),
    };
    format!("{lo}, {hi}")
}

/// The arguments not yet claimed by a flag. Each accessor removes what
/// it recognizes; [`Flags::finish`] rejects whatever is left.
pub struct Flags {
    usage: &'static str,
    args: Vec<String>,
}

impl Flags {
    /// The process's arguments (program name dropped). `usage` is
    /// printed with every error.
    pub fn from_env(usage: &'static str) -> Self {
        Flags {
            usage,
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Rejects the command line: `msg` and the usage on stderr, exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}\nusage: {}", self.usage);
        exit(2);
    }

    /// Removes `flag` and the token after it, returning that token.
    fn take(&mut self, flag: &str) -> Option<String> {
        let i = self.args.iter().position(|a| a == flag)?;
        if i + 1 >= self.args.len() {
            self.fail(format_args!("{flag} expects a value"));
        }
        let value = self.args.remove(i + 1);
        self.args.remove(i);
        Some(value)
    }

    fn parse<T: FromStr>(&self, flag: &str, token: &str) -> T {
        token.parse().unwrap_or_else(|_| {
            self.fail(format_args!("{flag} expects a valid value, got {token:?}"))
        })
    }

    /// [`Self::parse`], then rejects a value outside `range`.
    fn parse_in<T, R>(&self, flag: &str, token: &str, range: &R) -> T
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        let value = self.parse(flag, token);
        if !range.contains(&value) {
            self.fail(format_args!(
                "{flag} must be in {}, got {value}",
                interval(range)
            ));
        }
        value
    }

    /// The value of `--flag VALUE`, if the flag was given.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let token = self.take(flag)?;
        Some(self.parse(flag, &token))
    }

    /// The value of `--flag VALUE`, if the flag was given; it must lie
    /// in `range`.
    pub fn value_in<T, R>(&mut self, flag: &str, range: R) -> Option<T>
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        let token = self.take(flag)?;
        Some(self.parse_in(flag, &token, &range))
    }

    /// The entries of `--flag A,B,C`, if the flag was given; every entry
    /// must parse and lie in `range`.
    pub fn list<T, R>(&mut self, flag: &str, range: R) -> Option<Vec<T>>
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        let token = self.take(flag)?;
        Some(
            token
                .split(',')
                .map(|t| self.parse_in(flag, t, &range))
                .collect(),
        )
    }

    /// Whether the valueless `--flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != flag);
        self.args.len() != before
    }

    /// Ends parsing: any argument no accessor claimed is an error.
    pub fn finish(self) {
        if let Some(unknown) = self.args.first() {
            self.fail(format_args!("unknown argument {unknown:?}"));
        }
    }
}
