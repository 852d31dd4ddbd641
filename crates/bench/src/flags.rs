//! Strict command-line flags for the bench binaries: an unknown flag, a
//! flag without its value, or a value that does not parse is an error
//! (message on stderr, exit code 2) — never a silent fall-back to the
//! default.

use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

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
        Flags { usage, args: std::env::args().skip(1).collect() }
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
        token
            .parse()
            .unwrap_or_else(|_| self.fail(format_args!("{flag} expects a valid value, got {token:?}")))
    }

    /// The value of `--flag VALUE`, if the flag was given.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let token = self.take(flag)?;
        Some(self.parse(flag, &token))
    }

    /// The entries of `--flag A,B,C`, if the flag was given; every entry
    /// must parse.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Option<Vec<T>> {
        let token = self.take(flag)?;
        Some(token.split(',').map(|t| self.parse(flag, t)).collect())
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
