//! Command-line flags for the daemons (`orsp-proxy`, `orsp-replicad`).
//!
//! A binary hands [`Flags::parse`] the list of flags it defines; argv is
//! checked against that list once, up front, so a misspelt flag or a
//! value-flag with nothing after it stops the process before it binds
//! instead of silently serving with a default.

use std::str::FromStr;

/// One flag a binary defines: its name and, for a flag that takes a
/// value, the placeholder the usage line prints for it. An empty
/// placeholder marks a switch that takes no value.
pub type FlagSpec = (&'static str, &'static str);

/// A binary's argv, checked against the flags it defines.
#[derive(Debug)]
pub struct Flags {
    usage: String,
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Check `args` (argv without the program name) against `defined`.
    /// The error is the usage text, led by what was wrong.
    pub fn parse(
        program: &str,
        defined: &[FlagSpec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut usage = format!("usage: {program}");
        for (name, placeholder) in defined {
            if placeholder.is_empty() {
                usage.push_str(&format!(" [{name}]"));
            } else {
                usage.push_str(&format!(" [{name} {placeholder}]"));
            }
        }
        let mut given = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let Some(&(name, placeholder)) = defined.iter().find(|(name, _)| *name == arg) else {
                return Err(format!("unknown flag {arg}\n{usage}"));
            };
            let value = if placeholder.is_empty() {
                String::new()
            } else {
                // No value is spelt like a flag, so `--pool --listen A`
                // is a missing value, not a pool size of "--listen".
                match args.next_if(|next| !next.starts_with("--")) {
                    Some(value) => value,
                    None => return Err(format!("{name} takes a value\n{usage}")),
                }
            };
            given.push((name, value));
        }
        Ok(Flags { usage, given })
    }

    /// [`Flags::parse`] over this process's argv; on a bad command line
    /// prints the problem and the usage to stderr and exits 2.
    pub fn from_env(program: &str, defined: &[FlagSpec]) -> Flags {
        Flags::parse(program, defined, std::env::args().skip(1)).unwrap_or_else(|problem| {
            eprintln!("{problem}");
            std::process::exit(2)
        })
    }

    /// Every value given for `name`, in argv order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The (first) value given for `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value given for `name`, parsed as `T`; a value that does not
    /// parse is a usage error.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| self.usage_error(&format!("{name}: bad value {v}")))
        })
    }

    /// Print `problem` and the usage to stderr and exit 2 — for what
    /// only the binary can check (a required flag, an enumerated value).
    pub fn usage_error(&self, problem: &str) -> ! {
        eprintln!("{problem}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// A tracer seed no other process shares. The library default is fixed
/// (tests pin ids), but a proxy and its backends must never mint
/// colliding trace ids or the trace join would fuse unrelated traces.
pub fn process_trace_seed() -> u64 {
    (std::process::id() as u64) << 32
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFINED: &[FlagSpec] =
        &[("--listen", "ADDR"), ("--backend", "ADDR"), ("--pool", "N"), ("--internal", "")];

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse("prog", DEFINED, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defined_flags_are_accepted_with_their_values() {
        let flags =
            parse(&["--backend", "a:1", "--pool", "8", "--internal", "--backend", "-"]).unwrap();
        assert_eq!(flags.all("--backend").collect::<Vec<_>>(), ["a:1", "-"]);
        assert_eq!(flags.value("--backend"), Some("a:1"));
        assert_eq!(flags.parsed::<usize>("--pool"), Some(8));
        assert_eq!(flags.parsed::<u16>("--listen"), None);
        assert_eq!(flags.value("--listen"), None);
        assert!(flags.has("--internal"));
        assert!(!parse(&[]).unwrap().has("--internal"));
    }

    #[test]
    fn an_undefined_flag_is_refused_with_usage() {
        let problem = parse(&["--pool", "8", "--backnd", "a:1"]).unwrap_err();
        assert!(problem.starts_with("unknown flag --backnd\nusage: prog [--listen ADDR]"));
        assert!(problem.ends_with("[--pool N] [--internal]"), "{problem}");
        // A stray value is no flag either.
        assert!(parse(&["--internal", "yes"]).unwrap_err().starts_with("unknown flag yes"));
    }

    #[test]
    fn a_value_flag_with_no_value_is_refused() {
        assert!(parse(&["--pool"]).unwrap_err().starts_with("--pool takes a value\nusage:"));
        // The next flag is not swallowed as the value.
        assert!(parse(&["--pool", "--internal"]).unwrap_err().starts_with("--pool takes a value"));
    }
}
