//! Hand-rolled flag parsing for the `tpp` binary (no external CLI crate —
//! the workspace's dependency policy allows only the offline set).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--flag value` / `--flag` pairs.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// Flags; boolean flags map to an empty string.
    pub flags: BTreeMap<String, String>,
}

/// Flags that never take a value.
const BOOLEAN_FLAGS: [&str; 3] = ["help", "full", "incremental"];

/// Parses raw arguments (without the program name). Any `--name value`
/// parses; which names a command accepts is checked at dispatch.
///
/// # Errors
/// Returns a message for unknown syntax (flag without name), a missing
/// value, or a flag given more than once.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if name.is_empty() {
                return Err("empty flag name '--'".into());
            }
            let value = if BOOLEAN_FLAGS.contains(&name) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("flag --{name} requires a value"))?
                    .clone()
            };
            if out.flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given more than once"));
            }
        } else if out.command.is_empty() {
            out.command = arg.clone();
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Optional string flag with default.
    #[must_use]
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// Optional parsed numeric flag with default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {raw:?}")),
        }
    }

    /// Optional parsed numeric flag with default, **rejecting zero**: for
    /// count-like knobs where `0` is a user error, not a sentinel (e.g.
    /// `--batch`, `store build --chunk-mb`). The error names the flag and
    /// states the floor.
    pub fn positive_or(&self, name: &str, default: usize) -> Result<usize, String> {
        let value: usize = self.num_or(name, default)?;
        if value == 0 {
            return Err(format!("flag --{name} must be at least 1 (got 0)"));
        }
        Ok(value)
    }

    /// Whether a boolean flag is present.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_command_positionals_and_flags() {
        let p = parse(&strs(&[
            "protect",
            "graph.txt",
            "--budget",
            "10",
            "--motif",
            "triangle",
            "--full",
        ]))
        .unwrap();
        assert_eq!(p.command, "protect");
        assert_eq!(p.positional, vec!["graph.txt"]);
        assert_eq!(p.require("budget").unwrap(), "10");
        assert_eq!(p.num_or("budget", 0usize).unwrap(), 10);
        assert!(p.has("full"));
        assert!(!p.has("incremental"));
    }

    #[test]
    fn defaults_and_errors() {
        let p = parse(&strs(&["stats", "g.txt"])).unwrap();
        assert_eq!(p.get_or("motif", "triangle"), "triangle");
        assert!(p.require("budget").is_err());
        assert_eq!(p.num_or("seed", 7u64).unwrap(), 7);

        assert!(parse(&strs(&["x", "--budget"])).is_err(), "value missing");
        assert!(parse(&strs(&["x", "--"])).is_err(), "empty flag");
    }

    #[test]
    fn a_repeated_flag_is_a_named_error() {
        for argv in [
            &["protect", "g.txt", "--budget", "20", "--budget", "1"][..],
            &[
                "protect", "g.txt", "--budget", "1", "--seed", "2", "--budget", "1",
            ],
            &["stats", "g.txt", "--full", "--full"],
        ] {
            let err = parse(&strs(argv)).unwrap_err();
            let flag = if argv.contains(&"--full") {
                "--full"
            } else {
                "--budget"
            };
            assert_eq!(err, format!("flag {flag} given more than once"), "{argv:?}");
        }
    }

    #[test]
    fn numeric_parse_failure_is_reported() {
        let p = parse(&strs(&["x", "--seed", "abc"])).unwrap();
        let err = p.num_or("seed", 0u64).unwrap_err();
        assert!(err.contains("abc"));
    }

    #[test]
    fn positive_flags_reject_zero_with_a_clear_error() {
        // `--batch 0` (and any other count-like knob) must fail loudly,
        // naming the flag and the floor — not silently clamp or underflow.
        let p = parse(&strs(&["protect", "g.txt", "--batch", "0"])).unwrap();
        let err = p.positive_or("batch", 1).unwrap_err();
        assert!(err.contains("--batch"), "error must name the flag: {err}");
        assert!(
            err.contains("at least 1"),
            "error must state the floor: {err}"
        );

        // Valid values and defaults pass through unchanged.
        let p = parse(&strs(&["protect", "g.txt", "--batch", "8"])).unwrap();
        assert_eq!(p.positive_or("batch", 1).unwrap(), 8);
        let p = parse(&strs(&["protect", "g.txt"])).unwrap();
        assert_eq!(p.positive_or("batch", 1).unwrap(), 1);

        // Garbage still reports the parse failure, not the zero check.
        let p = parse(&strs(&["protect", "g.txt", "--batch", "x"])).unwrap();
        assert!(p.positive_or("batch", 1).unwrap_err().contains('x'));
    }
}
