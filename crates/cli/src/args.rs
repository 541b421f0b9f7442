//! Tiny dependency-free argument parser for the `cards` CLI.

use std::collections::HashMap;

/// Parsed command line: subcommand, positionals, `--key value` options and
/// `--flag` switches.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// First positional (the subcommand).
    pub command: String,
    /// Remaining positionals.
    pub positional: Vec<String>,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
    /// Bare `--flag`s.
    pub flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // value-taking if the next token exists and is not a flag
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.options.insert(key.to_string(), v);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_empty() {
                out.command = a;
            } else {
                out.positional.push(a);
            }
        }
        if out.command.is_empty() {
            return Err("missing subcommand".into());
        }
        Ok(out)
    }

    /// Option value with default.
    pub fn opt_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parse an option as a number.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, f: &str) -> bool {
        self.flags.iter().any(|x| x == f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = p("run prog.ir --policy max-use --k 50 --verbose");
        assert_eq!(a.command, "run");
        assert_eq!(a.positional, vec!["prog.ir"]);
        assert_eq!(a.opt_or("policy", "linear"), "max-use");
        assert_eq!(a.opt_num("k", 0u32).unwrap(), 50);
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
    }

    #[test]
    fn bad_number_reports_key() {
        let a = p("run --k banana");
        let e = a.opt_num("k", 0u32).unwrap_err();
        assert!(e.contains("--k"));
    }

    #[test]
    fn defaults_apply() {
        let a = p("dsa file.ir");
        assert_eq!(a.opt_or("policy", "linear"), "linear");
        assert_eq!(a.opt_num("k", 77u32).unwrap(), 77);
    }
}
