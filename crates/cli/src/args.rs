//! Minimal flag parser for the CLI (no external dependencies).
//!
//! Supports `--name value`, `--name=value` and boolean `--flag` options.

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Default, Clone)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Options {
    /// Parses arguments. `bool_flags` lists the options that take no value.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        bool_flags: &[&str],
    ) -> Result<Self, ParseError> {
        let mut out = Options::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    out.values.insert(key.to_string(), value.to_string());
                } else if bool_flags.contains(&name) {
                    out.flags.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ParseError(format!("--{name} needs a value")))?;
                    out.values.insert(name.to_string(), value);
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// A `u64` option with a default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ParseError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name}: '{v}' is not an integer"))),
        }
    }

    /// A string option.
    pub fn string(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// True when the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], flags: &[&str]) -> Options {
        Options::parse(args.iter().map(ToString::to_string), flags).unwrap()
    }

    #[test]
    fn values_and_flags() {
        let o = parse(&["--banks", "16", "--nc=4", "--alone", "extra"], &["alone"]);
        assert_eq!(o.u64_or("banks", 0).unwrap(), 16);
        assert_eq!(o.u64_or("nc", 0).unwrap(), 4);
        assert!(o.flag("alone"));
        assert!(!o.flag("other"));
        assert_eq!(o.positional(), &["extra".to_string()]);
    }

    #[test]
    fn defaults() {
        let o = parse(&["--d1", "3"], &[]);
        assert_eq!(o.u64_or("d2", 7).unwrap(), 7);
    }

    #[test]
    fn bad_integer_rejected() {
        let o = parse(&["--banks", "many"], &[]);
        assert!(o.u64_or("banks", 1).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        let err = Options::parse(vec!["--banks".to_string()], &[]).unwrap_err();
        assert!(err.0.contains("--banks"));
    }
}
