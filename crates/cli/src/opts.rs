//! Hand-rolled command-line option parsing.
//!
//! Each subcommand declares which option names are boolean flags and which
//! take a value; [`parse`] sorts the raw arguments into those buckets plus
//! positionals.  Values can be attached (`--step=50`) or separate
//! (`--step 50`).  Unknown options are usage errors — a typo must not
//! silently run a different experiment.

use std::collections::{BTreeMap, BTreeSet};

use crate::CliError;

/// Parsed arguments of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Parsed {
    flags: BTreeSet<String>,
    values: BTreeMap<String, String>,
    positionals: Vec<String>,
}

/// Sorts `args` into flags, valued options and positionals according to the
/// subcommand's accepted option lists (names without the `--` prefix).
///
/// # Errors
///
/// Usage error on an unknown option, a valued option without a value, or a
/// repeated option (repeating is reserved for config files, where an axis
/// is meant to accumulate — on the command line it is almost always a typo).
pub fn parse(args: &[String], flags: &[&str], valued: &[&str]) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(stripped) = arg.strip_prefix("--") else {
            parsed.positionals.push(arg.clone());
            continue;
        };
        let (name, attached) = match stripped.split_once('=') {
            Some((name, value)) => (name, Some(value.to_owned())),
            None => (stripped, None),
        };
        if flags.contains(&name) {
            if attached.is_some() {
                return Err(CliError::usage(format!("--{name} does not take a value")));
            }
            if !parsed.flags.insert(name.to_owned()) {
                return Err(CliError::usage(format!("--{name} given twice")));
            }
        } else if valued.contains(&name) {
            let value = match attached {
                Some(value) => value,
                None => iter
                    .next()
                    .cloned()
                    .ok_or_else(|| CliError::usage(format!("--{name} requires a value")))?,
            };
            if parsed.values.insert(name.to_owned(), value).is_some() {
                return Err(CliError::usage(format!("--{name} given twice")));
            }
        } else {
            return Err(CliError::usage(format!("unknown option --{name}")));
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The raw value of an option, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required option's value.
    ///
    /// # Errors
    ///
    /// Usage error when the option is missing.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.value(name)
            .ok_or_else(|| CliError::usage(format!("--{name} is required")))
    }

    /// An `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Usage error when the value does not parse as a finite number.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.optional_f64(name)?.unwrap_or(default))
    }

    /// An `f64` option without a default: `None` when it was not given.
    ///
    /// # Errors
    ///
    /// Usage error when the value does not parse as a finite number.
    pub fn optional_f64(&self, name: &str) -> Result<Option<f64>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Some(v)),
                _ => Err(CliError::usage(format!(
                    "--{name} expects a finite number, got `{text}`"
                ))),
            },
        }
    }

    /// A `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Usage error when the value does not parse as a non-negative integer.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text.parse::<usize>().map_err(|_| {
                CliError::usage(format!(
                    "--{name} expects an unsigned integer, got `{text}`"
                ))
            }),
        }
    }

    /// Rejects stray positionals (all current subcommands are option-only).
    ///
    /// # Errors
    ///
    /// Usage error when positionals are present.
    pub fn no_positionals(&self) -> Result<(), CliError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(stray) => Err(CliError::usage(format!("unexpected argument `{stray}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_flags_values_and_positionals() {
        let parsed = parse(
            &args(&["--fig1", "--step", "50", "--out=report.json", "extra"]),
            &["fig1"],
            &["step", "out"],
        )
        .unwrap();
        assert!(parsed.flag("fig1"));
        assert!(!parsed.flag("other"));
        assert_eq!(parsed.value("step"), Some("50"));
        assert_eq!(parsed.value("out"), Some("report.json"));
        assert_eq!(parsed.positionals, ["extra"]);
        let err = parsed.no_positionals().unwrap_err();
        assert!(err.message.contains("extra"));
        assert_eq!(parsed.f64_or("step", 1.0).unwrap(), 50.0);
        assert_eq!(parsed.f64_or("missing", 1.5).unwrap(), 1.5);
        assert_eq!(parsed.require("out").unwrap(), "report.json");
    }

    #[test]
    fn rejects_unknown_repeated_and_malformed_options() {
        assert!(parse(&args(&["--nope"]), &[], &[]).is_err());
        assert!(parse(&args(&["--a", "--a"]), &["a"], &[]).is_err());
        assert!(parse(&args(&["--v", "1", "--v", "2"]), &[], &["v"]).is_err());
        assert!(parse(&args(&["--v"]), &[], &["v"]).is_err());
        assert!(parse(&args(&["--a=1"]), &["a"], &[]).is_err());
        let parsed = parse(&args(&["--v", "abc"]), &[], &["v"]).unwrap();
        assert!(parsed.f64_or("v", 0.0).is_err());
        assert!(parsed.usize_or("v", 0).is_err());
        let parsed = parse(&args(&["--v", "nan"]), &[], &["v"]).unwrap();
        assert!(parsed.f64_or("v", 0.0).is_err());
    }

    #[test]
    fn missing_required_option_is_a_usage_error() {
        let parsed = parse(&[], &[], &["config"]).unwrap();
        let err = parsed.require("config").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--config"));
    }
}
