//! A minimal `--flag value` command-line parser for the experiment
//! binaries (keeps the dependency set to the approved list).

use std::collections::HashMap;

/// Parsed flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process's arguments. Each name in `values` (without the
    /// `--`) is a flag that takes the next argument as its value; each name
    /// in `switches` is a bare switch. Anything else is an error naming it,
    /// so a typo fails instead of silently running the default: an unknown
    /// flag, a value flag with no value after it, a switch followed by a
    /// value, and any argument that is neither a flag nor a flag's value.
    pub fn parse_known(values: &[&str], switches: &[&str]) -> Result<Args, String> {
        Args::parse_from(std::env::args().skip(1), values, switches)
    }

    /// [`Args::parse_known`] over an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(
        iter: I,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut items = iter.into_iter().peekable();
        while let Some(item) = items.next() {
            let Some(key) = item.strip_prefix("--") else {
                return Err(format!("unexpected argument {item:?} (flags are --name value)"));
            };
            let value = items.next_if(|next| !next.starts_with("--"));
            if values.contains(&key) {
                let value = value.ok_or_else(|| format!("--{key} needs a value"))?;
                out.flags.insert(key.to_owned(), value);
            } else if switches.contains(&key) {
                if let Some(value) = value {
                    return Err(format!("--{key} takes no value, got {value:?}"));
                }
                out.switches.push(key.to_owned());
            } else {
                let expected: Vec<String> =
                    values.iter().chain(switches).map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown flag --{key} (expected one of: {})",
                    expected.join(", ")
                ));
            }
        }
        Ok(out)
    }

    /// A flag's value parsed into any `FromStr` type, or `default` when the
    /// flag is absent.
    ///
    /// # Errors
    ///
    /// A value that does not parse is an error naming the flag and the
    /// value, never a silent fall-back to `default`.
    pub fn get<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("invalid value {v:?} for --{key}: {e}")),
        }
    }

    /// A flag's raw string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a switch, or a value flag, was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key) || self.flags.contains_key(key)
    }
}

/// Prints a usage error and exits with status 2, the experiment binaries'
/// usage exit code. Generic over the return type so it fits
/// `unwrap_or_else` on any parse result.
pub fn usage_exit<T>(message: String) -> T {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUES: &[&str] = &["seed", "out"];
    const SWITCHES: &[&str] = &["full"];

    fn args(s: &[&str]) -> Result<Args, String> {
        Args::parse_from(s.iter().map(|s| s.to_string()), VALUES, SWITCHES)
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = args(&["--seed", "7", "--full", "--out", "x.json"]).unwrap();
        assert_eq!(a.get::<u64>("seed", 0), Ok(7));
        assert!(a.has("full"));
        assert_eq!(a.get_str("out"), Some("x.json"));
        assert!(!a.has("missing"));
        assert_eq!(a.get::<u64>("missing", 42), Ok(42));
    }

    #[test]
    fn bad_values_are_errors() {
        let a = args(&["--seed", "1O0"]).unwrap();
        let err = a.get::<u64>("seed", 5).unwrap_err();
        assert!(err.contains("\"1O0\" for --seed"), "{err}");
    }

    #[test]
    fn positional_arguments_are_errors() {
        let err = args(&["--seed", "7", "100"]).unwrap_err();
        assert!(err.contains("unexpected argument \"100\""), "{err}");
        assert!(args(&["stray", "--full"]).is_err());
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = args(&["--seed", "7", "--sede", "8"]).unwrap_err();
        assert!(err.contains("unknown flag --sede"), "{err}");
        assert!(err.contains("--seed, --out, --full"), "{err}");
        assert!(args(&["--full", "--bench-only"]).is_err(), "unknown switches too");
        assert!(args(&["--seed=7"]).is_err(), "`=` syntax is not a known flag");
        assert!(args(&[]).is_ok());
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        let err = args(&["--seed"]).unwrap_err();
        assert_eq!(err, "--seed needs a value");
        let err = args(&["--seed", "--full"]).unwrap_err();
        assert_eq!(err, "--seed needs a value", "the next flag is not a value");
        assert!(args(&["--out", "--seed", "3"]).is_err());
    }

    #[test]
    fn a_negative_number_is_a_value_not_a_flag() {
        let a = args(&["--seed", "-1", "--full"]).unwrap();
        assert_eq!(a.get::<i64>("seed", 0), Ok(-1));
        let err = a.get::<u64>("seed", 0).unwrap_err();
        assert!(err.contains("\"-1\" for --seed"), "{err}");
        assert!(a.has("full"));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let a = args(&["--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(a.get::<u64>("seed", 0), Ok(2));
    }

    #[test]
    fn an_empty_argument_is_a_value() {
        let a = args(&["--out", "", "--full"]).unwrap();
        assert_eq!(a.get_str("out"), Some(""));
        let err = a.get::<u64>("out", 0).unwrap_err();
        assert!(err.contains("\"\" for --out"), "{err}");
    }

    #[test]
    fn a_switch_takes_no_value() {
        let err = args(&["--full", "3"]).unwrap_err();
        assert_eq!(err, "--full takes no value, got \"3\"");
        assert!(args(&["--full", "--seed", "3"]).unwrap().has("full"));
    }
}
