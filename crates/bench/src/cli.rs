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
    /// Parses the process's arguments. `--key value` pairs become flags;
    /// bare `--key` (followed by another flag or nothing) become switches.
    /// Only the names in `known` (without the `--`) are accepted: any other
    /// flag, and any argument that is neither a flag nor a flag's value, is
    /// an error naming it, so a typo fails instead of silently running the
    /// default.
    pub fn parse_known(known: &[&str]) -> Result<Args, String> {
        Args::parse_from(std::env::args().skip(1), known)
    }

    /// [`Args::parse_known`] over an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(
        iter: I,
        known: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let items: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < items.len() {
            let item = &items[i];
            if let Some(key) = item.strip_prefix("--") {
                if !known.contains(&key) {
                    let expected: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                    return Err(format!(
                        "unknown flag --{key} (expected one of: {})",
                        expected.join(", ")
                    ));
                }
                let next_is_value = items.get(i + 1).map(|n| !n.starts_with("--")).unwrap_or(false);
                if next_is_value {
                    out.flags.insert(key.to_owned(), items[i + 1].clone());
                    i += 2;
                } else {
                    out.switches.push(key.to_owned());
                    i += 1;
                }
            } else {
                return Err(format!("unexpected argument {item:?} (flags are --name value)"));
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

    /// Whether a bare switch was present.
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

    const KNOWN: &[&str] = &["seed", "full", "out"];

    fn args(s: &[&str]) -> Result<Args, String> {
        Args::parse_from(s.iter().map(|s| s.to_string()), KNOWN)
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
        assert!(err.contains("--seed, --full, --out"), "{err}");
        assert!(args(&["--full", "--bench-only"]).is_err(), "unknown switches too");
        assert!(args(&["--seed=7"]).is_err(), "`=` syntax is not a known flag");
        assert!(args(&[]).is_ok());
    }
}
