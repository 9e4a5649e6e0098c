//! A small typed flag parser — no external dependency, fully tested.
//!
//! Grammar: `isasgd <command> [--flag value]... [--switch]... [positional]`.
//! Every flag is declared by the command through the typed getters; unknown
//! flags are reported at the end via [`Opts::finish`].

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    /// Free-standing arguments (e.g. input files).
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
    /// Names read through a value getter (`get` and everything on it).
    valued: std::cell::RefCell<Vec<String>>,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, PartialEq)]
pub enum OptError {
    /// Value failed to parse as the expected type.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending raw value.
        value: String,
        /// Expected type label.
        expected: &'static str,
    },
    /// A required flag was absent.
    Required(String),
    /// Flags that no getter asked about.
    Unknown(Vec<String>),
    /// A value flag was given bare: last on the line, or directly
    /// followed by another `--flag`.
    MissingValue(String),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "bad value '{value}' for --{flag} (expected {expected})")
            }
            OptError::Required(k) => write!(f, "missing required flag --{k}"),
            OptError::Unknown(ks) => write!(f, "unknown flags: --{}", ks.join(", --")),
            OptError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
        }
    }
}

impl Opts {
    /// Parses raw arguments. Anything starting with `--` is a flag; if the
    /// next token does not start with `--` it becomes the flag's value,
    /// otherwise the flag is a boolean switch.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Opts {
        let args: Vec<String> = args.into_iter().collect();
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                    continue;
                }
                switches.push(name.to_string());
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Opts {
            positional,
            flags,
            switches,
            consumed: std::cell::RefCell::new(Vec::new()),
            valued: std::cell::RefCell::new(Vec::new()),
        }
    }

    fn note(&self, key: &str) {
        self.consumed.borrow_mut().push(key.to_string());
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<String> {
        self.note(key);
        self.valued.borrow_mut().push(key.to_string());
        self.flags.get(key).cloned()
    }

    /// String flag with default.
    pub fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or_else(|| default.to_string())
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<String, OptError> {
        self.get(key).ok_or_else(|| OptError::Required(key.into()))
    }

    /// Typed optional flag: `None` when absent, so callers can tell an
    /// explicit value from a default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, OptError> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| OptError::BadValue {
                    flag: key.into(),
                    value: v,
                    expected,
                })
            })
            .transpose()
    }

    /// Typed flag with default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, OptError> {
        Ok(self.get_parsed(key, expected)?.unwrap_or(default))
    }

    /// Boolean switch (present or not).
    pub fn switch(&self, key: &str) -> bool {
        self.note(key);
        self.switches.iter().any(|s| s == key)
    }

    /// Errors out if any flag or switch was never consulted — catches
    /// typos like `--thread 4` — or if a value flag was parsed as a bare
    /// switch (`--sampling --quiet`, a trailing `--epochs`), which the
    /// getter could only report as "absent".
    pub fn finish(&self) -> Result<(), OptError> {
        let valued = self.valued.borrow();
        if let Some(bare) = self.switches.iter().find(|s| valued.contains(s)) {
            return Err(OptError::MissingValue(bare.clone()));
        }
        let seen = self.consumed.borrow();
        let unknown: Vec<String> = self
            .flags
            .keys()
            .chain(self.switches.iter())
            .filter(|k| !seen.contains(k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(OptError::Unknown(unknown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(s: &str) -> Opts {
        Opts::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn positional_and_flags() {
        let o = opts("train data.svm --epochs 5 --quiet --algo is-asgd");
        assert_eq!(o.positional, vec!["train", "data.svm"]);
        assert_eq!(o.get("epochs"), Some("5".into()));
        assert_eq!(o.get("algo"), Some("is-asgd".into()));
        assert!(o.switch("quiet"));
        assert!(!o.switch("verbose"));
        assert!(o.finish().is_ok());
    }

    #[test]
    fn typed_defaults_and_errors() {
        let o = opts("--epochs 5 --step nope");
        assert_eq!(o.get_parsed_or("epochs", 1usize, "usize").unwrap(), 5);
        assert_eq!(o.get_parsed_or("threads", 4usize, "usize").unwrap(), 4);
        let e = o.get_parsed_or("step", 0.5f64, "float").unwrap_err();
        assert!(matches!(e, OptError::BadValue { .. }));
        assert_eq!(
            e.to_string(),
            "bad value 'nope' for --step (expected float)"
        );
    }

    #[test]
    fn required_flags() {
        let o = opts("--data x.svm");
        assert_eq!(o.require("data").unwrap(), "x.svm");
        assert_eq!(o.require("model"), Err(OptError::Required("model".into())));
    }

    #[test]
    fn unknown_flags_detected() {
        let o = opts("--epochs 5 --typo 3");
        let _ = o.get("epochs");
        let err = o.finish().unwrap_err();
        assert_eq!(err, OptError::Unknown(vec!["typo".into()]));
    }

    #[test]
    fn switch_followed_by_flag() {
        // `--quiet --epochs 5`: quiet must be a switch, not eat "--epochs".
        let o = opts("--quiet --epochs 5");
        assert!(o.switch("quiet"));
        assert_eq!(o.get("epochs"), Some("5".into()));
    }

    #[test]
    fn value_flag_without_a_value_is_an_error() {
        // `--sampling` swallowed nothing: the next token is a flag.
        let o = opts("train d.svm --sampling --quiet");
        assert_eq!(o.get("sampling"), None);
        assert!(o.switch("quiet"));
        assert_eq!(o.finish(), Err(OptError::MissingValue("sampling".into())));
        assert_eq!(
            o.finish().unwrap_err().to_string(),
            "flag --sampling needs a value"
        );
        // Same for a trailing value flag, through every value getter.
        let o = opts("--epochs");
        assert_eq!(o.get_parsed_or("epochs", 7usize, "usize"), Ok(7));
        assert_eq!(o.finish(), Err(OptError::MissingValue("epochs".into())));
        let o = opts("--model");
        assert_eq!(o.require("model"), Err(OptError::Required("model".into())));
        assert_eq!(o.finish(), Err(OptError::MissingValue("model".into())));
        // A genuine switch stays a switch.
        let o = opts("--quiet");
        assert!(o.switch("quiet"));
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn negative_numbers_are_values() {
        // A value starting with '-' but not '--' is consumed as a value.
        let o = opts("--bias -0.5");
        assert_eq!(o.get("bias"), Some("-0.5".into()));
    }
}
