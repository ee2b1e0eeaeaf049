//! Minimal `--key value` / `--flag` argument parser (no external
//! dependencies, per the workspace policy).

use std::collections::BTreeMap;
use std::fmt;

/// Argument parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--key` had no value.
    MissingValue(String),
    /// A positional argument appeared where none is accepted.
    UnexpectedPositional(String),
    /// A value failed to parse.
    BadValue {
        /// Offending key.
        key: String,
        /// Raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required key was absent.
    Required(String),
    /// A `--key` that no command reads (a typo would otherwise silently
    /// run the defaults).
    UnknownOption(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "--{k} needs a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument: {p}"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "--{key} {value}: expected {expected}")
            }
            ArgError::Required(k) => write!(f, "missing required option --{k}"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k} (see `kpm help`)"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` options plus boolean flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Keys that are boolean flags (no value).
const FLAGS: &[&str] = &["full", "help", "no-locality", "no-tune", "once", "quiet", "stats"];

/// Keys that take a value: every `--key` some command reads. Anything
/// outside this list and [`FLAGS`] is an [`ArgError::UnknownOption`].
const KEYS: &[&str] = &[
    "addr",
    "alpha",
    "backoff-ms",
    "bc",
    "beta",
    "bounds",
    "cache-capacity",
    "cache-dir",
    "device",
    "disorder",
    "dseed",
    "exec",
    "format",
    "hopping",
    "inventory-cap",
    "jobs",
    "journal",
    "kernel",
    "kill-after",
    "lambda",
    "lattice",
    "listen",
    "local-workers",
    "max-inflight",
    "metrics-every-secs",
    "momenta",
    "moments",
    "out",
    "precision",
    "profile-store",
    "queue",
    "random",
    "realizations",
    "refine",
    "resolution",
    "retries",
    "seed",
    "sets",
    "shards",
    "site",
    "spec",
    "steps",
    "storage",
    "stream",
    "threads",
    "time",
    "timeout-secs",
    "trace",
    "workers",
];

impl Args {
    /// Parses raw arguments (after the subcommand).
    ///
    /// # Errors
    /// [`ArgError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let (args, positionals) = Self::parse_with_positionals(raw)?;
        match positionals.into_iter().next() {
            None => Ok(args),
            Some(p) => Err(ArgError::UnexpectedPositional(p)),
        }
    }

    /// Like [`Args::parse`], but collects bare (non `--key`) arguments
    /// instead of rejecting them — for commands that take positionals, like
    /// `kpm batch <jobs-file>`.
    ///
    /// # Errors
    /// [`ArgError`] on malformed or unknown `--key` options.
    pub fn parse_with_positionals<I: IntoIterator<Item = String>>(
        raw: I,
    ) -> Result<(Self, Vec<String>), ArgError> {
        let mut out = Args::default();
        let mut positionals = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if FLAGS.contains(&key) {
                    out.flags.push(key.to_string());
                } else if !KEYS.contains(&key) {
                    return Err(ArgError::UnknownOption(key.into()));
                } else {
                    let v = iter.next().ok_or_else(|| ArgError::MissingValue(key.into()))?;
                    out.values.insert(key.to_string(), v);
                }
            } else {
                positionals.push(a);
            }
        }
        Ok((out, positionals))
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Sets (or overwrites) a value — for commands that fold a positional
    /// argument into a keyed option, like `kpm tune <lattice>`.
    pub fn set(&mut self, key: &str, value: &str) {
        self.values.insert(key.to_string(), value.to_string());
    }

    /// `true` if the flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parsed value with a default.
    ///
    /// # Errors
    /// [`ArgError::BadValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.into(),
                value: v.into(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Required parsed value.
    ///
    /// # Errors
    /// [`ArgError::Required`] if absent, [`ArgError::BadValue`] if
    /// unparsable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self.get(key).ok_or_else(|| ArgError::Required(key.into()))?;
        v.parse().map_err(|_| ArgError::BadValue {
            key: key.into(),
            value: v.into(),
            expected: std::any::type_name::<T>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = parse(&["--moments", "256", "--full", "--seed", "7"]).unwrap();
        assert_eq!(a.get("moments"), Some("256"));
        assert!(a.flag("full"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get_or::<usize>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.get_or::<usize>("moments", 128).unwrap(), 128);
        assert_eq!(a.get_or::<f64>("padding", 0.01).unwrap(), 0.01);
    }

    #[test]
    fn missing_value_rejected() {
        match parse(&["--moments"]) {
            Err(ArgError::MissingValue(k)) => assert_eq!(k, "moments"),
            other => panic!("expected MissingValue, got {other:?}"),
        }
    }

    #[test]
    fn unknown_options_rejected() {
        for words in [&["--bogus-flag", "3"][..], &["--recursion", "doubling"], &["--exce", "rows"]]
        {
            let key = words[0].trim_start_matches("--");
            assert_eq!(parse(words).unwrap_err(), ArgError::UnknownOption(key.into()));
        }
        let e = parse(&["--moments", "16", "--bogus-flag", "3"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown option --bogus-flag (see `kpm help`)");
    }

    #[test]
    fn positional_rejected() {
        assert!(matches!(parse(&["oops"]), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn positionals_collected_when_requested() {
        let raw = ["jobs.txt", "--workers", "2", "more"].iter().map(|s| s.to_string());
        let (args, positionals) = Args::parse_with_positionals(raw).unwrap();
        assert_eq!(positionals, vec!["jobs.txt".to_string(), "more".to_string()]);
        assert_eq!(args.get("workers"), Some("2"));
    }

    #[test]
    fn bad_value_reports_key() {
        let a = parse(&["--moments", "many"]).unwrap();
        let e = a.require::<usize>("moments").unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        assert!(e.to_string().contains("moments"));
    }

    #[test]
    fn required_missing_reports() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.require::<usize>("site").unwrap_err(), ArgError::Required("site".into()));
    }
}
