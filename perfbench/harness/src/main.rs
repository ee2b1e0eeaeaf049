//! `kpm-perfbench`: the library-side half of the benchmark in
//! `perfbench/run.py`.
//!
//! Subcommands (each prints one JSON document on stdout):
//!
//! - `check-dos`: correctness gates and `dos_err` for the CSV files written
//!   by `kpm dos` processes, against moments of the exact periodic-lattice
//!   spectrum.
//! - `mix`: the KPNT closed-loop client for the `serve-mix` / `fleet-mix`
//!   workloads, driven by the orchestrator over stdin/stdout, with bit-exact
//!   checks of every completion against solo reference runs.
//! - `layers`: per-layer timings of public library functions (lattice
//!   assembly, memory bandwidth, SpMM, fused Chebyshev steps, tune probe).

mod exact;
mod gates;
mod layers;
mod mix;
mod report;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` options of one subcommand.
pub struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(words: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = words.iter();
        while let Some(w) = it.next() {
            let key = w.strip_prefix("--").ok_or_else(|| format!("expected --key, got '{w}'"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    /// String option, or `default`.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.0.get(key).map_or(default, String::as_str)
    }

    /// Required string option.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    /// Required parsed option.
    pub fn req_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.req(key)?;
        v.parse().map_err(|_| format!("--{key} {v}: not a number"))
    }

    /// Parsed option, or `default`.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: kpm-perfbench check-dos|mix|layers [--key value ...]");
        return ExitCode::from(2);
    };
    let result = Opts::parse(rest).and_then(|opts| match cmd.as_str() {
        "check-dos" => gates::check_dos(&opts),
        "mix" => mix::run(&opts),
        "layers" => layers::run(&opts),
        other => Err(format!("unknown subcommand '{other}'")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kpm-perfbench {cmd}: {e}");
            ExitCode::from(1)
        }
    }
}
