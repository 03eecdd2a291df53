//! A small dependency-free argument parser: `--key value` pairs plus flags.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Parsed command line: the subcommand, `--key value` options, and flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// First positional argument.
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument errors with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl Error for ArgError {}

impl Args {
    /// Parses tokens (excluding the program name).
    ///
    /// Options take the next token as their value; `--json`-style flags
    /// are recognized from `flag_names`. `known` lists the options and
    /// flags a command takes, or returns `None` for a command it does not
    /// know (reporting that is left to the caller).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for an option missing its value, an
    /// unexpected positional argument after the command, or an option the
    /// command does not take (naming the ones it does).
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        flag_names: &[&str],
        known: impl Fn(&str) -> Option<Vec<&'static str>>,
    ) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if flag_names.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
                    args.options.insert(name.to_string(), value);
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected argument {tok:?}")));
            }
        }
        if let Some(command) = &args.command {
            if let Some(known) = known(command) {
                let mut given = args.options.keys().chain(&args.flags);
                if let Some(name) = given.find(|name| !known.contains(&name.as_str())) {
                    return Err(ArgError(format!(
                        "unknown option --{name} for {command} (it takes --{})",
                        known.join(", --")
                    )));
                }
            }
        }
        Ok(args)
    }

    /// The string value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of `--name` or a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Parses `--name` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} {v:?} is not valid"))),
        }
    }

    /// True if the flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn any(_: &str) -> Option<Vec<&'static str>> {
        None
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(
            toks("reshard --src-spec S0RR --shape 8x8 --json"),
            &["json"],
            any,
        )
        .unwrap();
        assert_eq!(a.command.as_deref(), Some("reshard"));
        assert_eq!(a.get("src-spec"), Some("S0RR"));
        assert!(a.has_flag("json"));
        assert_eq!(a.get_or("dst-spec", "RRR"), "RRR");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(toks("reshard --src-spec"), &[], any).unwrap_err();
        assert!(e.to_string().contains("src-spec"));
    }

    #[test]
    fn extra_positional_is_an_error() {
        assert!(Args::parse(toks("reshard oops"), &[], any).is_err());
    }

    #[test]
    fn options_a_command_does_not_take_are_errors() {
        let parse = |known: &'static [&'static str]| {
            Args::parse(toks("x --n 7 --json"), &["json"], |_| Some(known.to_vec()))
        };
        assert!(parse(&["n", "json"]).is_ok());
        let e = parse(&["n"]).unwrap_err().to_string();
        assert!(
            e.contains("unknown option --json for x (it takes --n)"),
            "{e}"
        );
    }

    #[test]
    fn parsed_values_with_defaults() {
        let a = Args::parse(toks("x --n 7"), &[], any).unwrap();
        assert_eq!(a.get_parsed("n", 3usize).unwrap(), 7);
        assert_eq!(a.get_parsed("m", 3usize).unwrap(), 3);
        assert!(a.get_parsed::<usize>("n", 0).is_ok());
        let bad = Args::parse(toks("x --n seven"), &[], any).unwrap();
        assert!(bad.get_parsed::<usize>("n", 0).is_err());
    }
}
