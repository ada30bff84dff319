//! Flag parsing for the `dpc` command-line tool.
//!
//! The tool deliberately avoids an external argument-parsing dependency: the
//! grammar is small (`--flag value` pairs plus one subcommand) and keeping
//! the workspace's dependency set to the approved list matters more than
//! fancy help output.

use std::collections::BTreeMap;

/// The tool's valueless switches. Every other flag takes a value.
const SWITCHES: [&str; 4] = ["halo", "quiet", "json", "metrics"];

/// A parsed command line: the subcommand name plus `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// All `--flag value` pairs, keyed without the leading dashes.
    flags: BTreeMap<String, String>,
    /// Flags given without a value (e.g. `--halo`).
    switches: Vec<String>,
}

impl ParsedArgs {
    /// Parses a raw argument list.
    ///
    /// Grammar: `<command> (--flag value | --switch)*`. The switches are the
    /// fixed set `--halo`, `--quiet`, `--json` and `--metrics`: a switch
    /// followed by a value, or any other flag without one, is an error
    /// naming the flag.
    pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let mut iter = args.iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| "missing subcommand".to_string())?
            .clone();
        if command.starts_with("--") {
            return Err(format!("expected a subcommand, found flag {command:?}"));
        }
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if name.is_empty() {
                return Err("empty flag name".to_string());
            }
            let value = iter.next_if(|next| !next.starts_with("--"));
            match (SWITCHES.contains(&name), value) {
                (true, None) => switches.push(name.to_string()),
                (true, Some(value)) => {
                    return Err(format!("switch --{name} takes no value, got {value:?}"))
                }
                (false, None) => return Err(format!("flag --{name} needs a value")),
                (false, Some(value)) => {
                    if flags.insert(name.to_string(), value.clone()).is_some() {
                        return Err(format!("flag --{name} given more than once"));
                    }
                }
            }
        }
        Ok(ParsedArgs {
            command,
            flags,
            switches,
        })
    }

    /// The raw string value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional flag parsed into any `FromStr` type.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// A required flag parsed into any `FromStr` type.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.require(name)?.parse().map_err(|_| {
            format!(
                "invalid value {:?} for --{name}",
                self.get(name).unwrap_or("")
            )
        })
    }

    /// An optional flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_parsed(name)?.unwrap_or(default))
    }

    /// Whether a valueless switch was given.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Names of all flags and switches, for unknown-flag validation.
    pub fn all_names(&self) -> Vec<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .collect()
    }

    /// Errors out when a flag outside `allowed` was provided.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for name in self.all_names() {
            if !allowed.contains(&name) {
                return Err(format!(
                    "unknown flag --{name} for `{}` (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let p = ParsedArgs::parse(&args(&[
            "cluster", "--input", "pts.csv", "--dc", "0.5", "--halo",
        ]))
        .unwrap();
        assert_eq!(p.command, "cluster");
        assert_eq!(p.get("input"), Some("pts.csv"));
        assert_eq!(p.require_parsed::<f64>("dc").unwrap(), 0.5);
        assert!(p.has_switch("halo"));
        assert!(!p.has_switch("verbose"));
    }

    #[test]
    fn missing_subcommand_or_leading_flag_is_an_error() {
        assert!(ParsedArgs::parse(&[]).is_err());
        assert!(ParsedArgs::parse(&args(&["--input", "x"])).is_err());
    }

    #[test]
    fn duplicate_flags_and_positionals_are_rejected() {
        assert!(ParsedArgs::parse(&args(&["cluster", "--dc", "1", "--dc", "2"])).is_err());
        assert!(ParsedArgs::parse(&args(&["cluster", "stray"])).is_err());
    }

    #[test]
    fn typed_accessors_validate_values() {
        let p = ParsedArgs::parse(&args(&["generate", "--scale", "abc"])).unwrap();
        assert!(p.require_parsed::<f64>("scale").is_err());
        assert!(p.get_parsed::<f64>("scale").is_err());
        assert_eq!(p.get_or("seed", 7u64).unwrap(), 7);
        assert!(p.require("missing").is_err());
    }

    #[test]
    fn reject_unknown_lists_allowed_flags() {
        let p = ParsedArgs::parse(&args(&["cluster", "--bogus", "1"])).unwrap();
        let err = p.reject_unknown(&["input", "dc"]).unwrap_err();
        assert!(err.contains("--bogus"));
        assert!(err.contains("--input"));
    }

    #[test]
    fn a_switch_given_a_value_is_an_error_naming_it() {
        for switch in SWITCHES {
            let flag = format!("--{switch}");
            let err = ParsedArgs::parse(&args(&["stream", &flag, "yes", "--dc", "1"])).unwrap_err();
            assert!(err.contains(&flag), "{err}");
            assert!(err.contains("takes no value"), "{err}");
            // Last, or before another flag, it is a switch.
            for argv in [
                ["stream", &flag, "--dc", "1"],
                ["stream", "--dc", "1", &flag],
            ] {
                let p = ParsedArgs::parse(&args(&argv)).unwrap();
                assert!(p.has_switch(switch));
                assert_eq!(p.get(switch), None);
            }
        }
    }

    #[test]
    fn a_valued_flag_without_a_value_is_an_error_naming_it() {
        for (argv, flag) in [
            (&["stream", "--dc", "1", "--trace-out"][..], "--trace-out"),
            (&["stream", "--window", "--batch", "50"], "--window"),
            (&["cluster", "--bogus"], "--bogus"),
        ] {
            let err = ParsedArgs::parse(&args(argv)).unwrap_err();
            assert!(err.contains(&format!("flag {flag} needs a value")), "{err}");
        }
    }
}
