//! Argument parsing for the experiment suite (`df3-experiments [ids] [--fast]`)
//! and for its `report`, `snapshot`, `resume` and `branch` subcommands.
//!
//! Unknown experiment ids and flags are errors, so a typo fails loudly
//! instead of running nothing and exiting 0.

use crate::run_report::warm_config;
use crate::snapshot_cli::parse_sim_duration;
use simcore::time::SimDuration;

/// Every experiment id the suite accepts, in run order.
const EXPERIMENT_IDS: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20",
];

/// Parsed suite arguments.
#[derive(Debug, Default)]
pub struct SuiteArgs {
    /// Reduced scales (CI-sized).
    pub fast: bool,
    /// Lower-cased experiment ids; empty means the whole suite.
    pub selected: Vec<String>,
}

impl SuiteArgs {
    /// Whether experiment `id` should run.
    pub fn wants(&self, id: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == id)
    }
}

/// Parse the suite's command line (everything after the program name).
pub fn parse_suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let mut out = SuiteArgs::default();
    for a in args {
        if a == "--fast" {
            out.fast = true;
        } else if a.starts_with('-') {
            return Err(format!("unknown flag: {a}"));
        } else {
            let id = a.to_lowercase();
            if !EXPERIMENT_IDS.contains(&id.as_str()) {
                return Err(format!(
                    "unknown experiment id: {a} (want e1..e20, report, snapshot, resume or branch)"
                ));
            }
            out.selected.push(id);
        }
    }
    Ok(out)
}

/// Arguments of the `report`, `snapshot`, `resume` and `branch`
/// subcommands. Each subcommand reads the flags it accepts.
#[derive(Debug, Clone)]
pub struct SubcommandArgs {
    /// `--preset`: a preset name (see `run_report::preset_config`).
    pub preset: String,
    /// `--hours`: the run's horizon.
    pub hours: i64,
    /// `-o`/`--out`: the snapshot file `snapshot` writes, or the
    /// directory `report` writes its documents to.
    pub out: String,
    /// `--check`: verify the exports (`report`) or replay cold and
    /// compare (`resume`).
    pub check: bool,
    /// `--at`: where `snapshot` pauses the run.
    pub at: SimDuration,
    /// `--snapshot`: the file `resume` and `branch` restore.
    pub snapshot: String,
    /// `--sweep`: how many branches `branch` runs.
    pub sweep: usize,
}

impl Default for SubcommandArgs {
    fn default() -> Self {
        SubcommandArgs {
            preset: "district_winter".into(),
            hours: 96,
            out: "warm.df3snap".into(),
            check: false,
            at: SimDuration::from_hours(72),
            snapshot: "warm.df3snap".into(),
            sweep: 8,
        }
    }
}

/// Parse everything after the subcommand token `sub` against the flags
/// it accepts, starting from its defaults. Unknown flags are errors
/// that name the subcommand, so typos fail loudly instead of silently
/// running the default; so are a bad preset, horizon, `--at` or
/// `--sweep`.
pub fn parse_subcommand_args(sub: &str, rest: &[String]) -> Result<SubcommandArgs, String> {
    let common = SubcommandArgs::default();
    let (allowed, mut a): (&[&str], _) = match sub {
        "report" => (
            &["--preset", "--hours", "--out", "--check"],
            SubcommandArgs {
                hours: 24,
                out: ".".into(),
                ..common
            },
        ),
        "snapshot" => (&["--preset", "--hours", "--at", "-o", "--out"], common),
        "resume" => (&["--preset", "--hours", "--snapshot", "--check"], common),
        _ => (&["--preset", "--hours", "--snapshot", "--sweep"], common),
    };
    let mut it = rest.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag) {
            return Err(format!("unknown {sub} flag: {flag}"));
        }
        if flag == "--check" {
            a.check = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let not_an_integer = || format!("{flag}: not an integer: {v}");
        match flag {
            "--preset" => a.preset = v.into(),
            "--hours" => a.hours = v.parse().map_err(|_| not_an_integer())?,
            "--at" => a.at = parse_sim_duration(v)?,
            "--snapshot" => a.snapshot = v.into(),
            "--sweep" => a.sweep = v.parse().map_err(|_| not_an_integer())?,
            // `-o` or `--out`, the only value flags left.
            _ => a.out = v.into(),
        }
    }
    let horizon = warm_config(&a.preset, a.hours)?.horizon;
    if allowed.contains(&"--at") && a.at >= horizon {
        return Err(format!(
            "--at ({:.0} h) must fall inside the {:.0}-hour horizon",
            a.at.as_hours_f64(),
            horizon.as_hours_f64()
        ));
    }
    if a.sweep == 0 {
        return Err("--sweep must be at least 1".into());
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SuiteArgs, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_suite_args(&args)
    }

    #[test]
    fn parses_ids_and_fast() {
        let a = parse(&["E1", "--fast", "e20"]).unwrap();
        assert!(a.fast);
        assert_eq!(a.selected, ["e1", "e20"]);
        assert!(a.wants("e20") && !a.wants("e2"));
        let all = parse(&[]).unwrap();
        assert!(!all.fast && EXPERIMENT_IDS.iter().all(|id| all.wants(id)));
    }

    #[test]
    fn rejects_unknown_ids_and_flags() {
        for bad in [
            &["e99"][..],
            &["bench"],
            &["--fsat"],
            &["e1", "bench", "--fast"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
