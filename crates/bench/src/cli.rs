//! Argument parsing for the experiment suite (`df3-experiments [ids] [--fast]`).
//!
//! Unknown experiment ids and flags are errors, so a typo fails loudly
//! instead of running nothing and exiting 0.

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
