//! `df3-experiments` — regenerate every table/figure of `EXPERIMENTS.md`.
//!
//! ```text
//! df3-experiments            # run the whole suite
//! df3-experiments e1 e4 e13  # run selected experiments
//! df3-experiments --fast     # reduced scales (CI-sized)
//! df3-experiments report --preset district_winter --hours 24 --out runs/
//!                            # one instrumented run → JSONL + Chrome trace + Prometheus
//! df3-experiments snapshot --preset district_winter --at 72h -o warm.df3snap
//! df3-experiments resume   --preset district_winter --snapshot warm.df3snap --check
//! df3-experiments branch   --preset district_winter --snapshot warm.df3snap --sweep 32
//! ```

use simcore::report::Table;
use std::env;
use std::time::Instant;

/// Run subcommand `sub` on its arguments. The outer error is a bad
/// argument (exit 2, as the suite's), the inner one a failed run
/// (exit 1).
fn subcommand(sub: &str, rest: &[String]) -> Result<Result<Table, String>, String> {
    use bench::{run_report as report, snapshot_cli as snap};
    Ok(match sub {
        "report" => report::run(&report::parse_args(rest)?),
        "snapshot" => snap::run_snapshot(&snap::parse_snapshot_args(rest)?),
        "resume" => snap::run_resume(&snap::parse_resume_args(rest)?),
        _ => snap::run_branch(&snap::parse_branch_args(rest)?),
    })
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Some(sub @ ("report" | "snapshot" | "resume" | "branch")) =
        args.first().map(String::as_str)
    {
        let t0 = Instant::now();
        let (e, code) = match subcommand(sub, &args[1..]) {
            Ok(Ok(table)) => {
                println!("{}", table.render());
                println!("done in {:.1} s", t0.elapsed().as_secs_f64());
                return;
            }
            Ok(Err(e)) => (e, 1),
            Err(e) => (e, 2),
        };
        eprintln!("df3-experiments {sub}: {e}");
        std::process::exit(code);
    }
    let suite = match bench::cli::parse_suite_args(&args) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("df3-experiments: {e}");
            std::process::exit(2);
        }
    };
    let fast = suite.fast;
    let want = |id: &str| suite.wants(id);
    let seed = 0xDF3_2018;

    println!("df3-experiments — reproducing Ngoko et al., IPDPS Workshops 2018");
    println!("mode: {}\n", if fast { "fast (CI scale)" } else { "full" });
    let t0 = Instant::now();

    if want("e1") {
        let (_, table) = bench::e01_figure4::run(if fast { 8 } else { 200 }, seed);
        println!("{}", table.render());
    }
    if want("e2") {
        let (_, table) = bench::e02_pue::run(1_000, 30);
        println!("{}", table.render());
    }
    if want("e3") {
        let (_, table) = bench::e03_flows::run(if fast { 2 } else { 24 }, seed);
        println!("{}", table.render());
    }
    if want("e4") {
        let loads: &[f64] = if fast {
            &[0.5, 6.0]
        } else {
            &[0.5, 1.0, 2.0, 4.0, 6.0, 8.0]
        };
        let (_, table) = bench::e04_arch::run(loads, if fast { 2 } else { 6 }, seed);
        println!("{}", table.render());
    }
    if want("e5") {
        let (_, table) = bench::e05_offload::run(if fast { 6 } else { 12 }, 10.0, seed);
        println!("{}", table.render());
    }
    if want("e6") {
        let (_, table) = bench::e06_seasonality::run(if fast { 4 } else { 16 }, seed);
        println!("{}", table.render());
    }
    if want("e7") {
        let (_, table) = bench::e07_prediction::run(if fast { 300 } else { 500 }, seed);
        println!("{}", table.render());
    }
    if want("e8") {
        let (_, table) = bench::e08_uhi::run(
            bench::e08_uhi::DEFAULT_SITES,
            bench::e08_uhi::DEFAULT_UNIT_W,
        );
        println!("{}", table.render());
    }
    if want("e9") {
        let (_, table) = bench::e09_render_year::run(if fast { 0.02 } else { 0.1 }, seed);
        println!("{}", table.render());
    }
    if want("e10") {
        let (_, table) = bench::e10_economics::run(500, 2_000_000.0);
        println!("{}", table.render());
    }
    if want("e11") {
        let (_, table) =
            bench::e11_alarm::run(if fast { 4 } else { 12 }, if fast { 1 } else { 6 }, seed);
        println!("{}", table.render());
    }
    if want("e12") {
        let (_, table) = bench::e12_hardware::run();
        println!("{}", table.render());
    }
    if want("e13") {
        let (_, table) = bench::e13_regulator::run();
        println!("{}", table.render());
        println!("{}", bench::e13_regulator::energy_table().render());
    }
    if want("e14") {
        let (_, table) = bench::e14_alternatives::run(if fast { 2 } else { 12 }, seed);
        println!("{}", table.render());
    }
    if want("e15") {
        let (_, table) = bench::e15_boilers::run(seed);
        println!("{}", table.render());
    }
    if want("e16") {
        let (_, table) = bench::e16_resilience::run(if fast { 6 } else { 24 }, seed);
        println!("{}", table.render());
    }
    if want("e17") {
        let (_, table) = bench::e17_mining::run(seed);
        println!("{}", table.render());
    }
    if want("e18") {
        let (_, table) = bench::e18_aging::run(if fast { 2_000 } else { 20_000 }, seed);
        println!("{}", table.render());
    }
    if want("e19") {
        let (_, table) = bench::e19_coupling::run();
        println!("{}", table.render());
    }
    if want("e20") {
        let (_, table) = bench::e20_chaos::run(if fast { 6 } else { 24 }, seed);
        println!("{}", table.render());
    }

    println!("done in {:.1} s", t0.elapsed().as_secs_f64());
}
