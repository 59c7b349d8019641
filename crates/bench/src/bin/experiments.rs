//! The experiment harness binary: regenerates every table and figure of the
//! PREMA paper's evaluation section.
//!
//! ```text
//! experiments [EXPERIMENT] [--runs N] [--seed S]
//!
//! EXPERIMENT: all (default), table1, table2, fig1, fig5, fig6, fig7, fig9,
//!             fig10, fig11, fig12, fig13, fig14, fig15, prediction,
//!             overhead, sensitivity
//! ```

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use npu_sim::NpuConfig;
use prema_bench::suite::SuiteOptions;
use prema_bench::{
    fig01, fig05_06, fig07, fig09, fig10, fig11_15, fig14, overhead, prediction, sensitivity,
    tables,
};
use prema_core::SchedulerConfig;
use prema_workload::colocation::ColocationConfig;
use prema_workload::generator::WorkloadConfig;

struct Options {
    experiment: String,
    runs: usize,
    seed: u64,
}

const USAGE: &str = "usage: experiments [EXPERIMENT] [--runs N] [--seed S]\n\
experiments: all, table1, table2, fig1, fig5, fig6, fig7, fig9, fig10, fig11, \
fig12, fig13, fig14, fig15, prediction, overhead, sensitivity";

/// Parses the arguments after the program name: at most one experiment
/// name plus the flags in [`USAGE`].
fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut experiment = None;
    let mut runs = 5usize;
    let mut seed = 2020u64;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                runs = args
                    .next()
                    .ok_or("--runs requires a value")?
                    .parse()
                    .map_err(|e| format!("invalid --runs value: {e}"))?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(USAGE.to_string());
            }
            other if !other.starts_with('-') => {
                if let Some(first) = experiment.replace(other.to_string()) {
                    return Err(format!(
                        "more than one experiment given ('{first}', '{other}')\n{USAGE}"
                    ));
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(Options {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
        runs,
        seed,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    let options = match parse_args(&argv) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let npu = NpuConfig::paper_default();
    let suite = SuiteOptions {
        runs: options.runs,
        seed: options.seed,
        workload: WorkloadConfig::paper_default(),
        npu: npu.clone(),
    };

    let run_one = |name: &str| -> Option<String> {
        match name {
            "table1" => Some(tables::table1(&npu)),
            "table2" => Some(tables::table2(&SchedulerConfig::paper_default())),
            "fig1" => Some(fig01::report(&npu, &ColocationConfig::paper_default()).1),
            "fig5" => Some(fig05_06::format_figure5(&fig05_06::figure5(
                &npu,
                options.runs,
                options.seed,
            ))),
            "fig6" => Some(fig05_06::format_figure6(&fig05_06::figure6(
                &npu,
                options.runs,
                options.seed,
            ))),
            "fig7" => Some(fig07::report(dnn_models::ModelKind::CnnVggNet, 1000, options.seed).1),
            "fig9" => Some(fig09::report(30, options.seed)),
            "fig10" => Some(fig10::report(&npu).1),
            "fig11" => Some(fig11_15::figure11(&suite).1),
            "fig12" => Some(fig11_15::figure12(&suite).1),
            "fig13" => Some(fig11_15::figure13(&suite).1),
            "fig14" => Some(fig14::report(&npu, options.runs, options.seed).1),
            "fig15" => Some(fig11_15::figure15(&suite).1),
            "prediction" => Some(prediction::report(&npu, options.runs, options.seed).1),
            "overhead" => Some(overhead::report(&npu).1),
            "sensitivity" => Some(sensitivity::report(&npu, options.runs, options.seed)),
            _ => None,
        }
    };

    let all = [
        "table1",
        "table2",
        "fig1",
        "fig5",
        "fig6",
        "fig7",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "prediction",
        "overhead",
        "sensitivity",
    ];

    let mut out = io::stdout().lock();
    let written = if options.experiment == "all" {
        all.iter().try_for_each(|name| {
            eprintln!("[experiments] running {name} ...");
            let report = run_one(name).expect("all experiment names are valid");
            writeln!(out, "{report}\n")
        })
    } else {
        match run_one(&options.experiment) {
            Some(report) => writeln!(out, "{report}"),
            None => {
                eprintln!("unknown experiment '{}'\n{USAGE}", options.experiment);
                return ExitCode::FAILURE;
            }
        }
    };
    match written.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe early (`experiments | head`): it has
        // read all it wanted, so stop quietly.
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("experiments: cannot write the report: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &str) -> Result<Options, String> {
        let argv: Vec<String> = words.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn defaults_to_every_experiment() {
        let options = parse("").unwrap();
        assert_eq!(options.experiment, "all");
        assert_eq!((options.runs, options.seed), (5, 2020));
    }

    #[test]
    fn reads_one_experiment_and_its_flags_in_any_order() {
        for words in ["fig10 --runs 3 --seed 7", "--runs 3 fig10 --seed 7"] {
            let options = parse(words).unwrap();
            assert_eq!(options.experiment, "fig10");
            assert_eq!((options.runs, options.seed), (3, 7));
        }
    }

    #[test]
    fn rejects_a_second_experiment() {
        let err = parse("fig1 table1").err().unwrap();
        assert!(err.contains("'fig1', 'table1'"), "{err}");
        assert!(err.contains(USAGE), "{err}");
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        for words in ["--runs 0", "--runs", "--seed x", "--bogus", "--help"] {
            assert!(parse(words).is_err(), "{words}");
        }
    }
}
