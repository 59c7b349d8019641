//! The bench driver: runs one sweep, writes its JSON report, and gates the
//! report against a committed baseline (`throughput --help` lists the
//! sub-commands and their flags).
//!
//! Each sub-command is one row of [`COMMANDS`]: its name, its usage line
//! (which is also the set of flags it accepts), its default report path
//! (the committed baseline's name), its gate list, and a run function. The
//! run function lays the given flags over its sweep's `baseline()` options,
//! validates them with the sweep's own `validate()`, runs the sweep and
//! builds the report. The driver owns everything else: one flag parser, one
//! report writer (stdout and `--out`), one `--check-baseline` that evaluates
//! the gates against the parsed baseline, one GitHub Actions `::error` /
//! step-summary path for failed gates, and the `--trace-out` Perfetto
//! export.
//!
//! Every report carries only figures that repeat exactly: outcome digests,
//! serving metrics, and a `work` object counting what the program did
//! (scheduler wakeups, quanta skipped, heap pushes, index re-keys, cache
//! hits, ...). Its gates compare those exactly, so none of them reads a
//! clock; wall-clock questions belong to the host-time benchmark under
//! `hostbench/`.
//!
//! The suite (no sub-command) runs the paper's policy-comparison grid on
//! the serial, uncached reference path and on the plan-cached, parallel
//! fast path and requires bit-identical outcomes. `trace` writes one traced
//! combined-fault scenario instead of a report.

use std::env;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use prema_bench::cluster::{
    cell_of, run_cluster_sweep, ClusterCell, ClusterSweepOptions, DispatchMode,
};
use prema_bench::faults::{FaultCell, FaultSweepOptions};
use prema_bench::fig11_15::{fig11_configs, fig12_configs};
use prema_bench::json::{self, Json};
use prema_bench::migration::{MigrationCell, MigrationSweepOptions};
use prema_bench::object;
use prema_bench::paired::{paired_wins, run_paired, sweep_hash, PairedCell, PairedSweep};
use prema_bench::partition::{PartitionCell, PartitionSweepOptions};
use prema_bench::scale::{self, ScaleCell, ScaleSweepOptions};
use prema_bench::suite::{run_grid_instrumented, run_grid_reference, SuiteOptions};
use prema_bench::trace::{run_trace_scenario, verify_reconciliation, TraceScenarioOptions};
use prema_cluster::CountingSink;
use prema_core::plan::plan_cache;
use prema_core::{OutcomeSummary, SchedulerConfig, SimOutcome};

/// The parsed flags; `None` keeps the sweep's baseline value.
#[derive(Debug, Default)]
struct Args {
    runs: Option<usize>,
    seed: Option<u64>,
    nodes: Option<usize>,
    node_counts: Option<Vec<usize>>,
    heap_only: bool,
    rho: Option<f64>,
    duration_ms: Option<f64>,
    out: Option<String>,
    check_baseline: Option<String>,
    trace_out: Option<String>,
}

/// Overrides an option with its flag's value, when the flag was given.
fn set<T: Clone>(slot: &mut T, flag: &Option<T>) {
    if let Some(value) = flag {
        *slot = value.clone();
    }
}

/// One `--check-baseline` gate, as data.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// `Same(key, scope)`: the value under `key` equals the baseline's. An
    /// object is compared leaf by leaf, and every leaf that differs fails
    /// on its own, named by its path.
    Same(&'static str, Scope),
    /// `AtLeast(key, min)`: the count under `key` is at least `min`.
    AtLeast(&'static str, u64),
    /// `True(key)`: the flag under `key` is true. The one gate that also
    /// runs without `--check-baseline`.
    True(&'static str),
}

/// Where a [`Gate::Same`] reads its key.
#[derive(Debug, Clone, Copy)]
enum Scope {
    /// At the top of the report.
    Top,
    /// At the top of the report, and only when the values under this other
    /// key match too; skipped otherwise.
    When(&'static str),
    /// `Rows(list, id)`: in each row of the `list` array, against the
    /// baseline row with the same `id`; rows the baseline lacks are skipped.
    Rows(&'static str, &'static str),
}

const HASH: Gate = Gate::Same("sweep_hash", Scope::Top);
const WORK: Gate = Gate::Same("work", Scope::Top);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pass,
    Skip,
    Fail,
}

/// One gate's verdict on one metric.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    status: Status,
    metric: String,
    expected: String,
    actual: String,
}

impl Verdict {
    fn new(pass: bool, metric: impl Into<String>, expected: String, actual: String) -> Self {
        let status = if pass { Status::Pass } else { Status::Fail };
        let metric = metric.into();
        Verdict {
            status,
            metric,
            expected,
            actual,
        }
    }
}

/// A value for a message: strings bare, `missing` when absent.
fn shown(value: Option<&Json>) -> String {
    match value {
        Some(Json::Str(text)) => text.clone(),
        Some(value) => value.to_string(),
        None => "missing".into(),
    }
}

fn rows<'a>(doc: &'a Json, list: &str) -> &'a [Json] {
    doc.get(list).and_then(Json::as_array).unwrap_or(&[])
}

/// The number of leaves (non-object values) under `value`.
fn leaves(value: &Json) -> usize {
    match value {
        Json::Object(fields) => fields.iter().map(|(_, value)| leaves(value)).sum(),
        _ => 1,
    }
}

/// `(path, expected, actual)` for every leaf under `path` where `actual`
/// differs from `expected` or is missing; objects are walked key by key,
/// the measured report's keys first.
fn differences(
    path: &str,
    actual: Option<&Json>,
    expected: Option<&Json>,
) -> Vec<(String, String, String)> {
    match (actual, expected) {
        (Some(measured @ Json::Object(fields)), Some(base @ Json::Object(base_fields))) => {
            let missing = base_fields
                .iter()
                .filter(|(key, _)| measured.get(key).is_none());
            let keys = fields.iter().chain(missing).map(|(key, _)| key);
            keys.flat_map(|key| {
                differences(&format!("{path}.{key}"), measured.get(key), base.get(key))
            })
            .collect()
        }
        _ if actual.is_some() && actual == expected => Vec::new(),
        _ => vec![(path.to_string(), shown(expected), shown(actual))],
    }
}

/// A [`Gate::Same`]'s verdicts on one row (`suffix` names it; empty for
/// the whole report): one pass, or one failure per leaf that differs.
fn same(key: &str, suffix: &str, actual: Option<&Json>, expected: Option<&Json>) -> Vec<Verdict> {
    let diffs = differences(key, actual, expected);
    if !diffs.is_empty() {
        let fail = |(path, expected, actual)| {
            Verdict::new(false, format!("{path}{suffix}"), expected, actual)
        };
        return diffs.into_iter().map(fail).collect();
    }
    let metric = format!("{key}{suffix}");
    vec![match actual {
        Some(object @ Json::Object(_)) => {
            let n = leaves(object);
            Verdict::new(
                true,
                metric,
                format!("the baseline's {n}"),
                format!("{n} counts"),
            )
        }
        _ => Verdict::new(true, metric, shown(expected), shown(actual)),
    }]
}

/// Evaluates `gates` on a measured report against a parsed baseline.
/// Without a baseline only [`Gate::True`] runs.
fn check(gates: &[Gate], measured: &Json, baseline: Option<&Json>) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for &gate in gates {
        match (gate, baseline) {
            (Gate::True(key), _) => {
                let value = measured.get(key);
                let pass = value == Some(&Json::Bool(true));
                verdicts.push(Verdict::new(pass, key, "true".into(), shown(value)));
            }
            (Gate::AtLeast(key, min), Some(_)) => {
                let value = measured.get(key);
                let pass = value
                    .and_then(Json::as_f64)
                    .is_some_and(|n| n >= min as f64);
                verdicts.push(Verdict::new(pass, key, format!(">= {min}"), shown(value)));
            }
            (Gate::Same(key, scope), Some(base)) => {
                let skip = |metric, expected, actual| Verdict {
                    status: Status::Skip,
                    metric,
                    expected,
                    actual,
                };
                match scope {
                    Scope::When(grid) if measured.get(grid) != base.get(grid) => {
                        let grid_of = |doc: &Json| format!("{grid} {}", shown(doc.get(grid)));
                        verdicts.push(skip(key.into(), grid_of(base), grid_of(measured)));
                    }
                    Scope::Top | Scope::When(_) => {
                        verdicts.extend(same(key, "", measured.get(key), base.get(key)));
                    }
                    Scope::Rows(list, id) => {
                        for row in rows(measured, list) {
                            let suffix = format!(" @ {id} {}", shown(row.get(id)));
                            match rows(base, list).iter().find(|b| b.get(id) == row.get(id)) {
                                Some(twin) => {
                                    verdicts.extend(same(
                                        key,
                                        &suffix,
                                        row.get(key),
                                        twin.get(key),
                                    ));
                                }
                                None => verdicts.push(skip(
                                    format!("{key}{suffix}"),
                                    "no such row".into(),
                                    "one".into(),
                                )),
                            }
                        }
                    }
                }
            }
            (_, None) => {}
        }
    }
    verdicts
}

/// Prints every verdict and, when a gate failed, surfaces the failures in
/// GitHub Actions: one `::error` annotation (under `GITHUB_ACTIONS`) plus an
/// expected-vs-actual step-summary table (under `GITHUB_STEP_SUMMARY`).
fn announce(bench: &str, verdicts: &[Verdict]) -> Result<(), String> {
    let mut detail = String::new();
    let mut table = format!(
        "### ❌ `{bench}` baseline check failed\n\n| metric | expected | actual |\n| --- | --- | --- |\n"
    );
    for verdict in verdicts {
        let (metric, expected, actual) = (&verdict.metric, &verdict.expected, &verdict.actual);
        match verdict.status {
            Status::Pass => eprintln!(
                "[throughput] baseline check passed: {metric} {actual} (expected {expected})"
            ),
            Status::Skip => eprintln!(
                "[throughput] note: skipping the {metric} gate: baseline has {expected}, measured {actual}"
            ),
            Status::Fail => {
                eprintln!("[throughput] FAIL: {metric}: expected {expected}, actual {actual}");
                detail.push_str(&format!("{metric}: expected {expected}, actual {actual}\n"));
                table.push_str(&format!("| {metric} | {expected} | {actual} |\n"));
            }
        }
    }
    if detail.is_empty() {
        return Ok(());
    }
    if env::var_os("GITHUB_ACTIONS").is_some() {
        let escaped = detail.trim_end().replace('%', "%25");
        let escaped = escaped.replace('\r', "%0D").replace('\n', "%0A");
        println!("::error title={bench} baseline check failed::{escaped}");
    }
    if let Some(path) = env::var_os("GITHUB_STEP_SUMMARY") {
        if let Ok(mut file) = fs::OpenOptions::new().append(true).create(true).open(path) {
            let _ = writeln!(file, "{table}");
        }
    }
    let hint = if detail.contains("hash:") {
        " The sweeps are deterministic per seed, so a hash mismatch is a behavioural change: \
         re-commit the baseline only if it is intentional."
    } else if detail.contains("work.") {
        " The work counts are deterministic per seed and host-independent, so a changed count \
         means the program now does different work for the same outcome: re-commit the \
         baseline only if that is intended."
    } else {
        ""
    };
    Err(format!(
        "[throughput] FAIL: {bench} baseline check failed.{hint}"
    ))
}

/// What a run function hands back to the driver.
struct Report {
    /// The JSON report; `None` when the sub-command's output is the trace.
    json: Option<Json>,
    /// The traced scenario written to `--trace-out` (or, for a sub-command
    /// without a report, to `--out`).
    trace: Option<TraceScenarioOptions>,
}

fn report(json: Json, trace: Option<TraceScenarioOptions>) -> Result<Report, String> {
    Ok(Report {
        json: Some(json),
        trace,
    })
}

/// One `throughput` sub-command.
struct Command {
    /// The sub-command word; empty for the suite.
    name: &'static str,
    /// The usage line's flags, `[--flag VALUE]` or `[--switch]`: exactly the
    /// flags the sub-command accepts.
    flags: &'static str,
    /// Where the report goes without `--out`.
    out: &'static str,
    gates: &'static [Gate],
    run: fn(&Args) -> Result<Report, String>,
}

static COMMANDS: [Command; 7] = [
    Command {
        name: "",
        flags: "[--runs N] [--seed S] [--out PATH] [--check-baseline PATH]",
        out: "BENCH_sim_suite.json",
        gates: &[Gate::True("outcomes_identical"), WORK],
        run: suite,
    },
    Command {
        name: "cluster",
        flags: "[--nodes N] [--duration-ms D] [--seed S] [--out PATH] [--check-baseline PATH] \
                [--trace-out PATH]",
        out: "BENCH_cluster.json",
        gates: &[HASH, WORK],
        run: cluster,
    },
    // The scale report counts the heap loop's work per node count, so its
    // work gate compares row by row; the extended grid's extra node counts
    // are rows the default baseline grid may lack.
    Command {
        name: "cluster-scale",
        flags: "[--nodes A,B,C] [--heap-only] [--rho R] [--duration-ms D] [--seed S] \
                [--out PATH] [--check-baseline PATH]",
        out: "BENCH_cluster_scale.json",
        gates: &[
            HASH,
            Gate::Same("extended_sweep_hash", Scope::When("node_counts")),
            Gate::Same("work", Scope::Rows("aggregates", "nodes")),
        ],
        run: scale,
    },
    Command {
        name: "cluster-faults",
        flags: "[--nodes N] [--rho R] [--duration-ms D] [--seed S] [--out PATH] \
                [--check-baseline PATH] [--trace-out PATH]",
        out: "BENCH_cluster_faults.json",
        gates: &[HASH, WORK],
        run: faults,
    },
    Command {
        name: "cluster-migration",
        flags: "[--nodes N] [--rho R] [--duration-ms D] [--seed S] [--out PATH] \
                [--check-baseline PATH] [--trace-out PATH]",
        out: "BENCH_cluster_migration.json",
        gates: &[HASH, WORK, Gate::AtLeast("p99_wins", 2)],
        run: migration,
    },
    Command {
        name: "cluster-partition",
        flags: "[--nodes N] [--rho R] [--duration-ms D] [--seed S] [--out PATH] \
                [--check-baseline PATH]",
        out: "BENCH_cluster_partition.json",
        gates: &[HASH, WORK, Gate::AtLeast("paired_wins", 2)],
        run: partition,
    },
    Command {
        name: "trace",
        flags: "[--nodes N] [--rho R] [--duration-ms D] [--seed S] [--out PATH]",
        out: "TRACE_cluster.json",
        gates: &[],
        run: trace,
    },
];

impl Command {
    fn label(&self) -> &'static str {
        if self.name.is_empty() {
            "suite"
        } else {
            self.name
        }
    }

    /// The accepted flags with their value placeholders (`None` for a
    /// switch).
    fn accepted(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        self.flags
            .split(['[', ']'])
            .filter(|entry| entry.starts_with("--"))
            .map(|entry| {
                let mut words = entry.split(' ');
                (words.next().unwrap_or_default(), words.next())
            })
    }
}

fn usage() -> String {
    let lines: Vec<String> = COMMANDS
        .iter()
        .map(|command| format!("throughput {} {}", command.name, command.flags).replace("  ", " "))
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let parsed = value.trim().parse();
    parsed.map_err(|e| format!("invalid {flag} value {value:?}: {e}"))
}

/// Picks the sub-command and parses its flags: those in its usage line, and
/// no others.
fn parse(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let named = argv.first().and_then(|word| {
        COMMANDS
            .iter()
            .find(|c| !c.name.is_empty() && c.name == word)
    });
    let command = named.unwrap_or(&COMMANDS[0]);
    let mut rest = argv[usize::from(named.is_some())..].iter();
    let mut args = Args::default();
    while let Some(arg) = rest.next() {
        let Some((flag, placeholder)) = command.accepted().find(|(flag, _)| flag == arg) else {
            let help = arg == "--help" || arg == "-h";
            return Err(if help {
                usage()
            } else {
                format!("unknown argument {arg}\n{}", usage())
            });
        };
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match (flag, placeholder) {
            ("--heap-only", None) => args.heap_only = true,
            ("--nodes", Some("A,B,C")) => {
                let counts = value()?.split(',').map(|count| number(flag, count));
                args.node_counts = Some(counts.collect::<Result<_, _>>()?);
            }
            ("--nodes", _) => args.nodes = Some(number(flag, value()?)?),
            ("--runs", _) => args.runs = Some(number(flag, value()?)?),
            ("--seed", _) => args.seed = Some(number(flag, value()?)?),
            ("--rho", _) => args.rho = Some(number(flag, value()?)?),
            ("--duration-ms", _) => args.duration_ms = Some(number(flag, value()?)?),
            ("--out", _) => args.out = Some(value()?.clone()),
            ("--check-baseline", _) => args.check_baseline = Some(value()?.clone()),
            ("--trace-out", _) => args.trace_out = Some(value()?.clone()),
            _ => unreachable!("{flag} is in a usage line but has no parser"),
        }
    }
    Ok((command, args))
}

fn read_baseline(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("[throughput] FAIL: could not read baseline {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("[throughput] FAIL: baseline {path}: {e}"))
}

/// Runs one traced scenario, checks the trace's counters against the
/// outcome and the trace itself against the JSON parser, and writes it.
fn export_trace(scenario: &TraceScenarioOptions, path: &str) -> Result<(), String> {
    let artifacts = run_trace_scenario(scenario);
    verify_reconciliation(&artifacts).map_err(|e| {
        format!("[throughput] FAIL: trace does not reconcile with the outcome: {e}")
    })?;
    json::parse(&artifacts.json)
        .map_err(|e| format!("[throughput] FAIL: emitted trace is not valid JSON: {e}"))?;
    fs::write(path, &artifacts.json)
        .map_err(|e| format!("[throughput] could not write {path}: {e}"))?;
    let rec = &artifacts.reconciliation;
    eprintln!(
        "[throughput] trace written to {path}: {} nodes, {}/{} served, {} slices ({} tasks), \
         {} dispatch decisions, {} steals, {} migrations, {} recoveries, {} faults, {} sheds — \
         outcome reconciled, load at https://ui.perfetto.dev",
        artifacts.nodes,
        artifacts.outcome.served(),
        artifacts.requests,
        rec.slices,
        rec.slice_tasks,
        rec.dispatch_decisions,
        rec.steals,
        rec.migrations,
        rec.recoveries,
        rec.faults,
        rec.sheds,
    );
    Ok(())
}

/// Parses, runs, writes the report, gates it and exports the trace; `main`
/// exits non-zero on any `Err`.
fn drive(argv: &[String]) -> Result<(), String> {
    let (command, args) = parse(argv)?;
    let report = (command.run)(&args).map_err(|e| {
        format!(
            "[throughput] FAIL: invalid {} options: {e}",
            command.label()
        )
    })?;
    let out = args.out.as_deref().unwrap_or(command.out);
    let trace_out = match &report.json {
        None => Some(out),
        Some(json) => {
            let text = format!("{json}\n");
            print!("{text}");
            fs::write(out, text).map_err(|e| format!("[throughput] could not write {out}: {e}"))?;
            eprintln!("[throughput] report written to {out}");
            let baseline = args
                .check_baseline
                .as_deref()
                .map(read_baseline)
                .transpose()?;
            announce(
                command.label(),
                &check(command.gates, json, baseline.as_ref()),
            )?;
            args.trace_out.as_deref()
        }
    };
    match (trace_out, &report.trace) {
        (Some(path), Some(scenario)) => export_trace(scenario, path),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    match drive(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// A `work` object: the scheduler wakeups an outcome reports, then every
/// count of a [`CountingSink`].
fn counts(scheduler_invocations: u64, work: &CountingSink) -> Json {
    let invocations = ("scheduler_invocations", scheduler_invocations);
    let fields = std::iter::once(invocations).chain(work.counts());
    Json::Object(
        fields
            .map(|(name, count)| (name.into(), count.into()))
            .collect(),
    )
}

/// The summed scheduler wakeups and counted work of a set of cells.
fn total<'a>(cells: impl IntoIterator<Item = (u64, &'a CountingSink)>) -> (u64, CountingSink) {
    let mut sum = (0, CountingSink::default());
    for (events, work) in cells {
        sum.0 += events;
        sum.1.add(work);
    }
    sum
}

fn suite_options(args: &Args) -> Result<SuiteOptions, String> {
    let mut opts = SuiteOptions::paper();
    set(&mut opts.runs, &args.runs);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn suite(args: &Args) -> Result<Report, String> {
    let opts = suite_options(args)?;
    // All six policies non-preemptively (Figure 11, NP-FCFS included) plus
    // the eight static/dynamic preemptive configurations (Figure 12).
    let configs: Vec<SchedulerConfig> =
        fig11_configs().into_iter().chain(fig12_configs()).collect();
    plan_cache::clear();
    let reference = run_grid_reference(&configs, &opts);
    plan_cache::clear();
    let (fast, estimates) = run_grid_instrumented(&configs, &opts);
    let cache = plan_cache::stats();
    let mut grid = OutcomeSummary::default();
    for s in fast.iter().map(SimOutcome::summary) {
        grid.antt += s.antt;
        grid.stp += s.stp;
        grid.preemptions += s.preemptions;
        grid.kill_restarts += s.kill_restarts;
        grid.quanta_skipped += s.quanta_skipped;
        grid.replayed_token_grants += s.replayed_token_grants;
    }
    let cells = fast.len().max(1) as f64;
    let json = object! {
        "bench" => "sim_suite_throughput",
        "runs" => opts.runs,
        "configs" => configs.len(),
        "cells" => opts.runs * configs.len(),
        "grid" => object! {
            "mean_antt" => Json::num(grid.antt / cells, 4), "mean_stp" => Json::num(grid.stp / cells, 4),
            "kill_restarts" => grid.kill_restarts,
        },
        "work" => object! {
            "scheduler_events" => fast.iter().map(|o| o.scheduler_invocations).sum::<u64>(),
            "grid" => object! {
                "quanta_skipped" => grid.quanta_skipped,
                "replayed_token_grants" => grid.replayed_token_grants,
                "preemptions" => grid.preemptions,
            },
            "plan_cache" => object! {
                "hits" => cache.hits, "misses" => cache.misses,
                "layers" => cache.layers, "lowered" => cache.lowered,
            },
            "predictor_cache" => object! { "hits" => estimates.hits, "misses" => estimates.misses },
        },
        "outcomes_identical" => fast == reference,
    };
    report(json, None)
}

fn cluster_options(args: &Args) -> Result<ClusterSweepOptions, String> {
    let mut opts = ClusterSweepOptions::baseline();
    set(&mut opts.nodes, &args.nodes);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn cluster(args: &Args) -> Result<Report, String> {
    let opts = cluster_options(args)?;
    let cells = run_cluster_sweep(&opts);
    let work = |mode: DispatchMode| {
        let cells = cells.iter().filter(|cell| cell.mode == mode);
        total(cells.map(|cell| (cell.events, &cell.work)))
    };
    let (open_events, open_work) = work(DispatchMode::Open);
    let (closed_events, closed_work) = work(DispatchMode::Closed);
    // One request stream per load level, replayed by every policy — count
    // each stream once, through the first policy's cells.
    let first = cells.first().map(|c| c.policy);
    let streams = cells.iter().filter(|cell| Some(cell.policy) == first);
    // The acceptance comparisons at the highest offered load: open-loop
    // predictive vs random on queueing delay, and closed-loop reactive
    // dispatch vs open-loop predictive on p99 turnaround.
    let top = opts.loads.iter().copied().fold(f64::MIN, f64::max);
    let at_top = |policies: &[&str], metric: fn(&ClusterCell) -> f64| {
        let cell = policies
            .iter()
            .find_map(|policy| cell_of(&cells, top, policy));
        Json::num(cell.map_or(0.0, metric), 4)
    };
    let queue = |cell: &ClusterCell| cell.metrics.mean_queueing_delay_ms;
    let p99 = |cell: &ClusterCell| cell.metrics.p99_ms;
    let row = |cell: &ClusterCell| {
        let m = &cell.metrics;
        object! {
            "load" => Json::num(cell.load, 2), "mode" => cell.mode.label(), "policy" => cell.policy,
            "requests" => cell.requests, "served" => cell.served, "shed" => cell.shed,
            "steals" => cell.steals, "events" => cell.events, "antt" => Json::num(m.antt, 4),
            "stp" => Json::num(m.stp, 4), "mean_queue_ms" => Json::num(m.mean_queueing_delay_ms, 4),
            "mean_service_ms" => Json::num(m.mean_service_ms, 4), "p50_ms" => Json::num(m.p50_ms, 4),
            "p95_ms" => Json::num(m.p95_ms, 4), "p99_ms" => Json::num(m.p99_ms, 4),
            "sla_violation_at_4x" => Json::num(m.sla.rate_at(4.0).unwrap_or(0.0), 4),
            "mean_utilization" => Json::num(m.mean_utilization(), 4),
            "makespan_ms" => Json::num(m.makespan_ms, 4), "hash" => Json::hash(cell.hash),
        }
    };
    let closed = opts.closed.iter().map(|variant| variant.label());
    let json = object! {
        "bench" => "cluster_serving_sweep",
        "nodes" => opts.nodes,
        "seed" => opts.seed,
        "duration_ms" => Json::num(opts.duration_ms, 1),
        "load_levels" => opts.loads.iter().map(|&load| Json::num(load, 2)).collect::<Json>(),
        "policies" => opts.policies.iter().map(|policy| policy.label()).chain(closed).collect::<Json>(),
        "unique_requests" => streams.map(|cell| cell.requests).sum::<usize>(),
        "top_load_queue_ms" => object! {
            "load" => Json::num(top, 2), "predictive" => at_top(&["predictive"], queue),
            "random" => at_top(&["random"], queue),
        },
        "top_load_p99_ms" => object! {
            "load" => Json::num(top, 2), "open_predictive" => at_top(&["predictive"], p99),
            "closed_reactive" => at_top(&["work-steal", "predictive-live"], p99),
        },
        "sweep_hash" => Json::hash(prema_bench::cluster::sweep_hash(&cells)),
        // An open-loop node runs its engine to completion, so only its
        // wakeups and skipped quanta are counted.
        "work" => object! {
            "open_loop" => object! {
                "scheduler_invocations" => open_events,
                "quanta_skipped" => open_work.quanta_skipped,
            },
            "closed_loop" => counts(closed_events, &closed_work),
        },
        "cells" => cells.iter().map(row).collect::<Json>(),
    };
    let (nodes, seed) = (opts.nodes, opts.seed);
    report(
        json,
        Some(TraceScenarioOptions {
            nodes,
            seed,
            ..TraceScenarioOptions::serving()
        }),
    )
}

fn scale_options(args: &Args) -> Result<ScaleSweepOptions, String> {
    let mut opts = ScaleSweepOptions::baseline();
    set(&mut opts.node_counts, &args.node_counts);
    set(&mut opts.rho, &args.rho);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    if args.heap_only {
        opts.reference_cap = 0;
    }
    opts.validate().map(|()| opts)
}

fn scale(args: &Args) -> Result<Report, String> {
    let opts = scale_options(args)?;
    let cells = scale::run_scale_sweep(&opts);
    let row = |cell: &ScaleCell| {
        object! {
            "nodes" => cell.nodes, "policy" => cell.policy, "requests" => cell.requests,
            "served" => cell.served, "shed" => cell.shed, "steals" => cell.steals,
            "events" => cell.events, "reference" => cell.verified, "hash" => Json::hash(cell.hash),
        }
    };
    let aggregate_rows = scale::scale_aggregates(&cells).into_iter().map(|aggregate| {
        object! { "nodes" => aggregate.nodes, "work" => counts(aggregate.events, &aggregate.work) }
    });
    let json = object! {
        "bench" => "cluster_scale_cosim",
        "node_counts" => opts.node_counts.iter().copied().collect::<Json>(),
        "rho" => Json::num(opts.rho, 2),
        "seed" => opts.seed,
        "duration_ms" => Json::num(opts.duration_ms, 1),
        "scheduler" => "np-fcfs",
        "variants" => opts.variants.iter().map(|variant| variant.label()).collect::<Json>(),
        "reference_cap" => opts.reference_cap,
        "sweep_hash" => Json::hash(scale::scale_sweep_hash(&cells)),
        "extended_sweep_hash" => Json::hash(scale::scale_extended_sweep_hash(&cells)),
        "aggregates" => aggregate_rows.collect::<Json>(),
        "cells" => cells.iter().map(row).collect::<Json>(),
    };
    report(json, None)
}

/// The report layout the paired sweeps share: the common options, then the
/// sweep's own `params` (an object), then the win count under `wins` when
/// the sweep gates one, the sweep hash, the cells' summed `work` and one
/// `row` per cell.
fn paired_report<S: PairedSweep>(
    bench: &str,
    sweep: &S,
    params: Json,
    wins: Option<&str>,
    cells: &[PairedCell<S::Level, S::Metrics>],
    row: impl Fn(&PairedCell<S::Level, S::Metrics>) -> Json,
) -> Json {
    let base = sweep.base();
    let head = object! {
        "bench" => bench, "nodes" => base.nodes, "rho" => Json::num(base.rho, 2),
        "seed" => base.seed, "duration_ms" => Json::num(base.duration_ms, 1),
    };
    let tail = object! { "scheduler" => "prema", "dispatch" => "predictive-live" };
    let mut fields = Vec::new();
    for part in [head, params, tail] {
        let Json::Object(part) = part else {
            unreachable!("report sections are objects")
        };
        fields.extend(part);
    }
    fields.extend(wins.map(|key| (key.to_string(), Json::from(paired_wins::<S>(cells)))));
    fields.push(("sweep_hash".into(), Json::hash(sweep_hash(cells))));
    let (events, work) = total(cells.iter().map(|cell| (cell.events, &cell.work)));
    fields.push(("work".into(), counts(events, &work)));
    fields.push(("cells".into(), cells.iter().map(row).collect()));
    Json::Object(fields)
}

fn fault_options(args: &Args) -> Result<FaultSweepOptions, String> {
    let mut opts = FaultSweepOptions::baseline();
    set(&mut opts.nodes, &args.nodes);
    set(&mut opts.rho, &args.rho);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn fault_report(opts: &FaultSweepOptions, cells: &[FaultCell]) -> Json {
    let params = object! {
        "mtbf_multipliers" => opts.mtbf_multipliers.iter().map(|&m| Json::num(m, 1)).collect::<Json>(),
        "downtime_ms" => Json::num(opts.downtime_ms, 1),
        "freeze_fraction" => Json::num(opts.freeze_fraction, 2),
    };
    paired_report("cluster_faults", opts, params, None, cells, |cell| {
        let ((multiplier, mtbf_ms), m) = (cell.level, &cell.metrics);
        object! {
            "mtbf_multiplier" => Json::num(multiplier, 1), "mtbf_ms" => Json::num(mtbf_ms, 3),
            "recovery" => cell.policy, "requests" => cell.requests, "served" => cell.served,
            "shed" => m.shed, "abandoned" => m.abandoned, "crashes" => m.crashes,
            "freezes" => m.freezes, "recoveries" => m.recoveries,
            "availability" => Json::num(m.availability, 6), "goodput" => Json::num(m.goodput, 6),
            "p99_ms" => Json::num(m.p99_ms, 4), "antt" => Json::num(m.antt, 4),
            "events" => cell.events, "hash" => Json::hash(cell.hash),
        }
    })
}

fn faults(args: &Args) -> Result<Report, String> {
    let opts = fault_options(args)?;
    let (nodes, rho, seed) = (opts.nodes, opts.rho, opts.seed);
    let trace = TraceScenarioOptions {
        nodes,
        rho,
        seed,
        ..TraceScenarioOptions::faults()
    };
    report(fault_report(&opts, &run_paired(&opts)), Some(trace))
}

fn migration_options(args: &Args) -> Result<MigrationSweepOptions, String> {
    let mut opts = MigrationSweepOptions::baseline();
    set(&mut opts.nodes, &args.nodes);
    set(&mut opts.rho, &args.rho);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn migration_report(opts: &MigrationSweepOptions, cells: &[MigrationCell]) -> Json {
    let params = object! {
        "severities" => opts.severities.iter().map(|(num, den)| format!("{num}/{den}")).collect::<Json>(),
        "degrade_mtbf_ms" => Json::num(opts.degrade_mtbf_ms, 1),
        "degrade_window_ms" => Json::num(opts.degrade_window_ms, 1),
        "sla_multiplier" => Json::num(opts.sla_multiplier, 1),
    };
    paired_report(
        "cluster_migration",
        opts,
        params,
        Some("p99_wins"),
        cells,
        |cell| {
            let ((num, den), m) = (cell.level, &cell.metrics);
            object! {
                "speed" => format!("{num}/{den}"), "policy" => cell.policy,
                "requests" => cell.requests, "served" => cell.served, "degrades" => m.degrades,
                "migrations" => m.migrations, "migration_bytes" => m.migration_bytes,
                "mean_evacuation_ms" => Json::num(m.mean_evacuation_ms, 4),
                "degraded_fraction" => Json::num(m.degraded_fraction, 6),
                "p99_ms" => Json::num(m.p99_ms, 4), "antt" => Json::num(m.antt, 4),
                "events" => cell.events, "hash" => Json::hash(cell.hash),
            }
        },
    )
}

fn migration(args: &Args) -> Result<Report, String> {
    let opts = migration_options(args)?;
    let (nodes, rho, seed) = (opts.nodes, opts.rho, opts.seed);
    let trace = TraceScenarioOptions {
        nodes,
        rho,
        seed,
        ..TraceScenarioOptions::migration()
    };
    report(migration_report(&opts, &run_paired(&opts)), Some(trace))
}

fn partition_options(args: &Args) -> Result<PartitionSweepOptions, String> {
    let mut opts = PartitionSweepOptions::baseline();
    set(&mut opts.nodes, &args.nodes);
    set(&mut opts.rho, &args.rho);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn partition_report(opts: &PartitionSweepOptions, cells: &[PartitionCell]) -> Json {
    let fraction = |(num, den): (u32, u32)| format!("{num}/{den}");
    let params = object! {
        "link_mtbf_levels_ms" => opts.link_mtbf_levels_ms.iter().map(|&mtbf| Json::num(mtbf, 1)).collect::<Json>(),
        "link_outage_ms" => Json::num(opts.link_outage_ms, 1),
        "degraded_link_fraction" => Json::num(opts.degraded_link_fraction, 2),
        "link_bandwidth" => fraction(opts.link_bandwidth),
        "degrade_speed" => fraction(opts.degrade_speed),
        "sla_multiplier" => Json::num(opts.sla_multiplier, 1),
        "delivery_timeout_ms" => Json::num(opts.delivery_timeout_ms, 1),
    };
    // A lost-request-inclusive p99 is infinite once ~1 % of the stream was
    // abandoned, which the writer turns into null.
    paired_report(
        "cluster_partition",
        opts,
        params,
        Some("paired_wins"),
        cells,
        |cell| {
            let m = &cell.metrics;
            object! {
                "link_mtbf_ms" => Json::num(cell.level, 1), "policy" => cell.policy,
                "requests" => cell.requests, "served" => cell.served, "abandoned" => m.abandoned,
                "link_faults" => m.link_faults, "migrations" => m.migrations,
                "transfer_failures" => m.transfer_failures, "redirects" => m.redirects,
                "goodput" => Json::num(m.goodput, 6), "p99_ms" => Json::num(m.p99_ms, 4),
                "events" => cell.events, "hash" => Json::hash(cell.hash),
            }
        },
    )
}

fn partition(args: &Args) -> Result<Report, String> {
    let opts = partition_options(args)?;
    report(partition_report(&opts, &run_paired(&opts)), None)
}

fn trace_options(args: &Args) -> Result<TraceScenarioOptions, String> {
    let mut opts = TraceScenarioOptions::combined();
    set(&mut opts.nodes, &args.nodes);
    set(&mut opts.rho, &args.rho);
    set(&mut opts.duration_ms, &args.duration_ms);
    set(&mut opts.seed, &args.seed);
    opts.validate().map(|()| opts)
}

fn trace(args: &Args) -> Result<Report, String> {
    let trace = trace_options(args)?;
    Ok(Report {
        json: None,
        trace: Some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    fn committed_text(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        fs::read_to_string(path).expect("committed baseline")
    }

    fn committed(name: &str) -> Json {
        json::parse(&committed_text(name)).expect("valid JSON")
    }

    /// Drops every whitespace character outside string literals.
    fn minify(text: &str) -> String {
        let (mut in_string, mut escaped) = (false, false);
        let keep = |&c: &char| {
            let keep = in_string || !c.is_whitespace();
            if in_string {
                in_string = escaped || c != '"';
                escaped = !escaped && c == '\\';
            } else {
                in_string = c == '"';
            }
            keep
        };
        text.chars().filter(keep).collect()
    }

    fn named(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("known command")
    }

    fn failed(verdicts: &[Verdict]) -> Vec<&str> {
        let failures = verdicts.iter().filter(|v| v.status == Status::Fail);
        failures.map(|v| v.metric.as_str()).collect()
    }

    /// Sets the value at `path` in an object tree.
    fn replace(doc: &mut Json, path: &[&str], value: Json) {
        let Json::Object(fields) = doc else {
            panic!("not an object")
        };
        let slot = &mut fields
            .iter_mut()
            .find(|(k, _)| k == path[0])
            .expect("key")
            .1;
        match path {
            [_] => *slot = value,
            _ => replace(slot, &path[1..], value),
        }
    }

    /// The CLI contract the workflows and the README invoke: each
    /// sub-command accepts exactly these flags, defaulting to its sweep's
    /// `baseline()`.
    #[test]
    fn every_command_accepts_exactly_its_flags() {
        let serving = "--nodes --rho --duration-ms --seed --out --check-baseline";
        let contract = [
            ("", "--runs --seed --out --check-baseline".to_string()),
            (
                "cluster",
                "--nodes --duration-ms --seed --out --check-baseline --trace-out".into(),
            ),
            ("cluster-scale", format!("{serving} --heap-only")),
            ("cluster-faults", format!("{serving} --trace-out")),
            ("cluster-migration", format!("{serving} --trace-out")),
            ("cluster-partition", serving.into()),
            ("trace", "--nodes --rho --duration-ms --seed --out".into()),
        ];
        assert_eq!(contract.len(), COMMANDS.len());
        let every = "--runs --seed --nodes --heap-only --rho --duration-ms --out \
                     --check-baseline --trace-out";
        for (name, accepted) in &contract {
            for flag in every.split(' ') {
                let value = match flag {
                    "--heap-only" => "",
                    "--out" | "--check-baseline" | "--trace-out" => "x.json",
                    _ => "4",
                };
                let parsed = parse(&argv(&format!("{name} {flag} {value}")));
                let ok = accepted.split(' ').any(|a| a == flag);
                assert_eq!(parsed.is_ok(), ok, "{name} {flag}");
                assert!(parsed.map_or(true, |(command, _)| command.name == *name));
            }
        }
        fn same<T: std::fmt::Debug>(resolved: Result<T, String>, baseline: T) {
            assert_eq!(format!("{:?}", resolved.unwrap()), format!("{baseline:?}"));
        }
        let none = Args::default();
        same(suite_options(&none), SuiteOptions::paper());
        same(cluster_options(&none), ClusterSweepOptions::baseline());
        same(scale_options(&none), ScaleSweepOptions::baseline());
        same(fault_options(&none), FaultSweepOptions::baseline());
        same(migration_options(&none), MigrationSweepOptions::baseline());
        same(partition_options(&none), PartitionSweepOptions::baseline());
        same(trace_options(&none), TraceScenarioOptions::combined());
        // Flags land on their fields.
        let (_, args) = parse(&argv("cluster-scale --nodes 4,16 --heap-only")).unwrap();
        let opts = scale_options(&args).unwrap();
        assert_eq!((opts.node_counts, opts.reference_cap), (vec![4, 16], 0));
        let words = "cluster-faults --nodes 8 --rho 0.5 --duration-ms 50 --seed 9";
        let opts = fault_options(&parse(&argv(words)).unwrap().1).unwrap();
        assert_eq!(
            (opts.nodes, opts.rho, opts.duration_ms, opts.seed),
            (8, 0.5, 50.0, 9)
        );
    }

    /// Every invocation the README and the CI workflows spell out parses.
    #[test]
    fn documented_invocations_parse() {
        let mut invocations = 0;
        for doc in [
            "README.md",
            ".github/workflows/ci.yml",
            ".github/workflows/nightly.yml",
        ] {
            for line in committed_text(doc).lines() {
                let Some((_, rest)) = line.split_once("target/release/throughput") else {
                    continue;
                };
                let words = rest.split(['#', '`']).next().unwrap_or_default();
                if !words.contains("--help") {
                    assert!(parse(&argv(words)).is_ok(), "{doc}: {line}");
                    invocations += 1;
                }
            }
        }
        assert!(invocations >= 30, "found only {invocations} invocations");
    }

    /// Unknown or malformed flags, and values a sweep's own `validate()`
    /// refuses, fail before any sweep runs — `main` turns that into a
    /// non-zero exit.
    #[test]
    fn rejected_invocations_exit_nonzero() {
        for words in [
            "--bogus",
            "--help",
            "--runs 0",
            "--runs many",
            "--nodes 4",
            "cluster --rho 0.5",
            "cluster --nodes",
            "cluster --nodes 4,16",
            "cluster --nodes 0",
            "cluster-scale --nodes 0",
            "cluster-scale --rho -1",
            "cluster-scale --duration-ms 0",
            "cluster-faults --nodes 0",
            "cluster-faults --rho -1",
            "cluster-faults --duration-ms -5",
            "cluster-migration --nodes 0",
            "cluster-migration --rho 0",
            "cluster-partition --rho -1",
            "cluster-partition --trace-out x.json",
            "trace --nodes 0",
            "trace --reps 2",
        ] {
            assert!(drive(&argv(words)).is_err(), "{words}");
        }
    }

    /// Every committed baseline gates the same way minified as laid out:
    /// the reader sees values, not text positions.
    #[test]
    fn minified_baselines_give_the_same_verdicts() {
        for command in COMMANDS.iter().filter(|c| c.out.starts_with("BENCH_")) {
            let doc = committed(command.out);
            let minified = json::parse(&minify(&committed_text(command.out))).unwrap();
            let verdicts = check(command.gates, &doc, Some(&doc));
            assert!(!verdicts.is_empty());
            assert!(
                verdicts.iter().all(|v| v.status == Status::Pass),
                "{verdicts:?}"
            );
            assert_eq!(check(command.gates, &doc, Some(&minified)), verdicts);
            assert_eq!(check(command.gates, &minified, Some(&doc)), verdicts);
        }
        // The scale baseline gates each of its node counts on its own row.
        let scale = committed("BENCH_cluster_scale.json");
        let verdicts = check(named("cluster-scale").gates, &scale, Some(&scale));
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| v.metric.contains("@ nodes"))
                .count(),
            5
        );
    }

    #[test]
    fn a_doctored_sweep_hash_trips_the_hash_gate() {
        let baseline = committed("BENCH_cluster_faults.json");
        let mut measured = baseline.clone();
        replace(&mut measured, &["sweep_hash"], Json::hash(0xdead_beef));
        let gates = named("cluster-faults").gates;
        assert_eq!(
            failed(&check(gates, &measured, Some(&baseline))),
            ["sweep_hash"]
        );
        // A node grid other than the baseline's skips the extended hash.
        let baseline = committed("BENCH_cluster_scale.json");
        let mut measured = baseline.clone();
        replace(
            &mut measured,
            &["node_counts"],
            [4usize].into_iter().collect(),
        );
        replace(&mut measured, &["extended_sweep_hash"], Json::hash(1));
        let verdicts = check(named("cluster-scale").gates, &measured, Some(&baseline));
        assert!(failed(&verdicts).is_empty());
        assert_eq!(verdicts[1].status, Status::Skip);
    }

    /// The `aggregates` rows of a scale report.
    fn aggregates(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Object(fields) = doc else {
            panic!("not an object")
        };
        match fields.iter_mut().find(|(k, _)| k == "aggregates") {
            Some((_, Json::Array(rows))) => rows,
            _ => panic!("no aggregates array"),
        }
    }

    #[test]
    fn a_doctored_work_count_fails_on_its_row_and_names_the_count() {
        let baseline = committed("BENCH_cluster_scale.json");
        let mut measured = baseline.clone();
        let sixteen = Some(Json::from(16usize));
        let rows = aggregates(&mut measured);
        let row = rows
            .iter_mut()
            .find(|row| row.get("nodes") == sixteen.as_ref());
        let row = row.expect("a 16-node row");
        let pushes = row
            .at(&["work", "heap_pushes"])
            .and_then(Json::as_f64)
            .unwrap();
        replace(row, &["work", "heap_pushes"], Json::from(pushes as u64 + 1));
        let verdicts = check(named("cluster-scale").gates, &measured, Some(&baseline));
        assert_eq!(failed(&verdicts), ["work.heap_pushes @ nodes 16"]);
        let failure = verdicts.iter().find(|v| v.status == Status::Fail).unwrap();
        assert_eq!(failure.expected, format!("{pushes}"));
        assert_eq!(failure.actual, format!("{}", pushes as u64 + 1));
        // The other rows still pass on their own.
        let passed = verdicts.iter().filter(|v| v.status == Status::Pass);
        let rows = passed
            .filter(|v| v.metric.starts_with("work @ nodes"))
            .count();
        assert_eq!(rows, 4);
        // A suite count nested two objects down is named by its full path.
        let baseline = committed("BENCH_sim_suite.json");
        let mut measured = baseline.clone();
        replace(
            &mut measured,
            &["work", "grid", "quanta_skipped"],
            Json::from(1u64),
        );
        let verdicts = check(named("").gates, &measured, Some(&baseline));
        assert_eq!(failed(&verdicts), ["work.grid.quanta_skipped"]);
        assert!(announce("suite", &verdicts).is_err());
    }

    #[test]
    fn a_row_the_baseline_lacks_is_skipped() {
        let mut baseline = committed("BENCH_cluster_scale.json");
        let measured = baseline.clone();
        // A baseline of the default grid lacks the extended grid's 256-node row.
        aggregates(&mut baseline).retain(|row| row.get("nodes") != Some(&Json::from(256usize)));
        let verdicts = check(named("cluster-scale").gates, &measured, Some(&baseline));
        assert!(failed(&verdicts).is_empty(), "{verdicts:?}");
        let skipped: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.status == Status::Skip)
            .map(|v| v.metric.as_str())
            .collect();
        assert_eq!(skipped, ["work @ nodes 256"]);
    }

    #[test]
    fn reps_is_an_unknown_flag() {
        for command in &COMMANDS {
            let words = format!("{} --reps 3", command.name);
            let Err(error) = parse(&argv(&words)) else {
                panic!("{words} parsed")
            };
            assert!(
                error.starts_with("unknown argument --reps"),
                "{words}: {error}"
            );
        }
    }

    #[test]
    fn fewer_than_two_paired_wins_trips_the_wins_gate() {
        let metrics = |p99_ms| prema_bench::migration::MigrationMetrics {
            degrades: 1,
            migrations: 1,
            migration_bytes: 64,
            mean_evacuation_ms: 0.1,
            degraded_fraction: 0.1,
            p99_ms,
            antt: 1.0,
        };
        // Migration wins at 1/2 only.
        let p99s = [
            ((1, 2), 10.0, 20.0),
            ((1, 4), 30.0, 20.0),
            ((1, 8), 20.0, 20.0),
        ];
        let cells: Vec<MigrationCell> = p99s
            .into_iter()
            .flat_map(|(level, migrate, stay)| {
                [("migrate", migrate), ("stay", stay)].map(|(policy, p99)| {
                    let (requests, served, events, hash) = (10, 10, 100, 7);
                    PairedCell {
                        level,
                        policy,
                        requests,
                        served,
                        events,
                        work: CountingSink::default(),
                        hash,
                        metrics: metrics(p99),
                    }
                })
            })
            .collect();
        let measured = migration_report(&MigrationSweepOptions::baseline(), &cells);
        assert_eq!(measured.get("p99_wins"), Some(&Json::from(1usize)));
        let gates = named("cluster-migration").gates;
        assert_eq!(
            failed(&check(gates, &measured, Some(&measured))),
            ["p99_wins"]
        );
        // Without --check-baseline the wins gate does not run.
        assert!(check(gates, &measured, None).is_empty());
    }

    #[test]
    fn diverged_outcomes_trip_the_identity_gate_even_without_a_baseline() {
        let mut measured = committed("BENCH_sim_suite.json");
        replace(&mut measured, &["outcomes_identical"], false.into());
        let verdicts = check(named("").gates, &measured, None);
        assert_eq!(failed(&verdicts), ["outcomes_identical"]);
        assert!(announce("suite", &verdicts).is_err());
    }
}
