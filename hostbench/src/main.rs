//! Host-time benchmark of the PREMA simulator.
//!
//! ```text
//! hostbench --workload <paper-grid|fleet-1024|storm-256> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up time), then runs measured passes for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it alternates untraced
//! and traced passes, writes the spans to `hostbench/out/`, and prints the
//! per-layer metrics. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The simulated
//! results (ANTT, STP, p99 turnaround, SLA) are printed above it as
//! outputs, not metrics. See `hostbench/README.md`.

mod harness;
mod inputs;
mod spans;
mod stats;
mod tally;

use std::time::{Duration, Instant};

use prema_cluster::OnlineDispatchPolicy;
use prema_core::plan::plan_cache;

use harness::{CellOutcome, Setup};
use inputs::Workload;
use spans::SpanLog;
use tally::Tally;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest measured passes per run, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <paper-grid|fleet-1024|storm-256> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err("seconds must be within 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // Adding zero turns a -0.0 (an empty float sum) into 0.0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// What a run prints as its last line.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts cells that fail their checks, reporting each on stderr.
#[derive(Default)]
struct Failures(usize);

impl Failures {
    fn fail(&mut self, why: String) {
        eprintln!("hostbench: FAILED {why}");
        self.0 += 1;
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("hostbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.json()),
        Err(msg) => {
            eprintln!("hostbench: {msg}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let pinned = inputs::generate(workload, inputs::DEFAULT_SEED).digest();
    if pinned != workload.pinned_digest() {
        return Err(format!(
            "{}: the default seed's inputs digest to {pinned:#018x}, not the recorded {:#018x}; \
             input generation changed, so results would not compare with earlier runs",
            workload.name(),
            workload.pinned_digest()
        ));
    }
    if args.trace {
        traced_run(args)
    } else {
        timed_run(args)
    }
}

/// Checks a pass's outcomes: the first pass cell by cell, every later one
/// against the first (runs are deterministic).
fn check_pass(
    setup: &Setup,
    outcomes: &[CellOutcome],
    first: &Option<Vec<CellOutcome>>,
    what: &str,
    failures: &mut Failures,
) {
    match first {
        None => {
            for (cell, outcome) in outcomes.iter().enumerate() {
                if let Err(why) = setup.check_cell(cell, outcome) {
                    failures.fail(why);
                }
            }
        }
        Some(reference) => {
            for (cell, (outcome, expected)) in outcomes.iter().zip(reference).enumerate() {
                if outcome != expected {
                    failures.fail(format!("cell {cell}: {what} differs from the first pass"));
                }
            }
        }
    }
}

/// Prints the simulated outputs: the workload's digests and its per-label
/// ANTT, STP, p99 turnaround and SLA attainment.
fn print_outputs(args: &Args, setup: &Setup, outcomes: &[CellOutcome]) {
    let mut digest = inputs::Fnv::default();
    for outcome in outcomes {
        digest.word(harness::outcome_digest(outcome));
    }
    println!(
        "{} seed {}: {} cells/pass, {} simulated tasks/pass; inputs digest {:#018x}, \
         outcome digest {:#018x}",
        args.workload.name(),
        args.seed,
        setup.cell_count(),
        setup.tasks_per_pass(),
        setup.input_digest,
        digest.finish()
    );
    println!(
        "  {:<16} {:>9} {:>9} {:>11} {:>8} {:>6} {:>9}",
        "cell", "ANTT", "STP", "p99 ms", "SLA met", "shed", "abandoned"
    );
    for s in harness::summarize(setup, outcomes) {
        println!(
            "  {:<16} {:>9.4} {:>9.4} {:>11.3} {:>8.4} {:>6} {:>9}",
            s.label, s.antt, s.stp, s.p99_ms, s.sla_met, s.shed, s.abandoned
        );
    }
}

/// The untraced run: `setup_s`, `wall_s`, `sim_tasks_per_s`, `peak_rss_mib`.
fn timed_run(args: &Args) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up's plans before compiling them again.
        drop(setup.take());
        plan_cache::clear();
        let start = Instant::now();
        setup = Some(harness::setup(
            args.workload,
            args.seed,
            &mut SpanLog::new(),
        )?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let mut failures = Failures::default();
    let mut attempted = 0;
    let mut walls = Vec::new();
    let mut first: Option<Vec<CellOutcome>> = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let (wall, outcomes) = setup.run_pass();
        walls.push(wall);
        attempted += outcomes.len();
        check_pass(&setup, &outcomes, &first, "outcome", &mut failures);
        if first.is_none() {
            first = Some(outcomes);
        }
    }
    let first = first.expect("at least one pass");
    for cell in setup.reference_mismatches(&first) {
        failures.fail(format!("cell {cell}: differs from the reference engine"));
    }
    print_outputs(args, &setup, &first);

    let wall_s = stats::median(&walls);
    eprintln!(
        "hostbench: {} passes, pass walls (s): {:?}; set-ups (s): {:?}",
        walls.len(),
        walls,
        setup_times
    );
    Ok(Report {
        attempted,
        failed: failures.0,
        metrics: vec![
            metric("setup_s", stats::median(&setup_times), "s"),
            metric("wall_s", wall_s, "s"),
            metric(
                "sim_tasks_per_s",
                setup.tasks_per_pass() as f64 / wall_s,
                "tasks/s",
            ),
            metric("peak_rss_mib", stats::self_status_mib("VmHWM")?, "MiB"),
        ],
    })
}

/// Per-layer host times of one traced pass, from its spans.
struct PassLayers {
    pass_s: f64,
    /// Each direct engine call's duration, microseconds.
    engine_us: Vec<f64>,
    /// Each cell's cluster-run duration, seconds (zero for engine cells).
    cluster_run_s: Vec<f64>,
    summarize_s: f64,
}

impl PassLayers {
    fn new(spans: &[spans::Span], cells: usize) -> Self {
        let mut layers = PassLayers {
            pass_s: 0.0,
            engine_us: Vec::new(),
            cluster_run_s: vec![0.0; cells],
            summarize_s: 0.0,
        };
        for span in spans {
            let seconds = span.duration_ns() as f64 * 1e-9;
            match span.name {
                "pass" => layers.pass_s = seconds,
                "engine.run" => layers.engine_us.push(seconds * 1e6),
                "cluster.run" => layers.cluster_run_s[span.cell as usize] = seconds,
                "metrics.summarize" => layers.summarize_s += seconds,
                _ => {}
            }
        }
        layers
    }

    fn engine_run_s(&self) -> f64 {
        self.engine_us.iter().sum::<f64>() * 1e-6
    }

    /// Host time inside simulator calls: engine runs plus cluster runs.
    fn simulate_s(&self) -> f64 {
        self.engine_run_s() + self.cluster_run_s.iter().sum::<f64>()
    }

    /// The per-call engine time at `permille`, microseconds.
    fn engine_percentile_us(&self, permille: u64) -> f64 {
        stats::percentile_permille(&self.engine_us, permille).unwrap_or(0.0)
    }
}

/// The traced run: per-layer times from spans, per-layer work from the
/// counting sink, and the tracing overhead against interleaved untraced
/// passes.
fn traced_run(args: &Args) -> Result<Report, String> {
    plan_cache::clear();
    let mut spans = SpanLog::new();
    let setup = harness::setup(args.workload, args.seed, &mut spans)?;
    let labels = setup.cell_labels();
    let cells = setup.cell_count();

    let mut failures = Failures::default();
    let mut attempted = 0;
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<Vec<CellOutcome>> = None;
    let mut first_tallies: Option<Vec<Tally>> = None;
    let mut layers: Vec<PassLayers> = Vec::new();
    // Spans before this index are written out in full; later passes only
    // as their `pass` span, which keeps the file small.
    let mut detail_end = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while traced_walls.len() < MIN_PASSES || Instant::now() < deadline {
        let (wall, outcomes) = setup.run_pass();
        untraced_walls.push(wall);
        attempted += outcomes.len();
        check_pass(&setup, &outcomes, &first, "outcome", &mut failures);
        if first.is_none() {
            first = Some(outcomes);
        }

        let span_start = spans.spans().len();
        let (wall, outcomes, tallies) = setup.run_traced_pass(&mut spans);
        traced_walls.push(wall);
        attempted += outcomes.len();
        layers.push(PassLayers::new(&spans.spans()[span_start..], cells));
        detail_end.get_or_insert(spans.spans().len());
        check_pass(&setup, &outcomes, &first, "traced outcome", &mut failures);
        match &first_tallies {
            None => {
                for (cell, (outcome, tally)) in outcomes.iter().zip(&tallies).enumerate() {
                    let requests = setup.cell_tasks(cell).len();
                    for diff in harness::reconcile(outcome, tally, requests) {
                        failures.fail(format!("cell {cell}: {diff}"));
                    }
                }
                first_tallies = Some(tallies);
            }
            Some(expected) => {
                for (cell, (tally, expected)) in tallies.iter().zip(expected).enumerate() {
                    if tally != expected {
                        failures.fail(format!("cell {cell}: counts differ from the first pass"));
                    }
                }
            }
        }
    }
    let first = first.expect("at least one pass");
    let tallies = first_tallies.expect("at least one traced pass");
    for cell in setup.reference_mismatches(&first) {
        failures.fail(format!("cell {cell}: differs from the reference engine"));
    }
    print_outputs(args, &setup, &first);
    let out = std::path::Path::new("hostbench/out").join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let detail_end = detail_end.expect("at least one traced pass");
    spans
        .write_chrome_json(&out, |index, span| {
            index < detail_end || span.name == "pass"
        })
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "spans: {} recorded; set-up, the first traced pass and every pass span written to {}",
        spans.spans().len(),
        out.display()
    );
    println!(
        "  {:<20} {:>8} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, layer) in spans::layer_times(spans.spans()) {
        println!(
            "  {:<20} {:>8} {:>12.6} {:>12.6}",
            name,
            layer.count,
            layer.total_ns as f64 * 1e-9,
            layer.self_ns as f64 * 1e-9
        );
    }

    let median_of =
        |f: &dyn Fn(&PassLayers) -> f64| stats::median(&layers.iter().map(f).collect::<Vec<_>>());
    let mut total = Tally::default();
    for tally in &tallies {
        total.add(tally);
    }
    let sum_outcomes = |f: fn(&prema_core::SimOutcome) -> u64| -> u64 {
        first
            .iter()
            .map(|outcome| match outcome {
                CellOutcome::Engine(run, _) => f(run),
                CellOutcome::Cluster(run, _) => run.cluster.node_outcomes.iter().map(f).sum(),
            })
            .sum()
    };
    let invocations = sum_outcomes(|r| r.scheduler_invocations);
    let skipped = sum_outcomes(|r| r.quanta_skipped);
    let policy_wakeups = invocations - skipped;
    let report = &setup.report;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let policy_cells = |policy: &str| -> Vec<usize> {
        (0..labels.len()).filter(|&c| labels[c] == policy).collect()
    };

    // Absolute layer times that only some workloads have: printed here,
    // and reported as metrics only as shares of the pass, so that a layer
    // a workload never calls reads as a zero share rather than a zero time.
    println!("medians over {} traced passes:", layers.len());
    let calls = layers[0].engine_us.len();
    if calls > 0 {
        // The tail is the highest percentile with ten calls beyond it.
        let tail = stats::tail_permille(calls).expect("a pass has over 20 engine calls");
        println!(
            "  engine.run: {:.6} s per pass; per call p50 {:.2} us, p{} {:.2} us over {calls} calls",
            median_of(&|l| l.engine_run_s()),
            median_of(&|l| l.engine_percentile_us(500)),
            tail as f64 / 10.0,
            median_of(&|l| l.engine_percentile_us(tail)),
        );
    }
    for policy in harness::FLEET_POLICIES.map(OnlineDispatchPolicy::label) {
        let cells = policy_cells(policy);
        if !cells.is_empty() {
            println!(
                "  cluster.run {policy}: {:.6} s per pass over {} cells",
                median_of(&|l| cells.iter().map(|&c| l.cluster_run_s[c]).sum()),
                cells.len()
            );
        }
    }

    let mut metrics = vec![
        metric("workload.generate_s", report.generate_s, "s"),
        metric("workload.prepare_s", report.prepare_s, "s"),
        metric("predictor.build_s", report.predictor_s, "s"),
        metric(
            "predictor.estimate_hits",
            report.estimate_hits as f64,
            "count",
        ),
        metric(
            "predictor.estimate_misses",
            report.estimate_misses as f64,
            "count",
        ),
        metric("plan.warm_s", report.warm_s, "s"),
        metric("plan.compiled", report.plans_compiled as f64, "count"),
        metric("plan.rss_mib", report.warm_rss_mib, "MiB"),
        metric(
            "engine.run_share",
            median_of(&|l| ratio(l.engine_run_s(), l.pass_s)),
            "ratio",
        ),
        metric("engine.policy_wakeups", policy_wakeups as f64, "count"),
        metric("engine.quanta_skipped", skipped as f64, "count"),
        metric(
            "engine.skip_share",
            ratio(skipped as f64, invocations as f64),
            "ratio",
        ),
        metric("engine.preemptions", total.preemptions as f64, "count"),
        metric(
            "sim.ns_per_policy_wakeup",
            median_of(&|l| ratio(l.simulate_s() * 1e9, policy_wakeups as f64)),
            "ns",
        ),
    ];
    for policy in harness::FLEET_POLICIES.map(OnlineDispatchPolicy::label) {
        let cells = policy_cells(policy);
        let mut t = Tally::default();
        for &c in &cells {
            t.add(&tallies[c]);
        }
        let run_share =
            median_of(&|l| ratio(cells.iter().map(|&c| l.cluster_run_s[c]).sum(), l.pass_s));
        metrics.extend([
            metric(format!("cluster.run_share.{policy}"), run_share, "ratio"),
            metric(
                format!("cluster.dispatch_decisions.{policy}"),
                t.dispatch_decisions as f64,
                "count",
            ),
            metric(
                format!("cluster.heap_pushes.{policy}"),
                t.heap_pushes as f64,
                "count",
            ),
            metric(
                format!("cluster.heap_pops.{policy}"),
                t.heap_pops as f64,
                "count",
            ),
            metric(
                format!("cluster.heap_stale_drops.{policy}"),
                t.heap_stale_drops as f64,
                "count",
            ),
            metric(
                format!("cluster.heap_stale_share.{policy}"),
                ratio(
                    t.heap_stale_drops as f64,
                    (t.heap_pops + t.heap_stale_drops) as f64,
                ),
                "ratio",
            ),
            metric(
                format!("cluster.index_updates.{policy}"),
                t.index_updates as f64,
                "count",
            ),
            metric(
                format!("cluster.index_side_share.{policy}"),
                ratio(t.index_side as f64, t.index_updates as f64),
                "ratio",
            ),
        ]);
    }
    let abandoned: usize = first
        .iter()
        .map(|outcome| match outcome {
            CellOutcome::Cluster(run, _) => run.abandoned.len(),
            CellOutcome::Engine(..) => 0,
        })
        .sum();
    let untraced = stats::median(&untraced_walls);
    metrics.extend([
        metric("cluster.steals", total.steals as f64, "count"),
        metric("cluster.sheds", total.sheds as f64, "count"),
        metric("faults.crashes", total.crashes as f64, "count"),
        metric("faults.freezes", total.freezes as f64, "count"),
        metric("faults.degrades", total.degrades as f64, "count"),
        metric("faults.recoveries", total.recoveries as f64, "count"),
        metric("faults.abandoned", abandoned as f64, "count"),
        metric("migration.launched", total.migrations as f64, "count"),
        metric("migration.bytes", total.migration_bytes as f64, "B"),
        metric(
            "migration.transfer_failures",
            total.transfer_failures as f64,
            "count",
        ),
        metric("migration.redirects", total.redirects as f64, "count"),
        metric(
            "migration.landed_share",
            ratio(total.migrations_landed as f64, total.migrations as f64),
            "ratio",
        ),
        metric("metrics.summarize_s", median_of(&|l| l.summarize_s), "s"),
        metric(
            "trace.overhead_share",
            ratio(stats::median(&traced_walls) - untraced, untraced),
            "ratio",
        ),
    ]);
    eprintln!(
        "hostbench: {} pass pairs; untraced walls (s): {:?}; traced walls (s): {:?}",
        traced_walls.len(),
        untraced_walls,
        traced_walls
    );
    Ok(Report {
        attempted,
        failed: failures.0,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload storm-256 --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Storm);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10, true));
        assert!(args("--workload storm-256 --seed 9 --seconds 10").is_err());
        assert!(args("--workload nope --seed 9 --seconds 10 --trace 0").is_err());
        assert!(args("--workload fleet-1024 --seed 9 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet-1024 --seed 9 --seconds 5 --trace 2").is_err());
    }

    #[test]
    fn report_is_one_json_line_with_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "count")],
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
