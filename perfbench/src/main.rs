//! The mediator benchmark: seeded closed-loop workloads against the
//! default `Mediator`, every answer checked against the reference
//! evaluator, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload serve_local|serve_remote|stream_large \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it is
//! a JSON report with per-class sample counts and host-noise readings.
//! The exit code is non-zero when any answer was wrong or failed.

mod host;
mod inputs;
mod stats;
mod trace;
mod world;

use inputs::{render, Class, Inputs};
use mix_mediator::AnswerPath;
use mix_relang::symbol::Name;
use stats::{median, quantile, ratio};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Ledger, OpRecord, Tracer};
use world::World;

/// Blocks per untraced run, each with one timed set-up; `setup_s` is
/// the median of the blocks' set-ups.
const BLOCKS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// In-process mediator over `XmlSource`s.
    ServeLocal,
    /// The same sources behind loopback mix-net daemons.
    ServeRemote,
    /// A mediator view over a `StreamingWrapper` on a large document.
    StreamLarge,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeLocal,
        Workload::ServeRemote,
        Workload::StreamLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLocal => "serve_local",
            Workload::ServeRemote => "serve_remote",
            Workload::StreamLarge => "stream_large",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => trace = Some(value == "1"),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds
                .filter(|s| *s > 0.0)
                .ok_or("--seconds must be positive")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Answer checking: attempted operations and the ones that failed.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    not_composed: u64,
    first_failures: Vec<String>,
}

impl Check {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(why);
        }
    }
}

struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    check: Check,
    report: String,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // the traced run's overhead is measured against a separate untraced
    // run of the same workload and seed
    let untraced = if args.trace {
        match untraced_ops_per_s(&args) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: untraced run: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let outcome = match run(&args, untraced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for why in &outcome.check.first_failures {
        eprintln!("perfbench: wrong or failed operation: {why}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let c = &outcome.check;
    println!("{}", outcome.report);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    );
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Runs this program untraced as a child process on the same workload,
/// seed and duration, and returns its completed operations per second
/// of timed window.
fn untraced_ops_per_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        eprintln!("untraced: {line}");
    }
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    // the report is the line before the result
    let report = text.lines().rev().nth(1).unwrap_or("");
    let key = "\"window_ops_per_s\": ";
    let at = report
        .find(key)
        .ok_or("no window_ops_per_s in the untraced report")?
        + key.len();
    let end = report[at..].find(',').ok_or("malformed untraced report")? + at;
    report[at..end]
        .parse()
        .map_err(|e| format!("untraced window_ops_per_s: {e}"))
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One block of a run: a timed set-up, then timed whole cycles.
#[derive(Default)]
struct Block {
    setup_s: f64,
    latency_ms: [Vec<f64>; 3],
    /// Time spent inside the operations.
    busy_s: f64,
    /// Time from the first timed operation to the end of the last.
    window_s: f64,
    peak_rss_mb: f64,
}

/// The latencies of `class` over all blocks.
fn samples(blocks: &[Block], class: Class) -> Vec<f64> {
    blocks
        .iter()
        .flat_map(|b| b.latency_ms[class.index()].iter().copied())
        .collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(blocks: &[Block]) -> Vec<(String, f64, &'static str)> {
    let lat = |c: Class| samples(blocks, c);
    let completed: usize = Class::ALL.iter().map(|c| lat(*c).len()).sum();
    let busy_s: f64 = blocks.iter().map(|b| b.busy_s).sum();
    let of = |f: fn(&Block) -> f64| blocks.iter().map(f).collect::<Vec<_>>();
    vec![
        ("setup_s".into(), median(&of(|b| b.setup_s)), "s"),
        ("ops_per_s".into(), ratio(completed as f64, busy_s), "ops/s"),
        ("peak_rss_mb".into(), median(&of(|b| b.peak_rss_mb)), "MB"),
        (
            "composed_ms_p10".into(),
            quantile(&lat(Class::Composed), 0.10),
            "ms",
        ),
        (
            "union_ms_p10".into(),
            quantile(&lat(Class::Union), 0.10),
            "ms",
        ),
        (
            "update_ms_p10".into(),
            quantile(&lat(Class::Update), 0.10),
            "ms",
        ),
    ]
}

fn run(args: &Args, untraced_ops: Option<f64>) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed, args.trace)?;
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));

    // An untraced run is split into blocks, each with a timed set-up
    // from scratch, an untimed warm-up and then timed whole cycles, so
    // the set-ups sample the host over the same window as the operations
    // do. A traced run is one block.
    let count = if args.trace { 1 } else { BLOCKS };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut check = Check::default();
    let mut cursor = 0usize;
    let mut blocks: Vec<Block> = Vec::with_capacity(count);
    let mut world: Option<World> = None;
    let mut ledger = None;
    let cpu0 = host::CpuTimes::now();
    let switches0 = host::involuntary_switches();
    let start = Instant::now();
    for i in 0..count {
        if let Some(w) = world.take() {
            w.shutdown();
        }
        let mut block = Block::default();
        mix_relang::clear_memo();
        let t = Instant::now();
        let mut w = World::build(&inputs, tracer.as_ref())?;
        block.setup_s = t.elapsed().as_secs_f64();
        check_views(&w, &inputs, &mut check);
        warm_up(&mut w, &inputs, &mut cursor, &mut check);

        host::trim_heap();
        host::reset_peak_rss();
        ledger = tracer.clone().map(|t| Ledger::new(t, &w.mediator));
        let deadline = budget.mul_f64((i + 1) as f64 / count as f64);
        let timed = Instant::now();
        // whole cycles only, so class shares (and per-op counts) are exact
        loop {
            for &class in &inputs.cycle {
                let ns = step(
                    &mut w,
                    &inputs,
                    class,
                    &mut cursor,
                    &mut check,
                    ledger.as_mut(),
                );
                block.latency_ms[class.index()].push(ns / 1e6);
                block.busy_s += ns / 1e9;
            }
            if start.elapsed() >= deadline {
                break;
            }
        }
        block.window_s = timed.elapsed().as_secs_f64();
        block.peak_rss_mb = host::peak_rss_mb();
        blocks.push(block);
        world = Some(w);
    }
    let world = world.expect("at least one block");
    let steal = host::CpuTimes::now().steal_share_since(&cpu0);
    let switches = host::involuntary_switches() - switches0;

    let lat = |c: Class| samples(&blocks, c);
    let completed: usize = Class::ALL.iter().map(|c| lat(*c).len()).sum();
    let window_s: f64 = blocks.iter().map(|b| b.window_s).sum();
    let busy_s: f64 = blocks.iter().map(|b| b.busy_s).sum();
    let window_ops_per_s = ratio(completed as f64, window_s);
    let metrics = match ledger {
        Some(ledger) => ledger.finish(&world, untraced_ops, window_ops_per_s),
        None => end_to_end(&blocks),
    };
    // the median and the tails: reported with the sample counts they rest
    // on but not gated (see NOTES.md)
    let mut tails = String::new();
    for class in Class::ALL {
        let l = &lat(class);
        for (name, p) in [("p50", 0.50), ("p90", 0.90)] {
            let _ = write!(
                tails,
                "\"{}_ms_{name}\": {{\"value\": {}, \"unit\": \"ms\"}}, ",
                class.name(),
                json_number(quantile(l, p))
            );
        }
        if l.len() >= 1000 {
            let _ = write!(
                tails,
                "\"{}_ms_p99\": {{\"value\": {}, \"unit\": \"ms\"}}, ",
                class.name(),
                json_number(quantile(l, 0.99))
            );
        }
    }
    let shares: Vec<String> = Class::ALL
        .iter()
        .map(|c| format!("{} {}", inputs.per_cycle(*c), c.name()))
        .collect();
    let inputs_report = format!(
        "\"inputs\": {{\"parsed_xml_bytes\": {}, \"stream_bytes\": {}, \"pool_queries\": {}, \"cycle\": \"{}\"}}",
        inputs.sources.iter().map(|s| s.xml.len()).sum::<usize>(),
        inputs.stream_bytes.as_ref().map_or(0, |b| b.len()),
        inputs.pool.len(),
        shares.join(" : "),
    );
    let report = format!(
        "{{\"report\": \"{}\", \"seed\": {}, \"traced\": {}, \
         \"samples\": {{\"composed\": {}, \"union\": {}, \"update\": {}}}, \
         \"composed_class\": \"{}\", {inputs_report}, {tails}\"window_s\": {}, \"busy_s\": {}, \
         \"window_ops_per_s\": {}, \"blocks\": {}, \"host_steal_share\": {}, \
         \"client_involuntary_switches\": {}, \"not_composed\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        lat(Class::Composed).len(),
        lat(Class::Union).len(),
        lat(Class::Update).len(),
        if args.workload == Workload::StreamLarge {
            "stream"
        } else {
            "composed"
        },
        window_s,
        busy_s,
        window_ops_per_s,
        blocks.len(),
        steal,
        switches,
        check.not_composed,
    );
    world.shutdown();
    Ok(Outcome {
        metrics,
        check,
        report,
    })
}

/// Checks that every registered view's reference answer validates
/// against the view DTD the mediator inferred for it.
fn check_views(world: &World, inputs: &Inputs, check: &mut Check) {
    for (name, doc) in &inputs.view_answers {
        check.attempted += 1;
        match world.mediator.view_dtd(*name) {
            Some(dtd) if mix_dtd::validate_document(dtd, doc).is_ok() => {}
            Some(_) => check.fail(format!(
                "view {name}: reference answer invalid under its inferred DTD"
            )),
            None => check.fail(format!("view {name} is not registered")),
        }
    }
}

/// Untimed, checked warm-up: every pool query, one union and every flip
/// in both directions, so memos and the regex pool hold everything the
/// timed cycles will ask of them. Every source ends on the schema
/// version it started with.
fn warm_up(world: &mut World, inputs: &Inputs, cursor: &mut usize, check: &mut Check) {
    let runs = [
        (Class::Composed, inputs.pool.len()),
        (Class::Union, 1),
        (Class::Update, 2 * inputs.flipped.len()),
    ];
    for (class, n) in runs {
        for _ in 0..n {
            step(world, inputs, class, cursor, check, None);
        }
    }
}

/// Runs one operation of `class`, checks its answer after the timer
/// stops, and returns its latency in nanoseconds.
fn step(
    world: &mut World,
    inputs: &Inputs,
    class: Class,
    cursor: &mut usize,
    check: &mut Check,
    ledger: Option<&mut Ledger>,
) -> f64 {
    check.attempted += 1;
    let mark = world.mediator.registry().now_ns();
    match class {
        Class::Composed => {
            let i = *cursor % inputs.pool.len();
            *cursor += 1;
            let q = &inputs.pool[i];
            let t = Instant::now();
            let r = world.mediator.query(q);
            let ns = elapsed_ns(t);
            match r {
                Ok(a) => {
                    let t = Instant::now();
                    let got = render(&a.document);
                    let render_ns = elapsed_ns(t);
                    if a.path != AnswerPath::Composed {
                        check.not_composed += 1;
                    }
                    if got != inputs.expected[i] {
                        check.fail(format!(
                            "query {}: answer differs from the reference",
                            q.view_name
                        ));
                    }
                    if let Some(l) = ledger {
                        let op = OpRecord::Composed { query: q };
                        l.account(world, inputs, class, ns, mark, Some(render_ns), op);
                    }
                }
                Err(e) => check.fail(format!("query {}: {e}", q.view_name)),
            }
            ns
        }
        Class::Union => {
            let t = Instant::now();
            let r = world.mediator.materialize_with_report(inputs.union_name);
            let ns = elapsed_ns(t);
            match r {
                Ok((doc, report)) => {
                    let t = Instant::now();
                    let got = render(&doc);
                    let render_ns = elapsed_ns(t);
                    if !report.is_clean() {
                        check.fail(format!("union degraded: {report}"));
                    } else if got != inputs.union_expected {
                        check.fail("union: answer differs from the reference".into());
                    }
                    if let Some(l) = ledger {
                        let op = OpRecord::Union { answer: &doc };
                        l.account(world, inputs, class, ns, mark, Some(render_ns), op);
                    }
                }
                Err(e) => check.fail(format!("union: {e}")),
            }
            ns
        }
        Class::Update => {
            let (source, wrapper) = world.next_flip();
            let mut views: Vec<Name> = inputs
                .views
                .iter()
                .filter(|(s, _)| *s == source)
                .map(|(_, q)| q.view_name)
                .collect();
            if inputs.union_parts.iter().any(|(s, _)| *s == source) {
                views.push(inputs.union_name);
            }
            let before = match &ledger {
                Some(_) => views
                    .iter()
                    .filter_map(|n| world.mediator.view_dtd(*n).map(|d| (*n, d.clone())))
                    .collect(),
                None => Vec::new(),
            };
            let t = Instant::now();
            let r = world.mediator.replace_source(&source, wrapper);
            let ns = elapsed_ns(t);
            match r {
                Ok(_) => {
                    // the re-inferred view DTDs must still describe the
                    // views' reference answers
                    for name in &views {
                        let answer = &inputs
                            .view_answers
                            .iter()
                            .find(|(n, _)| n == name)
                            .expect("reference answer for every view")
                            .1;
                        match world.mediator.view_dtd(*name) {
                            Some(dtd) if mix_dtd::validate_document(dtd, answer).is_ok() => {}
                            _ => check.fail(format!(
                                "update {source}: view {name} no longer describes its answer"
                            )),
                        }
                    }
                    if let Some(l) = ledger {
                        l.account(
                            world,
                            inputs,
                            class,
                            ns,
                            mark,
                            None,
                            OpRecord::Update { before },
                        );
                    }
                }
                Err(e) => check.fail(format!("update {source}: {e}")),
            }
            ns
        }
    }
}
