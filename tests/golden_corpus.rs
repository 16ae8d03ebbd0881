//! Golden-corpus regression harness: every D×Q pairing the paper tests
//! exercise, snapshotted end-to-end (normalized query, verdict, list
//! type, inferred s-DTD, merged view DTD, merged names) into
//! `tests/golden/*.txt`.
//!
//! On drift the test prints a unified diff of golden vs. actual. To
//! accept new output intentionally, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```

use mix::dtd::paper::{d11_department, d1_department, d9_professor, section_recursive};
use mix::prelude::*;
use mix::xmas::paper::{q12_papers, q2_with_journals, q3_publist, q6_answer, q7_answer};
use mix_bench::{chain_workload, deep_section_query, wide_chain_workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The corpus: one named case per (source DTD, query) pairing that
/// `tests/paper_examples.rs` runs through the inference pipeline.
fn corpus() -> Vec<(&'static str, Dtd, Query)> {
    let verdict_triple = [
        // E11's three classification outcomes over D1.
        (
            "d1-valid-professor",
            "v = SELECT P WHERE <department> P:<professor/> </>",
        ),
        (
            "d1-satisfiable-professor",
            "v = SELECT P WHERE <department> <name>CS</name> P:<professor/> </>",
        ),
        (
            "d1-unsatisfiable-publication",
            "v = SELECT P WHERE <department> P:<publication/> </>",
        ),
    ];
    let mut cases = vec![
        ("d1-q2-with-journals", d1_department(), q2_with_journals()),
        ("d1-q3-publist", d1_department(), q3_publist()),
        ("d11-q3-publist", d11_department(), q3_publist()),
        ("d11-q12-papers", d11_department(), q12_papers()),
        ("d9-q6-answer", d9_professor(), q6_answer()),
        ("d9-q7-answer", d9_professor(), q7_answer()),
        (
            "section-recursive-subsections",
            section_recursive(),
            parse_query("subs = SELECT S WHERE <section> <prolog/> S:<section/> </>").unwrap(),
        ),
    ];
    for (name, src) in verdict_triple {
        cases.push((name, d1_department(), parse_query(src).unwrap()));
    }
    // Merge chains: inference over an *inferred* view DTD — the stacked-
    // mediator scenario, where a lower mediator exports D2 (inferred from
    // Q2/D1) or D10 (inferred from Q6/D9) and a higher one infers again.
    let d2 = infer_view_dtd(&q2_with_journals(), &d1_department())
        .expect("Q2/D1 infers")
        .dtd;
    cases.push((
        "d2-q3-merge-chain",
        d2,
        parse_query(
            "pubs = SELECT P WHERE <withJournals> <professor | gradStudent> \
             P:<publication/> </> </>",
        )
        .unwrap(),
    ));
    let d10 = infer_view_dtd(&q6_answer(), &d9_professor())
        .expect("Q6/D9 infers")
        .dtd;
    cases.push((
        "d10-merge-chain",
        d10,
        parse_query("profs = SELECT X WHERE <answer> X:<professor><journal/></professor> </>")
            .unwrap(),
    ));
    // X18's inference workloads (`benches/intern.rs`): the four-level
    // section query over the recursive DTD, the 12-level InferList chain
    // and its 32-wide variant. D11/Q3 is `d11-q3-publist` above.
    cases.push((
        "x18-section-recursive-depth4",
        section_recursive(),
        deep_section_query(),
    ));
    let (chain_dtd, chain_q) = chain_workload(12);
    cases.push(("x18-chain-depth12", chain_dtd, chain_q));
    let (wide_dtd, wide_q) = wide_chain_workload(12, 32);
    cases.push(("x18-wide-chain-depth12-width32", wide_dtd, wide_q));
    cases
}

/// Renders the snapshot text for one case. Everything here is
/// deterministic across runs and processes (merged names are sorted by
/// the pipeline; Display orders are structural).
fn snapshot(dtd: &Dtd, query: &Query) -> String {
    let iv = infer_view_dtd(query, dtd).expect("corpus query infers");
    let mut out = String::new();
    writeln!(out, "query: {}", iv.query).unwrap();
    writeln!(out, "verdict: {:?}", iv.verdict).unwrap();
    writeln!(out, "list type: {}", iv.list_type).unwrap();
    let merged: Vec<&str> = iv.merged_names.iter().map(|n| n.as_str()).collect();
    writeln!(out, "merged names: [{}]", merged.join(", ")).unwrap();
    writeln!(out, "s-DTD:\n{}", iv.sdtd).unwrap();
    writeln!(out, "merged DTD:\n{}", iv.dtd).unwrap();
    out
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case}.txt"))
}

/// A minimal unified diff: common prefix/suffix, `-`/`+` for the changed
/// middle. Enough to read a drifted snapshot at a glance.
fn unified_diff(golden: &str, actual: &str) -> String {
    let a: Vec<&str> = golden.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    let mut start = 0;
    while start < a.len() && start < b.len() && a[start] == b[start] {
        start += 1;
    }
    let mut aend = a.len();
    let mut bend = b.len();
    while aend > start && bend > start && a[aend - 1] == b[bend - 1] {
        aend -= 1;
        bend -= 1;
    }
    let mut out = String::from("--- golden\n+++ actual\n");
    let ctx = 3usize;
    for line in &a[start.saturating_sub(ctx)..start] {
        writeln!(out, "  {line}").unwrap();
    }
    for line in &a[start..aend] {
        writeln!(out, "- {line}").unwrap();
    }
    for line in &b[start..bend] {
        writeln!(out, "+ {line}").unwrap();
    }
    for line in &a[aend..(aend + ctx).min(a.len())] {
        writeln!(out, "  {line}").unwrap();
    }
    out
}

#[test]
fn golden_corpus() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let mut failures = Vec::new();
    for (case, dtd, query) in corpus() {
        let actual = snapshot(&dtd, &query);
        let path = golden_path(case);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == actual => {}
            Ok(golden) => failures.push(format!(
                "{case}: snapshot drifted from {}:\n{}",
                path.display(),
                unified_diff(&golden, &actual)
            )),
            Err(e) => failures.push(format!(
                "{case}: cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test \
                 golden_corpus` to generate it",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden case(s) failed:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The satisfiability corpus behind `mixctl explain --sat`: two provably
/// unsatisfiable query shapes per representative source DTD — a
/// wrong-tag child step and an impossible sibling pair — plus one
/// satisfiable control. Pins the verdict `Display` (witness path
/// included) and the skip decision exactly as the CLI prints them.
#[test]
fn sat_explain_golden() {
    let cases: Vec<(&str, Dtd, &str)> = vec![
        (
            "d1 wrong-child-tag",
            d1_department(),
            "none = SELECT C WHERE <department> <professor> C:<course/> </> </>",
        ),
        (
            "d1 impossible-siblings",
            d1_department(),
            "b = SELECT T WHERE <department> <professor> <publication> \
             T:<title/> <journal/> <conference/> </> </> </>",
        ),
        (
            "d9 wrong-child-tag",
            d9_professor(),
            "v = SELECT P WHERE <professor> P:<publication/> </>",
        ),
        (
            "d9 impossible-siblings",
            d9_professor(),
            "v = SELECT N WHERE <professor> N:<name/> <name/> </>",
        ),
        (
            "d1 satisfiable-control",
            d1_department(),
            "pubs = SELECT P WHERE <department> <professor> P:<publication/> </> </>",
        ),
    ];
    let mut actual = String::new();
    for (case, dtd, src) in &cases {
        let verdict = check_sat(&parse_query(src).unwrap(), dtd);
        let action = if verdict.is_unsat() {
            "fetch skipped"
        } else {
            "fetch proceeds"
        };
        writeln!(actual, "{case}: {verdict} [{action}]").unwrap();
    }
    let path = golden_path("sat-explain");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == actual => {}
        Ok(golden) => panic!(
            "sat-explain corpus drifted from {}:\n{}",
            path.display(),
            unified_diff(&golden, &actual)
        ),
        Err(e) => panic!(
            "cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden_corpus`",
            path.display()
        ),
    }
}

/// The snapshots themselves must be reproducible: rendering a case twice
/// in the same process (fresh fixture objects, so fresh intern order
/// downstream) yields byte-identical text.
#[test]
fn snapshots_are_deterministic_within_a_run() {
    for (case, dtd, query) in corpus() {
        let first = snapshot(&dtd, &query);
        let second = snapshot(&dtd, &query);
        assert_eq!(first, second, "{case} rendered differently on a second run");
    }
}

/// Pins the `mixctl stats --format prom` text exposition byte-for-byte:
/// a manual-clock registry driven through the real serving stack (so the
/// metric names are the ones production emits), plus hand-fed histogram
/// observations to exercise bucket/quantile rendering. Any change to the
/// exposition format or to the serving stack's metric names shows up
/// here as a diff.
#[test]
fn obs_stats_exposition_golden() {
    use std::sync::Arc;

    let registry = Registry::with_manual_clock();
    let mut m =
        mix::mediator::Mediator::with_registry(ProcessorConfig::default(), registry.clone());
    let doc = parse_document(
        "<department><name>CS</name>\
           <professor><firstName>Y</firstName><lastName>P</lastName>\
             <publication><title>t</title><author>a</author><journal/></publication>\
             <teaches/></professor>\
           <gradStudent><firstName>G</firstName><lastName>S</lastName>\
             <publication><title>u</title><author>a</author><conference/></publication>\
           </gradStudent></department>",
    )
    .unwrap();
    m.add_source(
        "site0",
        Arc::new(XmlSource::new(d1_department(), doc).unwrap()),
    );
    let vq = parse_query("profs = SELECT P WHERE <department> P:<professor/> </>").unwrap();
    m.register_view("site0", &vq).unwrap();
    m.materialize(name("profs")).expect("clean materialize");
    m.query(&parse_query("pq = SELECT X WHERE <profs> X:<professor/> </profs>").unwrap())
        .expect("view query answers");
    // an unsatisfiable view: the satisfiability analyzer proves it empty
    // and the fetch is skipped, so the `sat_*` family lands in the
    // exposition with production-path values rather than hand-fed ones
    let uq =
        parse_query("none = SELECT C WHERE <department> <professor> C:<course/> </> </>").unwrap();
    m.register_view("site0", &uq).unwrap();
    m.materialize(name("none")).expect("pruned materialize");
    // deterministic non-zero distributions: the manual clock never
    // advances mid-call, so the stack's own timers all record 0 — feed
    // the named histograms a fixed spread instead
    for v in [800u64, 1_500, 3_000, 250_000, 1_000_000] {
        registry.histogram("mediator_answer_latency_ns").observe(v);
    }
    registry
        .histogram("source_fetch_latency_ns{source=\"site0\"}")
        .observe(12_000);
    registry.advance_clock_ns(5_000);
    registry.event(
        "breaker-open",
        "source 'site0': opened after 3 consecutive failures",
    );
    // the `mixctl stats` surface of a `--store-dir` daemon: the warm-start
    // store's counters and the regex-pool gauges sit in the same
    // exposition as the serving instruments. The real values vary run to
    // run (pool size depends on test order, load time on the disk), so a
    // fixed spread is fed by name — pinning the names and the rendering.
    registry.counter("store_loads_total").add(42);
    registry.counter("store_load_skipped_total").add(2);
    registry.counter("store_writes_total").add(7);
    registry.counter("store_compactions_total").add(1);
    registry.counter("store_bytes_total").add(16_384);
    registry.histogram("store_load_ns").observe(750_000);
    registry.gauge("relang_pool_nodes").set(512);
    registry.gauge("relang_pool_bytes").set(98_304);
    registry.counter("relang_pool_intern_hits_total").add(1_024);
    registry.counter("relang_pool_intern_misses_total").add(512);

    let snap = registry.snapshot();
    // pin both wire renderings: Prometheus text and the JSON the
    // `Msg::Stats` reply carries (the `--format json` default)
    for (actual, case) in [
        (snap.to_prometheus(), "obs-stats-exposition"),
        (snap.to_json() + "\n", "obs-stats-exposition-json"),
    ] {
        let path = golden_path(case);
        if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == actual => {}
            Ok(golden) => panic!(
                "obs exposition drifted from {}:\n{}",
                path.display(),
                unified_diff(&golden, &actual)
            ),
            Err(e) => panic!(
                "cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden_corpus`",
                path.display()
            ),
        }
    }
}
