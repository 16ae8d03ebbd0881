//! Integration tests for the fault-tolerant source layer: graceful union
//! degradation, per-source circuit breakers observable through the
//! mediator, stale-snapshot serving, byte-for-byte report reproducibility
//! under a fixed seed, and fault tolerance across mediator stacking.

use mix::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const N: usize = 10;

fn site_dtd() -> Dtd {
    parse_compact("{<r : a*> <a : PCDATA>}").unwrap()
}

fn site_doc(i: usize) -> Document {
    parse_document(&format!("<r><a>m{i}.0</a><a>m{i}.1</a></r>")).unwrap()
}

fn part_query() -> Query {
    parse_query("u = SELECT X WHERE <r> X:<a/> </r>").unwrap()
}

/// A 10-source federation where each site runs a seeded fault schedule.
fn federation(fault_seed: u64, rate: f64) -> Mediator {
    let mut m = Mediator::new();
    let mut parts = Vec::new();
    for i in 0..N {
        let src = Arc::new(XmlSource::new(site_dtd(), site_doc(i)).unwrap());
        let inj = FaultInjector::seeded(src, fault_seed.wrapping_add(i as u64), rate);
        m.add_source(&format!("site{i}"), Arc::new(inj));
        parts.push((format!("site{i}"), part_query()));
    }
    let refs: Vec<(&str, Query)> = parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    m.register_union_view("u", &refs).unwrap();
    m
}

/// The acceptance scenario: a union over N sources with k failing returns
/// the partial answer plus a report naming each failed source and its
/// breaker state — and the same seed reproduces the report byte for byte.
#[test]
fn degraded_union_report_is_reproducible_byte_for_byte() {
    let run = || {
        let m = federation(42, 0.6);
        let (doc, report) = m.materialize_with_report(name("u")).unwrap();
        (
            write_document(&doc, WriteConfig::default()),
            report.to_string(),
        )
    };
    let (doc_a, report_a) = run();
    let (doc_b, report_b) = run();
    assert_eq!(
        doc_a, doc_b,
        "same seed must reproduce the same partial answer"
    );
    assert_eq!(
        report_a.as_bytes(),
        report_b.as_bytes(),
        "same seed must reproduce the report byte for byte"
    );
    // at rate 0.6 with a 2-retry budget some sites fail and some survive —
    // the report names every site exactly once, with a breaker state each
    let m = federation(42, 0.6);
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert_eq!(report.outcomes.len(), N);
    assert!(
        !report.failed_sources().is_empty(),
        "seed 42 @ 0.6 fails some site"
    );
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.status == FetchStatus::Fresh),
        "seed 42 @ 0.6 serves some site"
    );
    for o in &report.outcomes {
        assert!(report.to_string().contains(&o.source));
        assert!(report
            .to_string()
            .contains(&format!("breaker={}", o.breaker)));
    }
    // a different seed yields a different schedule (and so a different
    // report with overwhelming probability)
    let m2 = federation(43, 0.6);
    let (_, other) = m2.materialize_with_report(name("u")).unwrap();
    assert_ne!(report.to_string(), other.to_string());
}

/// Clean federations stay clean: rate 0 serves every member fresh and the
/// answer equals the concatenation of all members.
#[test]
fn clean_federation_reports_all_fresh() {
    let m = federation(7, 0.0);
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
    assert!(report.union_dtd_covers_survivors);
    assert_eq!(doc.root.children().len(), 2 * N);
}

/// Repeated failures trip a source's breaker open (observable through the
/// mediator), and a later success through the half-open probe re-closes
/// it.
#[test]
fn breaker_lifecycle_is_observable_through_the_mediator() {
    let dtd = site_dtd();
    let src: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(0)).unwrap());
    // calls 0..9 are outages, everything after succeeds
    let mut schedule = BTreeMap::new();
    for call in 0..9u64 {
        schedule.insert(call, Fault::Unavailable);
    }
    let inj = FaultInjector::new(src, FaultPlan::NthCalls(schedule));
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        failure_threshold: 3,
        cooldown_calls: 1,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("s", Arc::new(inj));
    m.register_union_view("u", &[("s", part_query()), ("s", part_query())])
        .unwrap();
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    // each materialization hits the source twice (both union parts);
    // after two rounds (4 outages) the breaker is open
    for _ in 0..2 {
        let _ = m.materialize_with_report(name("u"));
    }
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Open));
    // keep calling: probes burn through the remaining outages, and once
    // the schedule runs dry a probe succeeds and re-closes the breaker
    for _ in 0..8 {
        let _ = m.materialize_with_report(name("u"));
    }
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
}

/// After one clean materialization, a source that goes hard-down keeps
/// serving its last-known-good snapshot, marked stale in the report.
#[test]
fn snapshot_serves_stale_members_after_outage() {
    let dtd = site_dtd();
    let src: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(3)).unwrap());
    // first call clean, everything after a hard outage
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 32]);
    let inj = FaultInjector::new(src, FaultPlan::Script(script));
    let mut m = Mediator::new();
    m.add_source("s", Arc::new(inj));
    m.register_union_view("u", &[("s", part_query())]).unwrap();
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
    assert_eq!(doc.root.children().len(), 2);
    // the outage begins; the snapshot keeps the member alive
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert_eq!(report.outcomes[0].status, FetchStatus::Stale);
    assert!(report.outcomes[0].error.is_some());
    assert_eq!(doc.root.children().len(), 2, "stale member still complete");
    // with stale serving disabled the same situation loses the member
    m.set_resilience_policy(ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    match m.materialize_with_report(name("u")) {
        Err(MediatorError::AllSourcesFailed(_)) => {}
        other => panic!(
            "expected total failure without stale serving, got {:?}",
            other.map(|(_, r)| r)
        ),
    }
}

/// Replacing a source resets its health: breaker re-closed, snapshot
/// dropped.
#[test]
fn replace_source_resets_health() {
    let dtd = site_dtd();
    let down: Arc<dyn Wrapper> = Arc::new(FaultInjector::new(
        Arc::new(XmlSource::new(dtd.clone(), site_doc(0)).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Unavailable); 32]),
    ));
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        failure_threshold: 1,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("s", down);
    m.register_union_view("u", &[("s", part_query())]).unwrap();
    let _ = m.materialize_with_report(name("u"));
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Open));
    let fresh: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(1)).unwrap());
    m.replace_source("s", fresh).unwrap();
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
}

/// A query through `Mediator::query` over a union view carries the
/// degradation report on the materialized path.
#[test]
fn query_answers_carry_the_degradation_report() {
    let m = federation(42, 0.6);
    let q = parse_query("ans = SELECT X WHERE <u> X:<a/> </u>").unwrap();
    let a = m.query(&q).unwrap();
    assert_eq!(a.path, AnswerPath::Materialized);
    let report = a
        .degradation
        .expect("materialized answers carry the report");
    assert_eq!(report.outcomes.len(), N);
    assert!(!report.failed_sources().is_empty());
}

/// Stacked mediators propagate lower-level failures as source faults, so
/// the upper mediator's own resilience (snapshots included) applies.
#[test]
fn stacked_mediator_survives_lower_level_outage() {
    let dtd = site_dtd();
    // lower mediator: one source that dies after its first clean call
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 32]);
    let inj = FaultInjector::new(
        Arc::new(XmlSource::new(dtd, site_doc(5)).unwrap()),
        FaultPlan::Script(script),
    );
    let mut lower = Mediator::new();
    lower.set_resilience_policy(ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    lower.add_source("s", Arc::new(inj));
    let v = parse_query("lowview = SELECT X WHERE <r> X:<a/> </r>").unwrap();
    lower.register_view("s", &v).unwrap();
    let lower = Arc::new(lower);
    let exported = ViewWrapper::new(Arc::clone(&lower), name("lowview")).unwrap();

    let mut upper = Mediator::new();
    upper.add_source("low", Arc::new(exported));
    let uq = parse_query("top = SELECT X WHERE <lowview> X:<a/> </lowview>").unwrap();
    upper.register_union_view("top", &[("low", uq)]).unwrap();
    // first materialization is clean and captures the upper snapshot
    let (_, report) = upper.materialize_with_report(name("top")).unwrap();
    assert!(report.is_clean());
    // the lower source is now down and the lower mediator does not serve
    // stale — but the *upper* mediator's snapshot keeps the view alive
    let (doc, report) = upper.materialize_with_report(name("top")).unwrap();
    assert_eq!(report.outcomes[0].status, FetchStatus::Stale);
    assert_eq!(doc.root.children().len(), 2);
}

/// A wrapper whose every call panics — a bug in a source adapter.
struct Panicking(Dtd);

impl Wrapper for Panicking {
    fn dtd(&self) -> &Dtd {
        &self.0
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        panic!("adapter bug")
    }

    fn answer(&self, _: &Query) -> Result<Document, SourceError> {
        panic!("adapter bug")
    }
}

fn panic_fault(source: &str) -> SourceError {
    SourceError::Unavailable(format!("wrapper for '{source}' panicked: adapter bug"))
}

/// A panicking union member is a per-source fault, not a crashed
/// request: the other members still serve, the report carries a
/// deterministic error, and the breaker counts it like any fault.
#[test]
fn panicking_union_member_is_a_source_fault() {
    let mut m = Mediator::new();
    m.add_source(
        "good",
        Arc::new(XmlSource::new(site_dtd(), site_doc(0)).unwrap()),
    );
    m.add_source("bad", Arc::new(Panicking(site_dtd())));
    m.register_union_view("u", &[("good", part_query()), ("bad", part_query())])
        .unwrap();
    for _ in 0..3 {
        let (doc, report) = m.materialize_with_report(name("u")).unwrap();
        assert_eq!(doc.root.children().len(), 2, "the good member serves");
        assert_eq!(report.outcomes[0].status, FetchStatus::Fresh);
        assert_eq!(report.outcomes[1].status, FetchStatus::Failed);
        assert_eq!(report.outcomes[1].error, Some(panic_fault("bad")));
    }
    assert_eq!(
        m.breaker_state("bad"),
        Some(BreakerState::Open),
        "three panics trip the default breaker"
    );
}

/// The same inside a 2-shard federation: the shard holding the
/// panicking member still answers its other members, and the global
/// answer keeps every healthy member.
#[test]
fn panicking_member_in_a_two_shard_federation_is_a_source_fault() {
    let parts: Vec<FederationPart> = (0..6)
        .map(|i| {
            let wrapper: Arc<dyn Wrapper> = if i == 2 {
                Arc::new(Panicking(site_dtd()))
            } else {
                Arc::new(XmlSource::new(site_dtd(), site_doc(i)).unwrap())
            };
            FederationPart {
                source: format!("site{i}"),
                wrapper,
                query: part_query(),
            }
        })
        .collect();
    let fed = Federation::build("u", parts, 2, Registry::new()).unwrap();
    assert_eq!(fed.shards().len(), 2, "six sources span both shards");
    let (doc, report) = fed.materialize_with_report().unwrap();
    assert_eq!(
        doc.root.children().len(),
        10,
        "five healthy members, two each"
    );
    for (i, o) in report.outcomes.iter().enumerate() {
        if i == 2 {
            assert_eq!(o.status, FetchStatus::Failed);
            assert_eq!(o.error, Some(panic_fault("site2")));
        } else {
            assert_eq!(o.status, FetchStatus::Fresh, "{report}");
        }
    }
}

/// A stacked mediator keeps `Wrapper::answer`'s contract: when a lower
/// union degrades to a partial answer its view DTD no longer covers, the
/// exported view answers `DtdInvalid` instead of an invalid document.
#[test]
fn uncovered_partial_lower_union_is_dtd_invalid_upstairs() {
    let root_query = || parse_query("low = SELECT X WHERE X:<r/>").unwrap();
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 32]);
    let dying = FaultInjector::new(
        Arc::new(XmlSource::new(site_dtd(), site_doc(1)).unwrap()),
        FaultPlan::Script(script),
    );
    let no_stale = ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    };
    let mut lower = Mediator::new();
    lower.set_resilience_policy(no_stale);
    lower.add_source(
        "s0",
        Arc::new(XmlSource::new(site_dtd(), site_doc(0)).unwrap()),
    );
    lower.add_source("s1", Arc::new(dying));
    // each member contributes exactly one <r>: the view DTD says `r, r`
    lower
        .register_union_view("low", &[("s0", root_query()), ("s1", root_query())])
        .unwrap();
    let lower = Arc::new(lower);
    let exported = ViewWrapper::new(Arc::clone(&lower), name("low")).unwrap();

    let mut upper = Mediator::new();
    upper.set_resilience_policy(no_stale);
    upper.add_source("low", Arc::new(exported));
    let top = parse_query("top = SELECT X WHERE <low> X:<r/> </low>").unwrap();
    upper.register_view("low", &top).unwrap();
    let healthy = upper.materialize(name("top")).unwrap();
    assert_eq!(healthy.root.children().len(), 2);
    match upper.materialize(name("top")) {
        Err(MediatorError::Source {
            error: SourceError::DtdInvalid(_),
            ..
        }) => {}
        other => panic!("expected a DTD violation upstairs, got {other:?}"),
    }
}
