//! Query pushdown through `Wrapper::answer`: the mediator asks each
//! wrapper for the answer to a normalized query, never for its whole
//! document. These tests pin the call counts, the bytes a remote answer
//! moves, where DTD violations are detected, and the per-query stale
//! answers that replace whole-document snapshots.

use mix::mediator::{resilient_answer, Health, SourceInstruments, LAST_GOOD_CAP};
use mix::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

fn site_dtd() -> Dtd {
    parse_compact(SITE_DTD).unwrap()
}

fn site_doc(entries: usize) -> Document {
    let body: String = (0..entries)
        .map(|i| format!("<entry>e{i}</entry>"))
        .collect();
    parse_document(&format!("<site>{body}</site>")).unwrap()
}

fn site_source(entries: usize) -> XmlSource {
    XmlSource::new(site_dtd(), site_doc(entries)).unwrap()
}

fn view_query() -> Query {
    parse_query("v = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
}

/// A composed query over `v` picking the one entry whose text is `e{i}`.
fn entry_query(i: usize) -> Query {
    parse_query(&format!(
        "ans = SELECT Y WHERE <v> Y:<entry>e{i}</entry> </v>"
    ))
    .unwrap()
}

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

/// Counts the calls a mediator makes into an [`XmlSource`].
struct Counting {
    inner: XmlSource,
    fetches: Arc<AtomicUsize>,
    answers: Arc<AtomicUsize>,
}

impl Wrapper for Counting {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        self.inner.fetch()
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        self.answers.fetch_add(1, Ordering::SeqCst);
        self.inner.answer(q)
    }
}

/// A mediator with the single-source view `v` over `wrapper`.
fn mediator(wrapper: Arc<dyn Wrapper>) -> Mediator {
    let mut m = Mediator::new();
    m.add_source("s", wrapper);
    m.register_view("s", &view_query()).unwrap();
    m
}

#[test]
fn composed_queries_and_materializations_answer_without_fetching() {
    let fetches = Arc::new(AtomicUsize::new(0));
    let answers = Arc::new(AtomicUsize::new(0));
    let m = mediator(Arc::new(Counting {
        inner: site_source(20),
        fetches: Arc::clone(&fetches),
        answers: Arc::clone(&answers),
    }));
    let reference = site_source(20);

    let a = m.query(&entry_query(7)).unwrap();
    assert_eq!(a.path, AnswerPath::Composed);
    assert_eq!(a.document.root.children().len(), 1);
    assert_eq!(
        (
            fetches.load(Ordering::SeqCst),
            answers.load(Ordering::SeqCst)
        ),
        (0, 1)
    );

    let doc = m.materialize(name("v")).unwrap();
    assert_eq!(
        render(&doc),
        render(&reference.answer(&view_query()).unwrap())
    );
    assert_eq!(
        (
            fetches.load(Ordering::SeqCst),
            answers.load(Ordering::SeqCst)
        ),
        (0, 2)
    );
}

#[test]
fn remote_answers_move_fewer_bytes_than_the_document() {
    let registry = Registry::new();
    let source = site_source(400);
    let document_bytes = render(source.document()).len() as u64;
    let daemon = Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(source)),
        ServerConfig::default(),
    )
    .unwrap()
    .with_registry(&registry)
    .spawn()
    .unwrap();
    let remote = RemoteWrapper::connect(&daemon.addr().to_string()).unwrap();
    let m = mediator(Arc::new(remote));
    let moved = || {
        let c = registry.snapshot().counters;
        c["net_bytes_in_total"] + c["net_bytes_out_total"]
    };
    let before = moved();
    let a = m.query(&entry_query(123)).unwrap();
    let bytes = moved() - before;
    assert_eq!(a.path, AnswerPath::Composed);
    let local = mediator(Arc::new(site_source(400)));
    let reference = local.query(&entry_query(123)).unwrap();
    assert_eq!(render(&a.document), render(&reference.document));
    assert!(
        bytes < document_bytes,
        "a one-entry answer moved {bytes} bytes; the document renders to {document_bytes}"
    );
    drop(m);
    daemon.shutdown();
}

fn violating(script: Vec<Option<Fault>>) -> FaultInjector {
    FaultInjector::new(Arc::new(site_source(3)), FaultPlan::Script(script))
}

fn no_stale() -> ResiliencePolicy {
    ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    }
}

fn source_error(r: Result<Document, MediatorError>) -> SourceError {
    match r {
        Err(MediatorError::Source { error, .. }) => error,
        other => panic!("expected a source failure, got {other:?}"),
    }
}

#[test]
fn dtd_violations_surface_in_process_and_over_the_wire() {
    // in process: the default `answer` validates what the injector fetches
    let mut m = mediator(Arc::new(violating(vec![Some(Fault::DtdViolate)])));
    m.set_resilience_policy(no_stale());
    let e = source_error(m.materialize(name("v")));
    assert!(matches!(e, SourceError::DtdInvalid(_)), "got {e:?}");

    // over the wire: the daemon's wrapper validates, the violation comes
    // back as a `dtd-invalid` fault
    let daemon = Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(violating(vec![Some(
            Fault::DtdViolate,
        )]))),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let remote = RemoteWrapper::connect(&daemon.addr().to_string()).unwrap();
    let mut m = mediator(Arc::new(remote));
    m.set_resilience_policy(no_stale());
    let e = source_error(m.materialize(name("v")));
    assert!(matches!(e, SourceError::DtdInvalid(_)), "got {e:?}");
    // the schedule ran dry: the next answer is clean
    assert_eq!(m.materialize(name("v")).unwrap().root.children().len(), 3);
    drop(m);
    daemon.shutdown();
}

#[test]
fn last_good_answers_stay_under_their_bound() {
    let source = site_source(LAST_GOOD_CAP + 8);
    let health = Mutex::new(Health::new());
    let policy = ResiliencePolicy::default();
    for i in 0..LAST_GOOD_CAP + 8 {
        let q = parse_query(&format!(
            "ans = SELECT X WHERE <site> X:<entry>e{i}</entry> </site>"
        ))
        .unwrap();
        let (doc, outcome) = resilient_answer(
            "s",
            &source,
            &q,
            &policy,
            &health,
            &SourceInstruments::noop("s"),
        );
        assert_eq!(outcome.status, FetchStatus::Fresh);
        assert_eq!(doc.unwrap().root.children().len(), 1);
        let held = health.lock().unwrap().last_good_answers();
        assert!(held <= LAST_GOOD_CAP, "{held} last-good answers held");
    }
    // the cap'th distinct query wiped the map; the rest rebuilt it
    assert_eq!(health.lock().unwrap().last_good_answers(), 8);
}

#[test]
fn only_queries_answered_while_healthy_can_go_stale() {
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 16]);
    let m = mediator(Arc::new(violating(script)));
    let healthy = m.query(&entry_query(1)).unwrap();
    assert!(healthy.degradation.is_none());

    // the outage begins: the answered query is served stale…
    let stale = m.query(&entry_query(1)).unwrap();
    let report = stale.degradation.expect("a stale answer carries a report");
    assert_eq!(report.outcomes[0].status, FetchStatus::Stale);
    assert_eq!(render(&stale.document), render(&healthy.document));

    // …but a query never answered while healthy has nothing to fall back
    // to, even though its answer is a subset of the source document
    let e = m.query(&entry_query(2)).map(|a| a.document);
    assert!(matches!(source_error(e), SourceError::Unavailable(_)));
}

/// Under a mediator a streaming source answers by its one-pass stream,
/// which trusts the DTD as the stream's contract; only the materializing
/// `!=` fallback validates.
#[test]
fn streaming_sources_answer_by_streaming_under_a_mediator() {
    let d1 = mix::dtd::paper::d1_department();
    // well-formed, but D1 requires a gradStudent
    const INVALID: &str = "<department><name>CS</name>\
        <professor><firstName>Y</firstName><lastName>P</lastName>\
          <publication id='p1'><title>t</title><author>a</author><journal/></publication>\
          <publication id='p2'><title>u</title><author>a</author><journal/></publication>\
          <teaches/></professor></department>";
    let wrapper = StreamingWrapper::new(
        d1.clone(),
        Box::new(|| Ok(Box::new(INVALID.as_bytes()) as Box<dyn std::io::Read + Send>)),
    );
    let mut m = Mediator::new();
    m.add_source("s", Arc::new(wrapper));
    m.set_resilience_policy(no_stale());
    let profs =
        parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>").unwrap();
    m.register_view("s", &profs).unwrap();
    let streamed = mix::obs::global().counter("stream_queries_streamed_total");
    let before = streamed.get();
    let doc = m.materialize(name("profs")).unwrap();
    assert_eq!(streamed.get(), before + 1, "answered by the streamed pass");
    let reference = evaluate(
        &normalize(&profs, &d1).unwrap(),
        &parse_document(INVALID).unwrap(),
    );
    assert_eq!(render(&doc), render(&reference));

    let multi = parse_query(
        "multi = SELECT P WHERE <department> P:<professor> \
           <publication id=A/> <publication id=B/> </> </department> AND A != B",
    )
    .unwrap();
    m.register_view("s", &multi).unwrap();
    let e = source_error(m.materialize(name("multi")));
    assert!(matches!(e, SourceError::DtdInvalid(_)), "got {e:?}");
}
