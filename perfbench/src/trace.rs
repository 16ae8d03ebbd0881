//! The traced run's instruments, all outside the program: a delegating
//! `Wrapper` around every source, a delegating `WireService` around every
//! daemon's service, readings of the spans and counters the program
//! already exports, and timed replays of the stages it exports nothing
//! for (run on the operation's own inputs right after the operation,
//! timed apart from it).

use crate::inputs::{render, Class, Inputs};
use crate::stats::ratio;
use crate::world::World;
use mix_dtd::Dtd;
use mix_mediator::{compose, Mediator, SourceError, Wrapper};
use mix_net::{WireFault, WireService};
use mix_obs::{Registry, Snapshot, SpanSnapshot};
use mix_relang::symbol::Name;
use mix_stream::{stream_eval, CompiledQuery, EventReader, XmlEvent};
use mix_xmas::{evaluate, normalize, Query};
use mix_xml::{parse_document, Document};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call into a source, seen by its [`Probe`].
struct Call {
    source: Arc<str>,
    answer: bool,
    ns: f64,
}

/// Logs shared by the probes, the timed daemon services and the ledger.
pub struct Tracer {
    calls: Mutex<Vec<Call>>,
    server_ns: Mutex<Vec<f64>>,
    daemons: Registry,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            calls: Mutex::new(Vec::new()),
            server_ns: Mutex::new(Vec::new()),
            daemons: Registry::new(),
        }
    }

    /// The registry every loopback daemon records its `net_*` metrics in.
    pub fn daemon_registry(&self) -> &Registry {
        &self.daemons
    }

    fn drain_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *lock(&self.calls))
    }

    fn drain_server(&self) -> Vec<f64> {
        std::mem::take(&mut *lock(&self.server_ns))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Runs `f`, returning its result and how long it took in nanoseconds.
/// The result passes through `black_box` so that a replay whose result
/// is dropped is still computed.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, elapsed_ns(t))
}

/// A delegating wrapper that counts and times every call into a source.
pub struct Probe {
    source: Arc<str>,
    inner: Arc<dyn Wrapper>,
    tracer: Arc<Tracer>,
}

impl Probe {
    pub fn new(source: &str, inner: Arc<dyn Wrapper>, tracer: Arc<Tracer>) -> Probe {
        Probe {
            source: source.into(),
            inner,
            tracer,
        }
    }

    fn log(&self, answer: bool, t: Instant) {
        let ns = elapsed_ns(t);
        lock(&self.tracer.calls).push(Call {
            source: Arc::clone(&self.source),
            answer,
            ns,
        });
    }
}

impl Wrapper for Probe {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        let t = Instant::now();
        let r = self.inner.fetch();
        self.log(false, t);
        r
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        let t = Instant::now();
        let r = self.inner.answer(q);
        self.log(true, t);
        r
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        let t = Instant::now();
        let r = self.inner.answer_batch(queries);
        self.log(true, t);
        r
    }
}

/// A delegating wire service that times every answer a daemon computes.
pub struct TimedService<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TimedService<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> TimedService<S> {
        TimedService { inner, tracer }
    }
}

impl<S: WireService> WireService for TimedService<S> {
    fn export_dtd(&self) -> String {
        self.inner.export_dtd()
    }

    fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
        let (r, ns) = timed(|| self.inner.answer(query));
        lock(&self.tracer.server_ns).push(ns);
        r
    }

    fn stats(&self) -> Option<String> {
        self.inner.stats()
    }
}

/// What the ledger needs to know about one finished operation.
pub enum OpRecord<'a> {
    Composed {
        query: &'a Query,
    },
    Union {
        answer: &'a Document,
    },
    /// The flipped source and, for every view over it, its DTD before.
    Update {
        before: Vec<(Name, Dtd)>,
    },
}

/// A running total and the number of operations that contributed to it.
#[derive(Default, Clone, Copy)]
struct Acc {
    total: f64,
    n: f64,
}

impl Acc {
    fn add(&mut self, v: f64) {
        self.total += v;
        self.n += 1.0;
    }

    fn mean(&self) -> f64 {
        ratio(self.total, self.n)
    }
}

/// Counter readings taken at the start of the timed phase.
struct Baseline {
    mediator: Snapshot,
    global: Snapshot,
    daemons: Snapshot,
}

/// Per-layer accounting for the traced run.
pub struct Ledger {
    tracer: Arc<Tracer>,
    base: Baseline,
    /// Stage times in ns, averaged over the operations that ran them.
    stages: BTreeMap<&'static str, Acc>,
    /// Per class: latency and attributed time (ns) and operation count.
    latency: [Acc; 3],
    attributed: [f64; 3],
    union_overhead: Acc,
    /// Per union: the members' critical paths, summed.
    union_members: Acc,
    source_call: Acc,
    rtt: Acc,
    server: Acc,
    fetch_calls: f64,
    answer_calls: f64,
    ops: f64,
    read: (f64, f64),
    eval: (f64, f64),
    peak_state: usize,
    sat_ns: u64,
    parse_misses: u64,
    pool_nodes_after_warmup: i64,
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn hist_sum(s: &Snapshot, name: &str) -> u64 {
    s.histograms.get(name).map_or(0, |h| h.sum)
}

/// The spans recorded since `mark` (registry clock).
fn since(s: &Snapshot, mark: u64) -> Vec<&SpanSnapshot> {
    s.spans.iter().filter(|sp| sp.start_ns >= mark).collect()
}

fn span_total(spans: &[&SpanSnapshot], stage: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.dur_ns as f64)
        .sum()
}

/// Total self time of the `stage` spans: each span's duration minus the
/// part of it that other spans of the same trace nested inside cover.
fn self_time(spans: &[&SpanSnapshot], stage: &str) -> f64 {
    let mut total = 0.0;
    for s in spans.iter().filter(|s| s.stage == stage) {
        let end = s.start_ns + s.dur_ns;
        let mut inner: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| {
                !std::ptr::eq(**c, *s)
                    && c.trace == s.trace
                    && c.start_ns >= s.start_ns
                    && c.start_ns + c.dur_ns <= end
            })
            .map(|c| (c.start_ns, c.start_ns + c.dur_ns))
            .collect();
        inner.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in inner {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        total += s.dur_ns.saturating_sub(covered) as f64;
    }
    total
}

fn global_counter(name: &str) -> u64 {
    mix_obs::global().counter(name).get()
}

impl Ledger {
    /// Starts accounting; call right before the timed phase.
    pub fn new(tracer: Arc<Tracer>, mediator: &Mediator) -> Ledger {
        // calls and answers logged before the timed phase are not its own
        tracer.drain_calls();
        tracer.drain_server();
        let mediator = mediator.registry().snapshot();
        Ledger {
            sat_ns: hist_sum(&mediator, "sat_check_ns"),
            parse_misses: global_counter("wire_parse_memo_misses_total"),
            pool_nodes_after_warmup: mix_obs::global().gauge("relang_pool_nodes").get(),
            base: Baseline {
                mediator,
                global: mix_obs::global().snapshot(),
                daemons: tracer.daemon_registry().snapshot(),
            },
            tracer,
            stages: BTreeMap::new(),
            latency: [Acc::default(); 3],
            attributed: [0.0; 3],
            union_overhead: Acc::default(),
            union_members: Acc::default(),
            source_call: Acc::default(),
            rtt: Acc::default(),
            server: Acc::default(),
            fetch_calls: 0.0,
            answer_calls: 0.0,
            ops: 0.0,
            read: (0.0, 0.0),
            eval: (0.0, 0.0),
            peak_state: 0,
        }
    }

    fn stage(&mut self, name: &'static str, ns: f64) {
        self.stages.entry(name).or_default().add(ns);
    }

    /// Accounts one operation: `latency_ns` as the client timed it,
    /// `mark` the registry clock right before it, and `render_ns` the
    /// time the client took to render the answer for checking.
    #[allow(clippy::too_many_arguments)]
    pub fn account(
        &mut self,
        world: &World,
        inputs: &Inputs,
        class: Class,
        latency_ns: f64,
        mark: u64,
        render_ns: Option<f64>,
        op: OpRecord<'_>,
    ) {
        let m = &world.mediator;
        let snap = m.registry().snapshot();
        let spans = since(&snap, mark);
        let sat_now = hist_sum(&snap, "sat_check_ns");
        let sat = sat_now.saturating_sub(self.sat_ns) as f64;
        self.sat_ns = sat_now;
        let misses_now = global_counter("wire_parse_memo_misses_total");
        let parse_missed = misses_now > self.parse_misses;
        self.parse_misses = misses_now;
        let calls = self.tracer.drain_calls();
        let server: Vec<f64> = self.tracer.drain_server();
        let remote = inputs.workload == crate::Workload::ServeRemote;

        self.ops += 1.0;
        for c in &calls {
            if c.answer {
                self.answer_calls += 1.0;
            } else {
                self.fetch_calls += 1.0;
            }
            if remote {
                self.rtt.add(c.ns);
            }
        }
        for ns in &server {
            self.server.add(*ns);
        }
        let call_total: f64 = calls.iter().map(|c| c.ns).sum();
        if !calls.is_empty() {
            self.source_call.add(call_total);
        }
        if sat > 0.0 {
            self.stage("sat.check", sat);
        }
        if let Some(r) = render_ns {
            self.stage("xml.render", r);
        }

        let attributed = match op {
            OpRecord::Composed { query } => {
                let view_name = query.root.test.names()[0];
                let view = m
                    .view(view_name)
                    .expect("pool queries address registered views");
                let view_dtd = &view.inferred.dtd;
                let source = view.source.as_str();
                let dtd = world.current_dtd(inputs, source);
                let norm_view = span_total(&spans, "normalize");
                let nq_view = normalize(query, view_dtd).expect("pool query normalizes");
                let (_, classify) = timed(|| mix_infer::classify_query(&nq_view, view_dtd));
                let composed = compose(&view.inferred.query, query).expect("pool query composes");
                let (nq, norm_src) = timed(|| normalize(&composed, dtd));
                let nq = nq.expect("composed query normalizes");
                let fetched = self.replay_transfer(inputs, source, remote, parse_missed);
                let (_, validate) = timed(|| mix_dtd::validate_document(dtd, &fetched));
                let (_, eval) = timed(|| evaluate(&nq, &fetched));
                drop(fetched);
                self.stage("xmas.normalize", norm_view + norm_src);
                self.stage("infer.classify", classify);
                self.stage("dtd.validate", validate);
                self.stage("xmas.evaluate", eval);
                self.replay_stream(inputs, source, &nq, dtd);
                norm_view + classify + sat + call_total + norm_src + validate + eval
            }
            OpRecord::Union { answer } => {
                let union = m
                    .view_dtd(inputs.union_name)
                    .expect("union view registered");
                let (mut slowest, mut member_sum) = (0.0f64, 0.0);
                let (mut norm, mut validate, mut eval) = (0.0, 0.0, 0.0);
                for c in &calls {
                    let source = &*c.source;
                    let q = &inputs
                        .union_parts
                        .iter()
                        .find(|(s, _)| s == source)
                        .expect("union member")
                        .1;
                    let dtd = world.current_dtd(inputs, source);
                    let (nq, n) = timed(|| normalize(q, dtd));
                    let nq = nq.expect("member query normalizes");
                    let fetched = self.replay_transfer(inputs, source, remote, parse_missed);
                    let (_, v) = timed(|| mix_dtd::validate_document(dtd, &fetched));
                    let (_, e) = timed(|| evaluate(&nq, &fetched));
                    slowest = slowest.max(c.ns + n + v + e);
                    member_sum += c.ns + n + v + e;
                    norm += n;
                    validate += v;
                    eval += e;
                }
                let (_, coverage) = timed(|| mix_dtd::satisfies(union, answer));
                let merge = span_total(&spans, "union_merge");
                self.stage("xmas.normalize", norm);
                self.stage("dtd.validate", validate);
                self.stage("xmas.evaluate", eval);
                self.stage("dtd.coverage", coverage);
                self.union_overhead.add(latency_ns - slowest - coverage);
                self.union_members.add(member_sum);
                // the union_merge span already covers the coverage check
                sat + slowest + merge
            }
            OpRecord::Update { before } => {
                let lookup = span_total(&spans, "cache_lookup");
                let infer = span_total(&spans, "infer");
                self.stage("infer.infer", self_time(&spans, "infer"));
                let mut same = 0.0;
                for (name, old) in &before {
                    if let Some(new) = m.view_dtd(*name) {
                        let (_, t) = timed(|| mix_dtd::same_documents(old, new));
                        same += t;
                    }
                }
                self.stage("dtd.same_documents", same);
                lookup + infer + same
            }
        };
        let c = class.index();
        self.latency[c].add(latency_ns);
        self.attributed[c] += attributed;
    }

    /// Replays what moving a source's document to the mediator costs
    /// outside the mediator, and returns the copy the mediator would hold
    /// (so the validate and evaluate replays run on a fresh tree, as the
    /// mediator's do): the in-process clone; on the wire, the daemon's
    /// clone and reply render plus the client's parse (on a parse-memo
    /// miss) or memo clone (on a hit); for a streaming source, the parse.
    fn replay_transfer(
        &mut self,
        inputs: &Inputs,
        source: &str,
        remote: bool,
        parse_missed: bool,
    ) -> Document {
        if source == "big" {
            let bytes = inputs.stream_bytes.as_ref().expect("stream workload bytes");
            let text = std::str::from_utf8(bytes).expect("generated as UTF-8");
            let (doc, parse) = timed(|| parse_document(text));
            self.stage("xml.parse", parse);
            return doc.expect("the stream document parses");
        }
        let doc = inputs.document(source).expect("traced runs keep documents");
        let (copy, clone) = timed(|| doc.as_ref().clone());
        if !remote {
            self.stage("xml.clone", clone);
            return copy;
        }
        let (reply, render) = timed(|| render(&copy));
        self.stage("xml.render", render);
        if parse_missed {
            let (parsed, parse) = timed(|| parse_document(&reply));
            self.stage("xml.clone", clone);
            self.stage("xml.parse", parse);
            parsed.expect("a rendered document parses")
        } else {
            let (copy, c) = timed(|| {
                let mut d = copy.clone();
                d.refresh_auto_ids();
                d
            });
            self.stage("xml.clone", clone + c);
            copy
        }
    }

    /// Streams the source's bytes through the event reader alone, then
    /// through the streaming matcher for the composed query.
    fn replay_stream(&mut self, inputs: &Inputs, source: &str, nq: &Query, dtd: &Dtd) {
        let bytes: &[u8] = match &inputs.stream_bytes {
            Some(b) if source == "big" => b,
            _ => match inputs.sources.iter().find(|s| s.name == source) {
                Some(s) => s.xml.as_bytes(),
                None => return,
            },
        };
        let t = Instant::now();
        let mut reader = EventReader::new(bytes);
        while !matches!(reader.next_event(), Ok(XmlEvent::Eof) | Err(_)) {}
        self.read.0 += bytes.len() as f64;
        self.read.1 += elapsed_ns(t);
        if let Ok(cq) = CompiledQuery::compile(nq, Some(dtd)) {
            let (stats, ns) = timed(|| stream_eval(bytes, &cq, |_| {}));
            if let Ok(stats) = stats {
                self.eval.0 += bytes.len() as f64;
                self.eval.1 += ns;
                self.peak_state = self.peak_state.max(stats.peak_state_bytes());
            }
        }
    }

    /// The per-layer metrics, by name, with their units; and a summary
    /// line for the report.
    pub fn finish(
        self,
        world: &World,
        window_ops_per_s_untraced: Option<f64>,
        window_ops_per_s: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let snap = world.mediator.registry().snapshot();
        let global = mix_obs::global().snapshot();
        let daemons = self.tracer.daemon_registry().snapshot();
        let dm = |name: &str| {
            counter(&snap, name).saturating_sub(counter(&self.base.mediator, name)) as f64
        };
        let dg = |name: &str| {
            counter(&global, name).saturating_sub(counter(&self.base.global, name)) as f64
        };
        let dd = |name: &str| {
            counter(&daemons, name).saturating_sub(counter(&self.base.daemons, name)) as f64
        };
        let us = |stage: &str| self.stages.get(stage).map_or(0.0, |a| a.mean() / 1e3);
        let hit_ratio = |hits: f64, misses: f64| ratio(hits, hits + misses);
        let composed = self.latency[Class::Composed.index()].n;
        let unions = self.latency[Class::Union.index()].n;
        let updates = self.latency[Class::Update.index()].n;
        let latency_total: f64 = self.latency.iter().map(|a| a.total).sum();
        let attributed_total: f64 = self.attributed.iter().sum();
        let mb = (1u64 << 20) as f64;

        let mut out: Vec<(String, f64, &'static str)> = vec![
            (
                "relang.inclusion_memo_hit_ratio".into(),
                hit_ratio(
                    dg("relang_inclusion_memo_hits_total"),
                    dg("relang_inclusion_memo_misses_total"),
                ),
                "ratio",
            ),
            (
                "relang.dfa_memo_hit_ratio".into(),
                hit_ratio(
                    dg("relang_dfa_memo_hits_total"),
                    dg("relang_dfa_memo_misses_total"),
                ),
                "ratio",
            ),
            (
                "relang.pool_nodes".into(),
                global.gauges.get("relang_pool_nodes").copied().unwrap_or(0) as f64,
                "count",
            ),
            (
                "relang.pool_nodes_growth".into(),
                (global.gauges.get("relang_pool_nodes").copied().unwrap_or(0)
                    - self.pool_nodes_after_warmup) as f64,
                "count",
            ),
            ("infer.infer_us".into(), us("infer.infer"), "us"),
            (
                "infer.cache_hit_ratio".into(),
                hit_ratio(
                    dm("inference_cache_hits_total"),
                    dm("inference_cache_misses_total"),
                ),
                "ratio",
            ),
            (
                "infer.views_reinferred_per_update".into(),
                ratio(dm("inference_cache_misses_total"), updates),
                "count",
            ),
            ("infer.classify_us".into(), us("infer.classify"), "us"),
            ("sat.check_us".into(), us("sat.check"), "us"),
            (
                "sat.pruned_per_union".into(),
                ratio(dm("sat_pruned_total"), unions),
                "count",
            ),
            (
                "sat.unknown_ratio".into(),
                ratio(dm("sat_unknown_total"), dm("sat_checks_total")),
                "ratio",
            ),
            ("xmas.normalize_us".into(), us("xmas.normalize"), "us"),
            ("xmas.evaluate_us".into(), us("xmas.evaluate"), "us"),
            ("dtd.validate_us".into(), us("dtd.validate"), "us"),
            ("dtd.coverage_us".into(), us("dtd.coverage"), "us"),
            (
                "dtd.same_documents_us".into(),
                us("dtd.same_documents"),
                "us",
            ),
            ("xml.clone_us".into(), us("xml.clone"), "us"),
            ("xml.parse_us".into(), us("xml.parse"), "us"),
            ("xml.render_us".into(), us("xml.render"), "us"),
            (
                "mediator.source_call_us".into(),
                self.source_call.mean() / 1e3,
                "us",
            ),
            (
                "mediator.union_overhead_us".into(),
                self.union_overhead.mean() / 1e3,
                "us",
            ),
            (
                "mediator.union_members_us".into(),
                self.union_members.mean() / 1e3,
                "us",
            ),
            (
                "mediator.fetch_calls_per_op".into(),
                ratio(self.fetch_calls, self.ops),
                "count",
            ),
            (
                "mediator.answer_calls_per_op".into(),
                ratio(self.answer_calls, self.ops),
                "count",
            ),
            (
                "mediator.unattributed_us".into(),
                ratio(latency_total - attributed_total, self.ops) / 1e3,
                "us",
            ),
            (
                "mediator.unattributed_share".into(),
                ratio(latency_total - attributed_total, latency_total),
                "ratio",
            ),
        ];
        for class in Class::ALL {
            let lat = self.latency[class.index()];
            let un = lat.total - self.attributed[class.index()];
            out.push((
                format!("mediator.unattributed_us.{}", class.name()),
                ratio(un, lat.n) / 1e3,
                "us",
            ));
            out.push((
                format!("mediator.unattributed_share.{}", class.name()),
                ratio(un, lat.total),
                "ratio",
            ));
        }
        let wire = ratio(self.rtt.total - self.server.total, self.rtt.n);
        out.extend([
            ("net.rtt_us".into(), self.rtt.mean() / 1e3, "us"),
            ("net.server_us".into(), self.server.mean() / 1e3, "us"),
            ("net.wire_us".into(), wire / 1e3, "us"),
            (
                "net.bytes_per_op".into(),
                ratio(
                    dd("net_bytes_in_total") + dd("net_bytes_out_total"),
                    self.ops,
                ),
                "bytes",
            ),
            (
                "net.frames_per_op".into(),
                ratio(
                    dd("net_frames_in_total") + dd("net_frames_out_total"),
                    self.ops,
                ),
                "count",
            ),
            (
                "net.parse_memo_hit_ratio".into(),
                hit_ratio(
                    dg("wire_parse_memo_hits_total"),
                    dg("wire_parse_memo_misses_total"),
                ),
                "ratio",
            ),
            (
                "net.connect_ms".into(),
                crate::stats::median(&world.connect_ms),
                "ms",
            ),
            (
                "stream.read_mb_s".into(),
                ratio(self.read.0 / mb, self.read.1 / 1e9),
                "MB/s",
            ),
            (
                "stream.eval_mb_s".into(),
                ratio(self.eval.0 / mb, self.eval.1 / 1e9),
                "MB/s",
            ),
            (
                "stream.streamed_ratio".into(),
                ratio(dg("stream_queries_streamed_total"), composed),
                "ratio",
            ),
            (
                "stream.peak_state_kb".into(),
                self.peak_state as f64 / 1024.0,
                "KB",
            ),
            (
                "trace.overhead_ratio".into(),
                window_ops_per_s_untraced.map_or(0.0, |u| ratio(u, window_ops_per_s)),
                "ratio",
            ),
        ]);
        out
    }
}
