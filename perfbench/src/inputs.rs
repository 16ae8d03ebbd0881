//! Seeded input generation, done before any set-up and never timed:
//! source documents (as XML bytes), view definitions, the query pool,
//! and the reference answers every operation is checked against.
//!
//! Sizes and class shares are fixed here. The shares are assumptions —
//! there is no measured traffic to take them from.

use crate::Workload;
use mix_dtd::generate::{write_sized_document, ChunkedDocConfig};
use mix_dtd::{parse_compact, Dtd};
use mix_relang::symbol::Name;
use mix_xmas::{evaluate, normalize, parse_query, Query};
use mix_xml::{parse_document, write_document, Content, Document, ElemId, Element, WriteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Departments with one composed view each (the X15 shape).
pub const DEPARTMENTS: usize = 4;
/// Professors and as many graduate students per department: about
/// 85 KB of XML, the same for every department.
pub const DEPARTMENT_MEMBERS: usize = 150;
/// Statically irrelevant union members (the X23 shape).
pub const ARCHIVES: usize = 6;
/// Entries per archive.
pub const ARCHIVE_ENTRIES: usize = 20_000;
/// Composed queries in the serve workloads' pool.
pub const SERVE_POOL: usize = 64;
/// Composed queries in the stream workload's pool.
pub const STREAM_POOL: usize = 8;
/// Size of the stream workload's document.
pub const STREAM_BYTES: u64 = 1 << 20;
/// Generator seed of the stream document's shape.
const STREAM_SHAPE_SEED: u64 = 0x21;

/// One operation class. Every workload runs all three.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A user query over a single-source view, answered by composition.
    Composed,
    /// Materialization of the union view.
    Union,
    /// `replace_source` flipping one source's schema version.
    Update,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Composed, Class::Union, Class::Update];

    pub fn name(self) -> &'static str {
        match self {
            Class::Composed => "composed",
            Class::Union => "union",
            Class::Update => "update",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// A source served from in-memory XML bytes (parsed during set-up).
pub struct SourceSpec {
    pub name: String,
    pub xml: String,
    /// `true` for D1 departments, `false` for archives.
    pub department: bool,
}

/// Everything a workload needs, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub d1: Dtd,
    /// D1 with an optional `revised` root child: every D1 document is
    /// also valid here, so answers are the same under both versions.
    pub d1_revised: Dtd,
    pub archive_dtd: Dtd,
    /// Sources parsed from XML at set-up, in registration order.
    pub sources: Vec<SourceSpec>,
    /// The stream workload's document, read through a `StreamingWrapper`.
    pub stream_bytes: Option<Arc<Vec<u8>>>,
    /// Single-source views: (source name, definition).
    pub views: Vec<(String, Query)>,
    /// The union view's name and (member source, member query) parts.
    pub union_name: Name,
    pub union_parts: Vec<(String, Query)>,
    /// Sources flipped by updates, in rotation order.
    pub flipped: Vec<String>,
    /// The composed query pool, and the rendered answer of each.
    pub pool: Vec<Query>,
    pub expected: Vec<String>,
    /// The rendered union answer.
    pub union_expected: String,
    /// The reference answer of every registered view, by view name.
    pub view_answers: Vec<(Name, Document)>,
    /// The parsed source documents by source name, kept for the traced
    /// run's stage replays.
    pub documents: Vec<(String, Arc<Document>)>,
    /// The class of each slot of the fixed operation cycle.
    pub cycle: Vec<Class>,
}

pub fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

const VIEW_BODY: &str = "SELECT P WHERE <department> P:<professor | gradStudent> \
     <publication><journal/></publication> </> </department>";

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, traced: bool) -> Result<Inputs, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d1 = mix_dtd::paper::d1_department();
        let d1_revised = parse_compact(
            "{<department : name, professor+, gradStudent+, course*, revised?>\
              <professor : firstName, lastName, publication+, teaches>\
              <gradStudent : firstName, lastName, publication+>\
              <publication : title, author+, (journal | conference)>\
              <teaches : EMPTY> <journal : EMPTY> <conference : EMPTY>\
              <course : EMPTY> <revised : EMPTY>}",
        )
        .map_err(|e| format!("revised D1: {e}"))?;
        let archive_dtd = parse_compact("{<archive : entry*> <entry : PCDATA>}")
            .map_err(|e| format!("archive DTD: {e}"))?;

        let mut sources = Vec::new();
        let mut views = Vec::new();
        let mut union_parts = Vec::new();
        let mut pool = Vec::new();
        let stream_bytes;
        let flipped;
        let cycle;
        match workload {
            Workload::ServeLocal | Workload::ServeRemote => {
                for k in 0..DEPARTMENTS + 2 {
                    sources.push(SourceSpec {
                        name: format!("dept{k}"),
                        xml: department(&mut rng),
                        department: true,
                    });
                }
                for k in 0..DEPARTMENTS {
                    views.push((format!("dept{k}"), query(&format!("d{k} = {VIEW_BODY}"))?));
                }
                let member = query(&format!("m = {VIEW_BODY}"))?;
                for k in DEPARTMENTS..DEPARTMENTS + 2 {
                    union_parts.push((format!("dept{k}"), member.clone()));
                }
                for i in 0..SERVE_POOL {
                    let view = format!("d{}", i % DEPARTMENTS);
                    pool.push(composed_query(
                        &mut rng,
                        i,
                        &view,
                        "l",
                        10..50,
                        "f",
                        10..35,
                    )?);
                }
                stream_bytes = None;
                flipped = (0..DEPARTMENTS).map(|k| format!("dept{k}")).collect();
                // 16 composed : 2 union : 2 update per 20-slot cycle
                cycle = (0..20)
                    .map(|i| match i % 10 {
                        0 => Class::Update,
                        5 => Class::Union,
                        _ => Class::Composed,
                    })
                    .collect();
            }
            Workload::StreamLarge => {
                // the document's shape comes from a fixed generator seed
                // (the one X21 uses): parse and validation cost follow
                // the shape, and the workload seed only picks queries
                let cfg = ChunkedDocConfig {
                    target_bytes: STREAM_BYTES,
                    max_subtree_bytes: 16 << 10,
                    string_pool: (10..30).map(|i| format!("w{i}")).collect(),
                    ..ChunkedDocConfig::default()
                };
                let mut bytes = Vec::with_capacity(STREAM_BYTES as usize + (64 << 10));
                write_sized_document(&d1, STREAM_SHAPE_SEED, cfg, &mut bytes)
                    .map_err(|e| format!("stream document: {e}"))?;
                stream_bytes = Some(Arc::new(bytes));
                views.push(("big".to_owned(), query(&format!("s = {VIEW_BODY}"))?));
                union_parts.push((
                    "big".to_owned(),
                    query(
                        "m = SELECT P WHERE <department> P:<professor> <lastName>w10</lastName> \
                         <publication><conference/></publication> </professor> </department>",
                    )?,
                ));
                for i in 0..STREAM_POOL {
                    pool.push(composed_query(&mut rng, i, "s", "w", 10..30, "w", 10..30)?);
                }
                flipped = vec!["big".to_owned()];
                cycle = vec![Class::Composed, Class::Union, Class::Update];
            }
        }
        let member = union_parts[0].1.clone();
        for a in 0..ARCHIVES {
            let name = format!("archive{a}");
            sources.push(SourceSpec {
                xml: archive(&mut rng, &name),
                name: name.clone(),
                department: false,
            });
            union_parts.push((name, member.clone()));
        }

        // -- reference answers (mix_xmas::evaluate over the sources) ------
        let mut documents: Vec<(String, Arc<Document>)> = Vec::new();
        for s in &sources {
            let doc = parse_document(&s.xml).map_err(|e| format!("{}: {e}", s.name))?;
            documents.push((s.name.clone(), Arc::new(doc)));
        }
        if let Some(bytes) = &stream_bytes {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            let doc = parse_document(text).map_err(|e| format!("big: {e}"))?;
            documents.push(("big".to_owned(), Arc::new(doc)));
        }
        let doc_of = |source: &str| -> Result<&Document, String> {
            documents
                .iter()
                .find(|(n, _)| n == source)
                .map(|(_, d)| d.as_ref())
                .ok_or_else(|| format!("no document for {source}"))
        };
        let dtd_of = |source: &str| {
            if source.starts_with("archive") {
                &archive_dtd
            } else {
                &d1
            }
        };

        let mut view_answers = Vec::new();
        let mut expected = Vec::new();
        let mut view_dtds = Vec::new();
        for (source, vq) in &views {
            let answer = eval(vq, dtd_of(source), doc_of(source)?)?;
            let dtd = mix_infer::infer_view_dtd(vq, dtd_of(source))
                .map_err(|e| format!("view {}: {e}", vq.view_name))?
                .dtd;
            view_dtds.push((vq.view_name, dtd));
            view_answers.push((vq.view_name, answer));
        }
        for q in &pool {
            let view = q.root.test.names()[0];
            let i = view_answers
                .iter()
                .position(|(n, _)| *n == view)
                .ok_or("pool query over an unknown view")?;
            expected.push(render(&eval(q, &view_dtds[i].1, &view_answers[i].1)?));
        }
        let mut members = Vec::new();
        for (source, mq) in &union_parts {
            let answer = eval(mq, dtd_of(source), doc_of(source)?)?;
            if let Content::Elements(kids) = answer.root.content {
                members.extend(kids);
            }
        }
        let union_name = Name::intern("u");
        let union_doc = Document::new(Element {
            name: union_name,
            id: ElemId::fresh(),
            content: Content::Elements(members),
        });
        let union_expected = render(&union_doc);
        view_answers.push((union_name, union_doc));
        // traced runs replay stages on the parsed sources; the stream
        // document is re-parsed from its bytes instead
        documents.retain(|(name, _)| traced && name != "big");
        Ok(Inputs {
            workload,
            d1,
            d1_revised,
            archive_dtd,
            sources,
            stream_bytes,
            views,
            union_name,
            union_parts,
            flipped,
            pool,
            expected,
            union_expected,
            view_answers,
            documents,
            cycle,
        })
    }

    /// The number of operations of `class` in one cycle.
    pub fn per_cycle(&self, class: Class) -> usize {
        self.cycle.iter().filter(|c| **c == class).count()
    }

    /// The parsed document of a source (traced runs only).
    pub fn document(&self, source: &str) -> Option<&Arc<Document>> {
        self.documents
            .iter()
            .find(|(n, _)| n == source)
            .map(|(_, d)| d)
    }
}

fn query(text: &str) -> Result<Query, String> {
    parse_query(text).map_err(|e| format!("{text}: {e}"))
}

fn eval(q: &Query, dtd: &Dtd, doc: &Document) -> Result<Document, String> {
    let nq = normalize(q, dtd).map_err(|e| format!("{}: {e}", q.view_name))?;
    Ok(evaluate(&nq, doc))
}

/// A composed query over `view`: one member condition whose children
/// never overlap the view's own pick condition (`publication`), so the
/// mediator answers it by composition.
fn composed_query(
    rng: &mut StdRng,
    i: usize,
    view: &str,
    last: &str,
    lasts: std::ops::Range<usize>,
    first: &str,
    firsts: std::ops::Range<usize>,
) -> Result<Query, String> {
    let l = rng.gen_range(lasts);
    let f = rng.gen_range(firsts);
    let cond = match rng.gen_range(0..4) {
        0 => format!("X:<professor> <lastName>{last}{l}</lastName> </professor>"),
        1 => format!("X:<gradStudent> <lastName>{last}{l}</lastName> </gradStudent>"),
        2 => format!("X:<professor> <firstName>{first}{f}</firstName> <teaches/> </professor>"),
        _ => format!("X:<professor | gradStudent> <firstName>{first}{f}</firstName> </>"),
    };
    query(&format!("c{i} = SELECT X WHERE <{view}> {cond} </{view}>"))
}

/// A D1 department whose structure is the same for every seed — member
/// counts, publications per member, authors per publication and the
/// journal/conference split all follow fixed patterns — so departments
/// and seeds differ only in names, titles and authors, never in size.
fn department(rng: &mut StdRng) -> String {
    let mut s = String::with_capacity(96 << 10);
    s.push_str("<department><name>CS</name>");
    for (tag, teaches) in [("professor", true), ("gradStudent", false)] {
        for i in 0..DEPARTMENT_MEMBERS {
            s.push_str(&format!(
                "<{tag}><firstName>f{}</firstName><lastName>l{}</lastName>",
                rng.gen_range(10..35),
                rng.gen_range(10..50)
            ));
            for p in 0..1 + i % 4 {
                s.push_str(&format!(
                    "<publication><title>t{}</title>",
                    rng.gen_range(100..1000)
                ));
                for _ in 0..1 + (i + p) % 3 {
                    s.push_str(&format!("<author>a{}</author>", rng.gen_range(10..100)));
                }
                s.push_str(if (i + p) % 2 == 0 {
                    "<journal/>"
                } else {
                    "<conference/>"
                });
                s.push_str("</publication>");
            }
            if teaches {
                s.push_str("<teaches/>");
            }
            s.push_str(&format!("</{tag}>"));
        }
    }
    s.push_str("<course/><course/><course/>");
    s.push_str("</department>");
    s
}

/// A flat archive whose document type no department query can match.
fn archive(rng: &mut StdRng, name: &str) -> String {
    let mut s = String::with_capacity(ARCHIVE_ENTRIES * 28);
    s.push_str("<archive>");
    for i in 0..ARCHIVE_ENTRIES {
        s.push_str(&format!(
            "<entry>{name}-{:05}-{}</entry>",
            i,
            rng.gen_range(0..10)
        ));
    }
    s.push_str("</archive>");
    s
}
