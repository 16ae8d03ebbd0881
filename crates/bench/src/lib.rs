//! Shared workload builders for the Criterion benches (one bench target
//! per experiment of `EXPERIMENTS.md`).

use mix_dtd::generate::{seeded_dtd, DtdGenConfig};
use mix_dtd::parse_compact;
use mix_dtd::sample::{DocConfig, DocSampler};
use mix_dtd::Dtd;
use mix_relang::ast::Regex;
use mix_relang::symbol::Name;
use mix_xmas::{parse_query, Query};
use mix_xml::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's department DTD (D1).
pub fn d1() -> Dtd {
    mix_dtd::paper::d1_department()
}

/// The paper's (Q2).
pub fn q2() -> Query {
    parse_query(
        "withJournals = SELECT P WHERE <department> <name>CS</name> \
           P:<professor | gradStudent> \
             <publication id=Pub1><journal/></publication> \
             <publication id=Pub2><journal/></publication> \
           </> </> AND Pub1 != Pub2",
    )
    .expect("Q2 parses")
}

/// The paper's (Q3).
pub fn q3() -> Query {
    parse_query(
        "publist = SELECT P WHERE <department> <name>CS</name> \
           <professor | gradStudent> P:<publication><journal/></publication> </> </>",
    )
    .expect("Q3 parses")
}

/// A balanced regex of roughly `size` leaves over `alphabet` names:
/// alternating concatenations of unions with scattered closures —
/// representative of real content models.
pub fn regex_of_size(size: usize, alphabet: usize, seed: u64) -> Regex {
    use rand::Rng;
    let names: Vec<Name> = (0..alphabet)
        .map(|i| Name::intern(&format!("x{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    fn build(budget: usize, names: &[Name], rng: &mut StdRng) -> Regex {
        if budget <= 1 {
            return Regex::name(names[rng.gen_range(0..names.len())]);
        }
        let split = rng.gen_range(1..budget);
        let (l, r) = (build(split, names, rng), build(budget - split, names, rng));
        let combined = if rng.gen_bool(0.5) {
            l.then(r)
        } else {
            l.or(r)
        };
        match rng.gen_range(0..4) {
            0 => Regex::star(combined),
            1 => Regex::opt(combined),
            _ => combined,
        }
    }
    build(size, &names, &mut rng)
}

/// A layered random DTD with `names` element names.
pub fn dtd_of_size(names: usize, seed: u64) -> Dtd {
    seeded_dtd(
        seed,
        &DtdGenConfig {
            names,
            ..DtdGenConfig::default()
        },
    )
}

/// A D1 department document with `professors` professors (each with two
/// journal publications and one conference publication) and as many
/// gradStudents — sized workloads for validation/evaluation benches.
pub fn department_of_size(professors: usize) -> Document {
    let mut s = String::from("<department><name>CS</name>");
    for i in 0..professors {
        s.push_str(&format!(
            "<professor><firstName>p{i}</firstName><lastName>l</lastName>\
             <publication><title>a{i}</title><author>x</author><journal/></publication>\
             <publication><title>b{i}</title><author>x</author><journal/></publication>\
             <publication><title>c{i}</title><author>x</author><conference/></publication>\
             <teaches/></professor>"
        ));
    }
    for i in 0..professors {
        s.push_str(&format!(
            "<gradStudent><firstName>g{i}</firstName><lastName>l</lastName>\
             <publication><title>d{i}</title><author>x</author><journal/></publication>\
            </gradStudent>"
        ));
    }
    s.push_str("</department>");
    mix_xml::parse_document(&s).expect("synthesized department parses")
}

/// `count` random valid documents for `dtd`.
pub fn documents_for(dtd: &Dtd, count: usize, seed: u64, max_nodes: usize) -> Vec<Document> {
    let cfg = DocConfig {
        max_nodes,
        ..DocConfig::default()
    };
    let sampler = DocSampler::new(dtd, cfg).expect("productive DTD");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| sampler.sample(&mut rng)).collect()
}

/// The nested-section query over the recursive DTD of Example 3.5
/// (`mix_dtd::paper::section_recursive`): the pick path descends four
/// `section` levels, so tightening re-derives the recursive content model
/// at every depth.
pub fn deep_section_query() -> Query {
    parse_query("deep = SELECT P WHERE <section> <section> <section> P:<section/> </> </> </>")
        .expect("deep section query parses")
}

/// A deep chain DTD (`c0 : c1+ … c{k-1} : ck+, ck : PCDATA`) and a query
/// whose pick path descends all `k` levels — the InferList depth workload.
pub fn chain_workload(depth: usize) -> (Dtd, Query) {
    let mut src = String::from("{");
    for i in 0..depth {
        src.push_str(&format!("<c{i} : c{}+, other{i}?>", i + 1));
        src.push_str(&format!("<other{i} : EMPTY>"));
    }
    src.push_str(&format!("<c{depth} : PCDATA>}}"));
    let dtd = parse_compact(&src).expect("chain DTD parses");
    let mut q = String::from("v = SELECT P WHERE ");
    for i in 0..depth {
        if i == depth - 1 {
            q.push_str(&format!("P:<c{i}>"));
        } else {
            q.push_str(&format!("<c{i}>"));
        }
    }
    q.push_str(&format!("<other{}/>", depth - 1));
    for _ in 0..depth {
        q.push_str("</>");
    }
    let query = parse_query(&q).expect("chain query parses");
    (dtd, query)
}

/// The deep chain of [`chain_workload`] with every level widened by a
/// `width`-way alternation of leaf names — the regime where inference
/// cost is dominated by automata and memo work over *large* content
/// models (each level's type has `width + 2` distinct names), rather
/// than by the traversal itself.
pub fn wide_chain_workload(depth: usize, width: usize) -> (Dtd, Query) {
    let mut src = String::from("{");
    for i in 0..depth {
        let alts = (0..width)
            .map(|j| format!("a{i}_{j}"))
            .collect::<Vec<_>>()
            .join(" | ");
        src.push_str(&format!("<c{i} : ({alts})*, c{}+, other{i}?>", i + 1));
        for j in 0..width {
            src.push_str(&format!("<a{i}_{j} : EMPTY>"));
        }
        src.push_str(&format!("<other{i} : EMPTY>"));
    }
    src.push_str(&format!("<c{depth} : PCDATA>}}"));
    let dtd = parse_compact(&src).expect("wide chain DTD parses");
    let mut q = String::from("v = SELECT P WHERE ");
    for i in 0..depth {
        if i == depth - 1 {
            q.push_str(&format!("P:<c{i}>"));
        } else {
            q.push_str(&format!("<c{i}>"));
        }
    }
    q.push_str(&format!("<other{}/>", depth - 1));
    for _ in 0..depth {
        q.push_str("</>");
    }
    let query = parse_query(&q).expect("wide chain query parses");
    (dtd, query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_work() {
        assert!(regex_of_size(64, 6, 1).size() >= 64);
        let d = dtd_of_size(20, 3);
        assert!(d.types.len() >= 20);
        let doc = department_of_size(10);
        assert!(mix_dtd::validate_document(&d1(), &doc).is_ok());
        let (cd, cq) = chain_workload(5);
        assert!(cd.undefined_names().is_empty());
        assert_eq!(cq.pick_path().unwrap().len(), 5);
        let (wd, wq) = wide_chain_workload(4, 6);
        assert!(wd.undefined_names().is_empty());
        assert_eq!(wq.pick_path().unwrap().len(), 4);
        assert!(!documents_for(&d1(), 3, 1, 80).is_empty());
    }
}
