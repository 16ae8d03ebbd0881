//! A 10-source union federation under injected failures — the paper's
//! "union the structures exported by 100 sites" scenario, scaled to ten
//! and run on a bad day.
//!
//! Each site exports the same bibliography DTD with its own documents. A
//! deterministic, seeded [`FaultInjector`] sits in front of every site:
//! some calls time out, some return garbage, some sites are simply down.
//! The mediator's resilience layer retries transient faults, trips
//! per-source circuit breakers, falls back to each query's last good
//! answer, and returns the *partial* union answer together with a
//! [`DegradationReport`] — the same seed reproduces the whole run, byte
//! for byte.
//!
//! ```sh
//! cargo run --example faulty_federation
//! ```

use mix::prelude::*;
use std::sync::Arc;

const SITES: usize = 10;
const FAULT_SEED: u64 = 2024;
const FAULT_RATE: f64 = 0.45;

fn site_dtd() -> Dtd {
    parse_compact(
        "{<bib : book*>
          <book : title, author+>
          <title : PCDATA> <author : PCDATA>}",
    )
    .unwrap()
}

fn site_doc(i: usize) -> Document {
    // two books per site, labelled by site so provenance is visible in
    // the union answer
    parse_document(&format!(
        "<bib>\
           <book><title>Site {i} Handbook</title><author>curator{i}</author></book>\
           <book><title>Site {i} Survey</title><author>editor{i}</author></book>\
         </bib>"
    ))
    .unwrap()
}

fn main() {
    let mut mediator = Mediator::new();
    mediator.set_resilience_policy(ResiliencePolicy {
        max_retries: 2,
        failure_threshold: 3,
        ..ResiliencePolicy::default()
    });

    let query = parse_query("books = SELECT B WHERE <bib> B:<book/> </bib>").unwrap();
    let mut parts = Vec::new();
    let names: Vec<String> = (0..SITES).map(|i| format!("site{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let source = Arc::new(XmlSource::new(site_dtd(), site_doc(i)).unwrap());
        // every site gets its own independent, reproducible fault schedule
        let faulty = FaultInjector::seeded(source, FAULT_SEED.wrapping_add(i as u64), FAULT_RATE);
        mediator.add_source(name, Arc::new(faulty));
        parts.push((name.as_str(), query.clone()));
    }
    mediator.register_union_view("books", &parts).unwrap();

    println!("=== round 1: first materialization (no last-good answers yet) ===\n");
    run_round(&mediator);

    // A second round: sources that served round 1 now hold the last good
    // answer to their member query, so a site that fails *this* round
    // degrades to stale data instead of dropping out; breakers tripped in
    // round 1 short-circuit.
    println!("\n=== round 2: last-good answers and breakers in play ===\n");
    run_round(&mediator);

    println!("\nbreaker states after both rounds:");
    for name in &names {
        println!("  {:<7} {}", name, mediator.breaker_state(name).unwrap());
    }
}

fn run_round(mediator: &Mediator) {
    match mediator.materialize_with_report(name("books")) {
        Ok((doc, report)) => {
            let members = doc.root.children().len();
            println!(
                "union answer: {members} books from {} of {} sites",
                report
                    .outcomes
                    .iter()
                    .filter(|o| o.status != FetchStatus::Failed)
                    .count(),
                report.outcomes.len(),
            );
            print!("{report}");
        }
        Err(e) => println!("federation failed outright: {e}"),
    }
}
