//! Experiment X2 and the paper's Definition 3.1, as property tests: for
//! *random* DTDs, *random* pick-element queries, and *random* valid source
//! documents, every view document satisfies the inferred view DTDs, and
//! the Figure 2 verdicts mean what they claim.

use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
use mix::dtd::sample::{DocConfig, DocSampler};
use mix::dtd::sdtd::SAcceptor;
use mix::dtd::validate::Validator;
use mix::prelude::*;
use mix::xmas::gen::{random_query, QueryGenConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn doc_cfg() -> DocConfig {
    DocConfig {
        max_nodes: 60,
        ..DocConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness (Definition 3.1): V(d) |= D_V for every valid source d.
    #[test]
    fn inferred_view_dtds_are_sound(dtd_seed in 0u64..400, q_seed in 0u64..1000) {
        let source = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let iv = infer_view_dtd(&q, &source).expect("generated queries normalize");
        let validator = Validator::new(&iv.dtd);
        let acceptor = SAcceptor::new(&iv.sdtd);
        let sampler = DocSampler::new(&source, doc_cfg()).expect("generator guarantees docs");
        for _ in 0..12 {
            let doc = sampler.sample(&mut rng);
            let view = evaluate(&iv.query, &doc);
            if let Err(e) = validator.validate_document(&view) {
                panic!(
                    "UNSOUND merged DTD (dtd_seed={dtd_seed}, q_seed={q_seed}): {e}\n\
                     query:\n{q}\nview DTD:\n{}\nsource doc:\n{}\nview doc:\n{}",
                    iv.dtd,
                    write_document(&doc, WriteConfig::default()),
                    write_document(&view, WriteConfig::default()),
                );
            }
            if !acceptor.document_satisfies(&view) {
                panic!(
                    "UNSOUND s-DTD (dtd_seed={dtd_seed}, q_seed={q_seed})\n\
                     query:\n{q}\ns-DTD:\n{}\nview doc:\n{}",
                    iv.sdtd,
                    write_document(&view, WriteConfig::default()),
                );
            }
        }
    }

    /// The inferred tight DTD is never looser than the naive baseline
    /// (and both are sound, so tight ⊆ naive as document sets).
    #[test]
    fn tight_dtd_is_tighter_than_naive(dtd_seed in 0u64..200, q_seed in 0u64..500) {
        let source = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let iv = infer_view_dtd(&q, &source).expect("normalizes");
        let naive = naive_view_dtd(&iv.query, &source, NaiveMode::Sound);
        let cmp = tighter_than(&iv.dtd, &naive);
        prop_assert!(
            cmp.holds(),
            "tight DTD not ⊆ naive ({cmp:?}) for dtd_seed={dtd_seed}, q_seed={q_seed}\n\
             query:\n{q}\ntight:\n{}\nnaive:\n{naive}",
            iv.dtd
        );
    }

    /// Figure 2's side effect, semantically: `Valid` queries match every
    /// document, `Unsatisfiable` queries match none.
    #[test]
    fn verdicts_mean_what_they_say(dtd_seed in 0u64..200, q_seed in 0u64..500) {
        let source = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let iv = infer_view_dtd(&q, &source).expect("normalizes");
        let sampler = DocSampler::new(&source, doc_cfg()).expect("docs exist");
        for _ in 0..10 {
            let doc = sampler.sample(&mut rng);
            let view = evaluate(&iv.query, &doc);
            match iv.verdict {
                Verdict::Valid => prop_assert!(
                    !view.root.children().is_empty(),
                    "Valid verdict but empty view (dtd_seed={dtd_seed}, q_seed={q_seed})\n{q}\n\
                     source:\n{}",
                    write_document(&doc, WriteConfig::default())
                ),
                Verdict::Unsatisfiable => prop_assert!(
                    view.root.children().is_empty(),
                    "Unsatisfiable verdict but non-empty view \
                     (dtd_seed={dtd_seed}, q_seed={q_seed})\n{q}"
                ),
                Verdict::Satisfiable => {}
            }
        }
    }

    /// The specialized view DTD never describes more size-bounded
    /// structures than the merged one, which never describes more than the
    /// naive one.
    #[test]
    fn counting_respects_the_tightness_ladder(dtd_seed in 0u64..60, q_seed in 0u64..200) {
        let source = seeded_dtd(dtd_seed, &DtdGenConfig { names: 6, ..DtdGenConfig::default() });
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let rows = tightness_counts(&q, &source, 9);
        for r in rows {
            prop_assert!(r.specialized <= r.merged,
                "s-DTD looser at size {} (dtd_seed={dtd_seed}, q_seed={q_seed})", r.size);
            prop_assert!(r.merged <= r.naive,
                "merged looser than naive at size {} (dtd_seed={dtd_seed}, q_seed={q_seed})",
                r.size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The specialized view DTD is (bounded-)tighter than its own merged
    /// plain form — merging only ever loses precision, never soundness.
    #[test]
    fn sdtd_is_tighter_than_merged(dtd_seed in 0u64..100, q_seed in 0u64..300) {
        use mix::dtd::{sdtd_tighter_than_bounded, SBoundedTightness, SDtd};
        let source = seeded_dtd(dtd_seed, &DtdGenConfig { names: 6, ..DtdGenConfig::default() });
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let iv = infer_view_dtd(&q, &source).expect("normalizes");
        let merged_as_sdtd = SDtd::from_dtd(&iv.dtd);
        if let SBoundedTightness::Witness(w) =
            sdtd_tighter_than_bounded(&iv.sdtd, &merged_as_sdtd, 6, 60_000)
        {
            panic!(
                "s-DTD document escapes the merged DTD \
                 (dtd_seed={dtd_seed}, q_seed={q_seed}):\n{w:?}\nquery:\n{q}"
            );
        }
    }
}

/// The paper's D1 deserves a dedicated, heavier soundness pass.
#[test]
fn d1_soundness_sweep() {
    let source = mix::dtd::paper::d1_department();
    let mut rng = StdRng::seed_from_u64(2024);
    for round in 0..60 {
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let report = soundness_check(&q, &source, 25, round, doc_cfg());
        assert_eq!(
            report.dtd_violations + report.sdtd_violations,
            0,
            "unsound inference in round {round} for query\n{q}"
        );
    }
}

/// Regression: a pick with a same-tag sibling condition under the same
/// parent. The sibling consumes one `n2` of a pair, so the view can hold
/// an odd number of `n2` and must still validate against both inferred
/// DTDs (a random triple from `seeded_dtd(47, …)` and `random_query` with
/// seed 17, reduced).
#[test]
fn same_tag_sibling_condition_stays_sound() {
    let source = parse_compact("{<n0 : (n7, n2, n2)*> <n2 : PCDATA> <n7 : PCDATA>}").unwrap();
    let q = parse_query("v = SELECT P WHERE <n0> P:<n2/> <n2>EE</n2> </n0>").unwrap();
    let doc =
        parse_document("<n0><n7>a</n7><n2>b</n2><n2>c</n2><n7>a</n7><n2>b</n2><n2>EE</n2></n0>")
            .unwrap();
    let iv = infer_view_dtd(&q, &source).unwrap();
    let view = evaluate(&iv.query, &doc);
    assert_eq!(view.root.children().len(), 3, "three n2 picked");
    if let Err(e) = Validator::new(&iv.dtd).validate_document(&view) {
        panic!("view violates the inferred DTD {}: {e}", iv.dtd);
    }
    assert!(SAcceptor::new(&iv.sdtd).document_satisfies(&view));
}
