//! Result-list type inference (Section 4.4, Appendix B).
//!
//! Computes the type of the view's *top element*: a regular expression
//! over (tagged) pick names describing the order and cardinality of the
//! elements the pick variable contributes, e.g. `professor*, gradStudent*`
//! for (Q2) — professors appear before gradStudents because view content
//! is emitted in document order.
//!
//! The algorithm walks the path from the condition root to the pick
//! variable, alternating:
//!
//! 1. **one-level extension** (Definition 4.3) — substitute every name of
//!    the current list type by its source content model;
//! 2. **projection** — keep only the next path step's (viable) names,
//!    mapping every other name to `ε` (Appendix B's `project`);
//! 3. **optionality weakening** — when the subtree below a kept name is
//!    *satisfiable* rather than *valid*, each kept occurrence becomes
//!    optional (this reconstructs Appendix B's `substitute((d[p₁])?)` step
//!    soundly; see DESIGN.md §3 note 6). A kept name that a *sibling*
//!    condition of the path step could also match is weakened the same
//!    way: sibling conditions bind distinct children, so the child a
//!    sibling consumes drops out of the list and the source model's
//!    cardinality structure (e.g. `(n2, n2)*`) no longer holds.
//!
//! Level 0 seeds the list with the document type (made optional when the
//! whole condition is merely satisfiable — a source document may
//! contribute nothing, hence the sound `professor*, gradStudent*` rather
//! than the scan's `professor+, gradStudent+`; DESIGN.md §3 note 2).

use crate::tighten::{Tightened, Verdict};
use mix_dtd::{ContentModel, Dtd};
use mix_relang::ast::Regex;
use mix_relang::simplify;
use mix_relang::symbol::{Name, Tag};
use mix_xmas::{Body, Condition, Query};

/// Projection (Appendix B): keep occurrences of `keep` (any tag, "could
/// match" semantics) retagged to `tag`; every other name becomes `ε`.
pub fn project(t: &Regex, keep: &[Name], tag: Tag) -> Regex {
    t.map_syms(&mut |s| {
        if keep.contains(&s.name) {
            Regex::Sym(s.name.tagged(tag))
        } else {
            Regex::Epsilon
        }
    })
}

/// One-level extension `x(t)` (Definition 4.3): replace every name by its
/// content model in the source DTD. `PCDATA` names contribute no element
/// children and become `ε`.
pub fn one_level_extension(t: &Regex, dtd: &Dtd) -> Regex {
    t.map_syms(&mut |s| match dtd.get(s.name) {
        Some(ContentModel::Elements(r)) => r.clone(),
        Some(ContentModel::Pcdata) | None => Regex::Epsilon,
    })
}

/// Makes each occurrence of `n^tag` optional for every `n` in `soft`.
fn weaken(t: &Regex, soft: &[Name], tag: Tag) -> Regex {
    t.map_syms(&mut |s| {
        if s.tag == tag && soft.contains(&s.name) {
            Regex::opt(Regex::Sym(s))
        } else {
            Regex::Sym(s)
        }
    })
}

/// Infers the content type of the view's top element for a normalized
/// pick-element query, given the tightening result. The returned regex is
/// over tagged pick names (whose refined definitions live in
/// `tightened.types`).
pub fn infer_list(q: &Query, dtd: &Dtd, tightened: &Tightened) -> Regex {
    let Some(path) = q.pick_path() else {
        return Regex::Epsilon;
    };
    // Level 0: the document root.
    let root_cond = path[0];
    if !root_cond.test.matches(dtd.doc_type) {
        return Regex::Epsilon; // the view is certainly empty
    }
    let v0 = verdict_of(tightened, root_cond, dtd.doc_type);
    let mut t = match v0 {
        Verdict::Unsatisfiable => return Regex::Epsilon,
        Verdict::Valid => Regex::Sym(dtd.doc_type.tagged(root_cond.tag)),
        Verdict::Satisfiable => Regex::opt(Regex::Sym(dtd.doc_type.tagged(root_cond.tag))),
    };
    // Levels 1..k: extend, project, weaken.
    for (parent, cond) in path.iter().zip(&path[1..]) {
        t = one_level_extension(&t, dtd);
        let viable = tightened.viable_names(cond);
        if viable.is_empty() {
            return Regex::Epsilon;
        }
        t = project(&t, &viable, cond.tag);
        let siblings: Vec<&Condition> = match &parent.body {
            Body::Children(conds) => conds.iter().filter(|c| !std::ptr::eq(*c, *cond)).collect(),
            Body::Text(_) => Vec::new(),
        };
        let soft: Vec<Name> = viable
            .iter()
            .copied()
            .filter(|&n| {
                verdict_of(tightened, cond, n) == Verdict::Satisfiable
                    || siblings.iter().any(|s| s.test.matches(n))
            })
            .collect();
        t = weaken(&t, &soft, cond.tag);
        if matches!(t, Regex::Epsilon | Regex::Empty) {
            return Regex::Epsilon;
        }
    }
    simplify(&t)
}

fn verdict_of(tightened: &Tightened, cond: &Condition, n: Name) -> Verdict {
    tightened
        .per_name
        .get(&(cond.tag, n))
        .copied()
        .unwrap_or(Verdict::Unsatisfiable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tighten::tighten;
    use mix_dtd::paper::{d11_department, d1_department};
    use mix_relang::{equivalent, parse_regex};
    use mix_xmas::{normalize, parse_query};

    fn list_type(src: &str, dtd: &Dtd) -> Regex {
        let q = normalize(&parse_query(src).unwrap(), dtd).unwrap();
        let t = tighten(&q, dtd);
        infer_list(&q, dtd, &t)
    }

    #[test]
    fn q2_gives_professors_then_gradstudents() {
        let d = d1_department();
        let t = list_type(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </> AND Pub1 != Pub2",
            &d,
        );
        assert!(
            equivalent(
                &t.image(),
                &parse_regex("professor*, gradStudent*").unwrap()
            ),
            "got {t}"
        );
    }

    #[test]
    fn valid_conditions_keep_cardinality() {
        let d = d1_department();
        // every professor has ≥1 publication: the pick list is professor+.
        let t = list_type(
            "v = SELECT P WHERE <department> P:<professor><publication/></professor> </>",
            &d,
        );
        assert!(
            equivalent(&t.image(), &parse_regex("professor+").unwrap()),
            "got {t}"
        );
    }

    #[test]
    fn example_4_4_chain() {
        // (Q12) on (D11): titles/authors of gradStudent publications.
        let d = d11_department();
        let t = list_type(
            "papers = SELECT P WHERE D:<department> G:<gradStudent> \
               X:<publication> P:<title | author/> </> </> </>",
            &d,
        );
        assert!(
            equivalent(&t.image(), &parse_regex("(title, author*)*").unwrap()),
            "got {t}"
        );
    }

    #[test]
    fn unsatisfiable_query_gives_epsilon() {
        let d = d1_department();
        let t = list_type("v = SELECT J WHERE <department> J:<journal/> </>", &d);
        assert_eq!(t, Regex::Epsilon);
    }

    #[test]
    fn pick_at_root_is_one_element() {
        let d = d1_department();
        let t = list_type("v = SELECT D WHERE D:<department/>", &d);
        assert!(equivalent(&t.image(), &parse_regex("department").unwrap()));
        let t = list_type("v = SELECT D WHERE D:<department> <name>CS</name> </>", &d);
        assert!(equivalent(&t.image(), &parse_regex("department?").unwrap()));
    }

    #[test]
    fn projection_unit_cases() {
        use mix_relang::symbol::name;
        let r = parse_regex("(n, p+, g+, c*)?").unwrap();
        let p = project(&r, &[name("g")], 3);
        assert!(equivalent(&p.image(), &parse_regex("g*").unwrap()), "{p}");
        let p = project(&r, &[name("p"), name("g")], 3);
        assert!(equivalent(&p.image(), &parse_regex("(p+, g+)?").unwrap()));
    }

    #[test]
    fn one_level_extension_substitutes_models() {
        use mix_relang::symbol::name;
        let d = d1_department();
        let t = Regex::opt(Regex::name(name("department")));
        let x = one_level_extension(&t, &d);
        assert!(equivalent(
            &x,
            &parse_regex("(name, professor+, gradStudent+, course*)?").unwrap()
        ));
    }

    #[test]
    fn pcdata_names_extend_to_epsilon() {
        use mix_relang::symbol::name;
        let d = d1_department();
        let t = Regex::name(name("firstName"));
        assert_eq!(one_level_extension(&t, &d), Regex::Epsilon);
    }

    #[test]
    fn pick_with_text_condition() {
        // picking PCDATA elements with a string condition: each occurrence
        // may fail the string test, so the list is optional per occurrence
        let d = d1_department();
        let t = list_type(
            "csNames = SELECT N WHERE <department> N:<name>CS</name> </department>",
            &d,
        );
        assert!(
            equivalent(&t.image(), &parse_regex("name?").unwrap()),
            "got {t}"
        );
    }

    #[test]
    fn two_distinct_picks_per_parent_keep_order_and_count() {
        // every professor contributes exactly one firstName and the
        // condition is valid: the list mirrors the professor list
        let d = d1_department();
        let t = list_type(
            "names = SELECT F WHERE <department> <professor> F:<firstName/> </> </>",
            &d,
        );
        assert!(
            equivalent(&t.image(), &parse_regex("firstName+").unwrap()),
            "got {t}"
        );
    }

    #[test]
    fn projection_of_tagged_occurrences_could_match() {
        use mix_relang::symbol::name;
        // occurrences already tagged by an earlier refinement still
        // project ("could match" semantics, Appendix B)
        let r = parse_regex("a^3, a, b").unwrap();
        let p = project(&r, &[name("a")], 9);
        assert!(equivalent(&p, &parse_regex("a^9, a^9").unwrap()));
    }

    #[test]
    fn weaken_only_touches_the_given_tag() {
        use mix_relang::symbol::name;
        let d = d1_department();
        let _ = d;
        let r = parse_regex("a^1, a^2").unwrap();
        let w = super::weaken(&r, &[name("a")], 1);
        assert!(equivalent(&w, &parse_regex("a^1?, a^2").unwrap()));
    }

    #[test]
    fn same_tag_sibling_condition_weakens_the_kept_occurrences() {
        // The sibling condition consumes one n2 of a pair, so a parent can
        // contribute an odd number of n2: the pair structure must not
        // survive into the list type.
        let d =
            mix_dtd::parse_compact("{<n0 : (n7, n2, n2)*> <n2 : PCDATA> <n7 : PCDATA>}").unwrap();
        let t = list_type("v = SELECT P WHERE <n0> P:<n2/> <n2>EE</n2> </n0>", &d);
        assert!(
            equivalent(&t.image(), &parse_regex("(n2?, n2?)*").unwrap()),
            "got {t}"
        );
        // a sibling with another tag leaves the count alone
        let t = list_type("v = SELECT P WHERE <n0> P:<n2/> <n7/> </n0>", &d);
        assert!(
            equivalent(&t.image(), &parse_regex("(n2, n2)*").unwrap()),
            "got {t}"
        );
    }

    #[test]
    fn disjunct_path_interior() {
        // pick publications through either professor or gradStudent
        let d = d1_department();
        let t = list_type(
            "pubs = SELECT X WHERE <department> <professor | gradStudent> \
               X:<publication><journal/></publication> </> </>",
            &d,
        );
        assert!(
            equivalent(&t.image(), &parse_regex("publication*").unwrap()),
            "got {t}"
        );
    }
}
