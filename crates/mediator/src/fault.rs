//! Deterministic, seeded fault injection for wrappers.
//!
//! [`FaultInjector`] wraps any [`Wrapper`] and applies a reproducible
//! fault schedule: given the same plan (and seed), the *n*-th call always
//! produces the same outcome — an error, a corrupted document, or a clean
//! pass-through. No wall clock is involved anywhere, so every failure
//! mode of the resilience layer (retries, breaker trips, snapshot
//! degradation) is testable without flakiness: a "timeout" is an error
//! *value*, produced instantly.
//!
//! Two fault families exist on purpose:
//!
//! * **errors** ([`Fault::Timeout`], [`Fault::Transient`],
//!   [`Fault::Unavailable`], [`Fault::MalformedXml`]) — the call fails
//!   outright, like a dead or garbled site;
//! * **corruptions** ([`Fault::Truncate`], [`Fault::DtdViolate`]) — the
//!   call *succeeds* but returns a document that no longer validates
//!   against the advertised DTD, like a site that silently changed its
//!   schema. The default [`Wrapper::answer`] validates what it fetches,
//!   so these surface as [`SourceError::DtdInvalid`] on every answer.

use crate::error::SourceError;
use crate::source::Wrapper;
use mix_dtd::Dtd;
use mix_xml::{Content, Document, ElemId, Element};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The call errors with [`SourceError::Timeout`].
    Timeout,
    /// The call errors with [`SourceError::Transient`].
    Transient,
    /// The call errors with [`SourceError::Unavailable`].
    Unavailable,
    /// The call errors with [`SourceError::MalformedXml`], as if the
    /// exported text stopped parsing.
    MalformedXml,
    /// The call returns a document with the tail of the root's children
    /// dropped — a truncated transfer that still happens to parse.
    Truncate,
    /// The call returns the document with an undeclared `corrupted`
    /// element appended to the root — well-formed, DTD-invalid.
    DtdViolate,
}

impl Fault {
    /// All fault kinds, in the order seeded plans index them.
    pub const ALL: [Fault; 6] = [
        Fault::Timeout,
        Fault::Transient,
        Fault::Unavailable,
        Fault::MalformedXml,
        Fault::Truncate,
        Fault::DtdViolate,
    ];
}

/// A reproducible per-call fault schedule.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Never fault (a transparent wrapper).
    None,
    /// Fault on exactly the listed call indices (0-based), clean
    /// elsewhere.
    NthCalls(BTreeMap<u64, Fault>),
    /// Pseudo-random faults at the given rate, fully determined by
    /// `(seed, call index)` — same seed, same schedule, forever.
    Seeded {
        /// Seed of the schedule.
        seed: u64,
        /// Fault probability per call, in `[0, 1]`.
        rate: f64,
    },
    /// An explicit script: entry `i` decides call `i`; calls past the end
    /// of the script are clean.
    Script(Vec<Option<Fault>>),
}

impl FaultPlan {
    /// The fault (if any) for the given 0-based call index. Pure: the
    /// same `(plan, call)` always yields the same answer.
    pub fn fault_for(&self, call: u64) -> Option<Fault> {
        match self {
            FaultPlan::None => None,
            FaultPlan::NthCalls(m) => m.get(&call).copied(),
            FaultPlan::Script(s) => s.get(call as usize).copied().flatten(),
            FaultPlan::Seeded { seed, rate } => {
                let h = mix64(seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // top 53 bits → uniform fraction in [0,1)
                let fraction = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                if fraction < *rate {
                    let kind = mix64(h) as usize % Fault::ALL.len();
                    Some(Fault::ALL[kind])
                } else {
                    None
                }
            }
        }
    }
}

/// SplitMix64 finalizer — the stable hash behind seeded plans.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wrapper that injects faults from a [`FaultPlan`] in front of an
/// inner wrapper.
///
/// Only [`Wrapper::fetch`] is intercepted; `answer` is the trait's
/// default, which re-enters `fetch` and validates what it returns, so
/// every schedule applies to answers too and a corruption surfaces as
/// [`SourceError::DtdInvalid`] — in process, or as a `dtd-invalid` fault
/// from a daemon serving the injector.
pub struct FaultInjector {
    inner: Arc<dyn Wrapper>,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl FaultInjector {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Arc<dyn Wrapper>, plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// A seeded-rate injector (the common case in tests and benches).
    pub fn seeded(inner: Arc<dyn Wrapper>, seed: u64, rate: f64) -> FaultInjector {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} not in [0,1]"
        );
        FaultInjector::new(inner, FaultPlan::Seeded { seed, rate })
    }

    /// How many fetches have been attempted through this injector.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// The schedule in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn corrupt_truncate(doc: Document) -> Document {
        let root = match doc.root.content {
            Content::Elements(kids) => {
                let keep = kids.len() / 2;
                Element {
                    name: doc.root.name,
                    id: doc.root.id,
                    content: Content::Elements(kids.into_iter().take(keep).collect()),
                }
            }
            // a text root truncates to empty text
            Content::Text(_) => Element {
                name: doc.root.name,
                id: doc.root.id,
                content: Content::Text(String::new()),
            },
        };
        Document::new(root)
    }

    fn corrupt_violate(doc: Document) -> Document {
        let intruder = Element {
            name: mix_relang::symbol::name("corrupted"),
            id: ElemId::fresh(),
            content: Content::Elements(vec![]),
        };
        let root = match doc.root.content {
            Content::Elements(mut kids) => {
                kids.push(intruder);
                Element {
                    name: doc.root.name,
                    id: doc.root.id,
                    content: Content::Elements(kids),
                }
            }
            // PCDATA roots become element content — also a violation
            Content::Text(_) => Element {
                name: doc.root.name,
                id: doc.root.id,
                content: Content::Elements(vec![intruder]),
            },
        };
        Document::new(root)
    }
}

impl Wrapper for FaultInjector {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        match self.plan.fault_for(call) {
            None => self.inner.fetch(),
            Some(Fault::Timeout) => Err(SourceError::Timeout {
                millis: 100 + (call % 7) * 50,
            }),
            Some(Fault::Transient) => Err(SourceError::Transient(format!(
                "injected transient fault on call {call}"
            ))),
            Some(Fault::Unavailable) => Err(SourceError::Unavailable(format!(
                "injected outage on call {call}"
            ))),
            Some(Fault::MalformedXml) => Err(SourceError::MalformedXml(format!(
                "injected parse failure on call {call}"
            ))),
            Some(Fault::Truncate) => Ok(Self::corrupt_truncate(self.inner.fetch()?)),
            Some(Fault::DtdViolate) => Ok(Self::corrupt_violate(self.inner.fetch()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::XmlSource;
    use mix_dtd::parse_compact;
    use mix_xml::parse_document;

    fn wrapped(plan: FaultPlan) -> FaultInjector {
        let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
        FaultInjector::new(Arc::new(XmlSource::new(dtd, doc).unwrap()), plan)
    }

    #[test]
    fn none_plan_is_transparent() {
        let w = wrapped(FaultPlan::None);
        for _ in 0..5 {
            assert_eq!(w.fetch().unwrap().root.children().len(), 2);
        }
        assert_eq!(w.calls(), 5);
    }

    #[test]
    fn nth_call_faults_exactly_there() {
        let w = wrapped(FaultPlan::NthCalls(BTreeMap::from([
            (1, Fault::Timeout),
            (3, Fault::DtdViolate),
        ])));
        assert!(w.fetch().is_ok()); // call 0
        assert!(matches!(w.fetch(), Err(SourceError::Timeout { .. }))); // 1
        assert!(w.fetch().is_ok()); // 2
        let corrupted = w.fetch().unwrap(); // 3: Ok but invalid
        assert_eq!(corrupted.root.children().len(), 3);
        assert!(mix_dtd::validate_document(w.dtd(), &corrupted).is_err());
        assert!(w.fetch().is_ok()); // 4
    }

    #[test]
    fn seeded_schedule_replays_identically() {
        let plan = FaultPlan::Seeded {
            seed: 99,
            rate: 0.5,
        };
        let a: Vec<Option<Fault>> = (0..200).map(|i| plan.fault_for(i)).collect();
        let b: Vec<Option<Fault>> = (0..200).map(|i| plan.fault_for(i)).collect();
        assert_eq!(a, b);
        let faults = a.iter().flatten().count();
        assert!((60..140).contains(&faults), "rate 0.5 gave {faults}/200");
        // a different seed gives a different schedule
        let other = FaultPlan::Seeded {
            seed: 100,
            rate: 0.5,
        };
        assert!((0..200).any(|i| plan.fault_for(i) != other.fault_for(i)));
    }

    #[test]
    fn truncation_halves_children() {
        let w = wrapped(FaultPlan::Script(vec![Some(Fault::Truncate)]));
        let doc = w.fetch().unwrap();
        assert_eq!(doc.root.children().len(), 1);
        assert!(
            w.fetch().unwrap().root.children().len() == 2,
            "script ended"
        );
    }

    #[test]
    fn rate_bounds_are_respected() {
        let never = FaultPlan::Seeded { seed: 1, rate: 0.0 };
        assert!((0..500).all(|i| never.fault_for(i).is_none()));
        let always = FaultPlan::Seeded { seed: 1, rate: 1.0 };
        assert!((0..500).all(|i| always.fault_for(i).is_some()));
    }
}
