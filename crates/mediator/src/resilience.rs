//! Per-source resilience: retries, circuit breakers, last-good answers,
//! and the degradation report for partial union answers.
//!
//! Everything here is deterministic. Retry backoff is *virtual* — the
//! would-have-slept milliseconds are recorded in the outcome, never
//! slept. Breaker cooldown is measured in rejected calls *to that
//! source*, not wall time, so the state machine advances identically no
//! matter how fast (or parallel) the callers are. Combined with the
//! seeded [`crate::fault::FaultInjector`], a federation run with a fixed
//! seed produces the same [`DegradationReport`] byte for byte, every
//! time.
//!
//! The call path ([`resilient_answer`]) normalizes the query against the
//! source DTD and pushes the normalized query to the wrapper's own
//! [`Wrapper::answer`] — the one way the mediator calls a source. The
//! wrapper validates where its document lives (see the contract on
//! [`Wrapper`]), so a silently-corrupted export still fails as
//! [`SourceError::DtdInvalid`], and only the answer — never the whole
//! document — is copied or shipped. A wrapper that panics is caught here
//! and becomes an ordinary source fault.

use crate::error::SourceError;
use crate::obs::SourceInstruments;
use crate::source::Wrapper;
use mix_xmas::{normalize, Query};
use mix_xml::Document;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Knobs for the per-source resilience machinery.
#[derive(Debug, Clone, Copy)]
pub struct ResiliencePolicy {
    /// Extra attempts after the first, for *transient* errors only.
    pub max_retries: u32,
    /// Virtual backoff before retry `n` is `backoff_base_ms << (n-1)`
    /// milliseconds; recorded, never slept.
    pub backoff_base_ms: u64,
    /// Consecutive source faults that trip the breaker open.
    pub failure_threshold: u32,
    /// Calls rejected while open before the breaker half-opens and lets
    /// one probe through.
    pub cooldown_calls: u32,
    /// On failure, serve the last good answer to the same normalized
    /// query (marked [`FetchStatus::Stale`]) instead of failing the member
    /// outright. Last-good answers are only recorded while this is on.
    pub serve_stale: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base_ms: 10,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: true,
        }
    }
}

/// The circuit breaker's state for one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are rejected without contacting the source.
    Open,
    /// Cooled down: the next call is a probe; success re-closes, failure
    /// re-opens.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Distinct normalized queries per source whose last good answer is
/// kept for stale serving. Reaching the cap wipes the map and rebuilds it
/// from later answers, so the hit path stays one hash lookup; a wipe
/// costs stale coverage for queries not seen since, never correctness.
pub const LAST_GOOD_CAP: usize = 64;

/// Mutable per-source health, shared by every call that targets the
/// source.
#[derive(Debug)]
pub struct Health {
    state: BreakerState,
    consecutive_failures: u32,
    rejected_while_open: u32,
    /// Last good answer per normalized-query text, at most
    /// [`LAST_GOOD_CAP`] of them.
    last_good: HashMap<String, Document>,
}

/// What the breaker decided for one incoming call — the result of
/// [`Health::gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerGate {
    /// Closed: the call flows through normally.
    Pass,
    /// This call completed the cooldown and transitioned Open →
    /// HalfOpen *now*: it goes through as the single probe, and the
    /// caller should emit its half-open event.
    HalfOpened,
    /// Already half-open (some earlier call transitioned): this call
    /// also probes, but no transition happened here.
    Probe,
    /// Open and still cooling down: reject without contacting the
    /// source.
    Reject,
}

impl Health {
    /// A fresh, closed health record with no last-good answers.
    pub fn new() -> Health {
        Health {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            rejected_while_open: 0,
            last_good: HashMap::new(),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many last-good answers are held (never above
    /// [`LAST_GOOD_CAP`]).
    pub fn last_good_answers(&self) -> usize {
        self.last_good.len()
    }

    /// Keeps `answer` as the last good answer to the normalized query
    /// `key`, wiping the map first when it is full.
    fn remember(&mut self, key: String, answer: Document) {
        if self.last_good.len() >= LAST_GOOD_CAP && !self.last_good.contains_key(&key) {
            self.last_good.clear();
        }
        self.last_good.insert(key, answer);
    }

    /// Source faults recorded since the last success.
    pub fn failure_streak(&self) -> u32 {
        self.consecutive_failures
    }

    /// Gates one call through the breaker: an open breaker counts the
    /// rejection and half-opens once `cooldown_calls` of them have
    /// accumulated. This is the shared state machine of
    /// [`resilient_answer`] and the replica router
    /// ([`crate::topology::ReplicaSet`]); observability stays with the
    /// caller so event ordering is theirs to pin.
    pub fn gate(&mut self, cooldown_calls: u32) -> BreakerGate {
        match self.state {
            BreakerState::Closed => BreakerGate::Pass,
            BreakerState::HalfOpen => BreakerGate::Probe,
            BreakerState::Open => {
                self.rejected_while_open += 1;
                if self.rejected_while_open >= cooldown_calls {
                    self.state = BreakerState::HalfOpen;
                    BreakerGate::HalfOpened
                } else {
                    BreakerGate::Reject
                }
            }
        }
    }

    /// Records a successful call: failure accounting resets and the
    /// breaker closes. Returns `true` when this closed a previously
    /// non-closed breaker — the caller's cue to emit its close event.
    pub fn record_success(&mut self) -> bool {
        let reclosed = self.state != BreakerState::Closed;
        self.consecutive_failures = 0;
        self.rejected_while_open = 0;
        self.state = BreakerState::Closed;
        reclosed
    }

    /// Records a source fault: a failed half-open probe re-opens
    /// immediately, and `failure_threshold` consecutive faults trip a
    /// closed breaker. Returns `true` when this opened a previously
    /// non-open breaker — the caller's cue to emit its open event.
    /// Callers must filter with [`SourceError::is_source_fault`] first;
    /// query errors, version mismatches, and throttles never land here.
    pub fn record_failure(&mut self, failure_threshold: u32) -> bool {
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen || self.consecutive_failures >= failure_threshold {
            let newly_opened = self.state != BreakerState::Open;
            self.state = BreakerState::Open;
            self.rejected_while_open = 0;
            newly_opened
        } else {
            false
        }
    }
}

impl Default for Health {
    fn default() -> Self {
        Health::new()
    }
}

/// How a member's data was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStatus {
    /// Served from a live answer.
    Fresh,
    /// The live call failed; served from the last good answer to the same
    /// normalized query.
    Stale,
    /// The live call failed and no last-good answer to this query was
    /// held: this member contributed nothing.
    Failed,
}

impl fmt::Display for FetchStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FetchStatus::Fresh => "fresh",
            FetchStatus::Stale => "stale",
            FetchStatus::Failed => "failed",
        })
    }
}

/// What happened on one resilient call to one source.
#[derive(Debug, Clone)]
pub struct SourceOutcome {
    /// The source's registered name.
    pub source: String,
    /// How (whether) the member was served.
    pub status: FetchStatus,
    /// Retries actually used (0 = first attempt decided it).
    pub retries: u32,
    /// Total virtual backoff recorded across those retries, in ms.
    pub backoff_ms: u64,
    /// The last error, if the live call ultimately failed.
    pub error: Option<SourceError>,
    /// Breaker state *after* the call.
    pub breaker: BreakerState,
    /// True when the breaker rejected the call without contacting the
    /// source at all.
    pub short_circuited: bool,
}

/// The structured account of a degraded (or clean) view materialization:
/// one [`SourceOutcome`] per member source, in registration order.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// The view that was materialized.
    pub view: String,
    /// Per-source outcomes, in registration (union) order.
    pub outcomes: Vec<SourceOutcome>,
    /// Whether the inferred union view DTD still soundly covers the
    /// partial answer assembled from the surviving members. `false` means
    /// a consumer reasoning with the advertised view DTD could draw
    /// unsound conclusions about this particular answer.
    pub union_dtd_covers_survivors: bool,
}

impl DegradationReport {
    /// True when every member was served fresh.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == FetchStatus::Fresh)
    }

    /// The sources that contributed nothing.
    pub fn failed_sources(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.status == FetchStatus::Failed)
            .map(|o| o.source.as_str())
            .collect()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let served = self
            .outcomes
            .iter()
            .filter(|o| o.status != FetchStatus::Failed)
            .count();
        writeln!(
            f,
            "view '{}': {}/{} sources served, union DTD covers survivors: {}",
            self.view,
            served,
            self.outcomes.len(),
            if self.union_dtd_covers_survivors {
                "yes"
            } else {
                "no"
            }
        )?;
        for o in &self.outcomes {
            write!(
                f,
                "  {:<12} {:<6} breaker={}",
                o.source,
                o.status.to_string(),
                o.breaker
            )?;
            if o.retries > 0 {
                write!(f, " retries={} backoff={}ms", o.retries, o.backoff_ms)?;
            }
            if o.short_circuited {
                write!(f, " short-circuited")?;
            }
            if let Some(e) = &o.error {
                write!(f, " error[{}]: {}", e.kind(), e)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One resilient answer call: breaker check, bounded retry with virtual
/// backoff, last-good capture, and stale fallback.
///
/// The query is normalized against the source DTD and pushed to
/// [`Wrapper::answer`]; the wrapper validates its document (see
/// [`Wrapper`]). A panic inside the wrapper is caught and becomes a
/// [`SourceError::Unavailable`] source fault, counted by the breaker like
/// any other.
///
/// Returns the answer document (when status is not [`FetchStatus::Failed`])
/// plus the outcome record. `source` is only used to label the outcome.
///
/// `obs` records what happened *as it happens*: per-attempt call
/// latency (histogram + `fetch/<source>` span), retry and
/// short-circuit counters, served-fresh/stale/failed counters, and an
/// ordered event for every breaker transition and degraded serve —
/// emitted at the transition point, not reconstructed from the
/// [`DegradationReport`] afterwards. Callers outside a mediator pass
/// [`SourceInstruments::noop`].
pub fn resilient_answer(
    source: &str,
    wrapper: &dyn Wrapper,
    query: &Query,
    policy: &ResiliencePolicy,
    health: &Mutex<Health>,
    obs: &SourceInstruments,
) -> (Option<Document>, SourceOutcome) {
    let mut outcome = SourceOutcome {
        source: source.to_owned(),
        status: FetchStatus::Failed,
        retries: 0,
        backoff_ms: 0,
        error: None,
        breaker: BreakerState::Closed,
        short_circuited: false,
    };

    // The query must normalize against this source's DTD before anything
    // else; a rejection is the caller's fault and never touches the
    // breaker or the source.
    let nq = match normalize(query, wrapper.dtd()) {
        Ok(nq) => nq,
        Err(e) => {
            let mut h = lock(health);
            outcome.error = Some(SourceError::Query(e));
            outcome.breaker = h.state;
            // no normalized form exists, so no last-good answer either
            return serve_stale_or_fail(None, &mut h, outcome, obs);
        }
    };
    // the last-good key: the normalized query text, as a daemon sees it
    let key = policy.serve_stale.then(|| nq.to_string());

    // Breaker gate.
    {
        let mut h = lock(health);
        match h.gate(policy.cooldown_calls) {
            BreakerGate::HalfOpened => {
                obs.breaker_half_opened.inc();
                obs.event("breaker-half-open", "cooldown complete; this call probes");
            }
            BreakerGate::Reject => {
                outcome.error = Some(SourceError::Unavailable(format!(
                    "circuit open for '{source}'"
                )));
                outcome.breaker = h.state;
                outcome.short_circuited = true;
                obs.short_circuits.inc();
                return serve_stale_or_fail(key.as_deref(), &mut h, outcome, obs);
            }
            BreakerGate::Pass | BreakerGate::Probe => {}
        }
    }

    // Attempt loop: the first attempt plus up to `max_retries` retries,
    // retrying only transient errors. Half-open probes get exactly one
    // attempt — a flapping source must prove itself without the benefit
    // of retries.
    let probing = lock(health).state == BreakerState::HalfOpen;
    let budget = if probing { 0 } else { policy.max_retries };
    let mut last_err: SourceError;
    loop {
        let attempt = {
            let _span = obs.registry().span(obs.fetch_stage());
            let timer = obs.fetch_latency.start();
            let r = catch_unwind(AssertUnwindSafe(|| wrapper.answer(&nq)))
                .unwrap_or_else(|panic| Err(panicked(source, panic.as_ref())));
            timer.stop();
            r
        };
        match attempt {
            Ok(answer) => {
                // copy outside the lock: parallel members share it
                let last_good = key.map(|k| (k, answer.clone()));
                let mut h = lock(health);
                if h.record_success() {
                    obs.breaker_closed.inc();
                    obs.event("breaker-close", "probe succeeded; breaker closed");
                }
                if let Some((k, copy)) = last_good {
                    h.remember(k, copy);
                }
                obs.fresh.inc();
                outcome.status = FetchStatus::Fresh;
                outcome.breaker = h.state;
                return (Some(answer), outcome);
            }
            Err(e) => {
                let retryable = e.is_transient();
                last_err = e;
                if retryable && outcome.retries < budget {
                    outcome.retries += 1;
                    outcome.backoff_ms += policy.backoff_base_ms << (outcome.retries - 1);
                    obs.retries.inc();
                    continue;
                }
                break;
            }
        }
    }

    // The call failed for good: account it against the breaker, then
    // degrade to the last good answer if allowed.
    let mut h = lock(health);
    if last_err.is_source_fault() && h.record_failure(policy.failure_threshold) {
        obs.breaker_opened.inc();
        obs.event(
            "breaker-open",
            &format!(
                "opened after {} consecutive failures ({})",
                h.consecutive_failures,
                last_err.kind()
            ),
        );
    }
    outcome.error = Some(last_err);
    outcome.breaker = h.state;
    serve_stale_or_fail(key.as_deref(), &mut h, outcome, obs)
}

fn lock(health: &Mutex<Health>) -> std::sync::MutexGuard<'_, Health> {
    health
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The source fault a caught wrapper panic becomes. The message carries
/// the panic's own text when it has one, so it is as deterministic as
/// the panic.
fn panicked(source: &str, payload: &(dyn std::any::Any + Send)) -> SourceError {
    let why = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    SourceError::Unavailable(format!("wrapper for '{source}' panicked: {why}"))
}

/// Degrade to the last good answer to the normalized query `key` (`None`
/// when stale serving is off or the query did not normalize) when one is
/// held, otherwise report the member failed. Either way the degradation
/// is recorded as an obs event *now* — at occurrence time — so a live
/// `mixctl stats` sees it even if the eventual [`DegradationReport`] is
/// dropped by the caller.
fn serve_stale_or_fail(
    key: Option<&str>,
    h: &mut Health,
    mut outcome: SourceOutcome,
    obs: &SourceInstruments,
) -> (Option<Document>, SourceOutcome) {
    if let Some(last) = key.and_then(|k| h.last_good.get(k)) {
        // a fresh copy per serve: evaluation deduplicates by element id,
        // so two served copies must never share auto ids
        let mut answer = last.clone();
        answer.refresh_auto_ids();
        outcome.status = FetchStatus::Stale;
        obs.stale.inc();
        obs.event("stale-serve", "serving the last good answer");
        return (Some(answer), outcome);
    }
    outcome.status = FetchStatus::Failed;
    obs.failed.inc();
    let cause = outcome.error.as_ref().map_or("unknown", |e| e.kind());
    obs.event(
        "source-failed",
        &format!("no live answer and no last good one; member failed ({cause})"),
    );
    (None, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector, FaultPlan};
    use crate::source::XmlSource;
    use mix_dtd::parse_compact;
    use mix_xmas::parse_query;
    use mix_xml::parse_document;
    use std::sync::Arc;

    fn base() -> Arc<XmlSource> {
        let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
        Arc::new(XmlSource::new(dtd, doc).unwrap())
    }

    fn query() -> Query {
        parse_query("ans = SELECT X WHERE <r> X:<a/> </r>").unwrap()
    }

    fn call(
        w: &dyn Wrapper,
        policy: &ResiliencePolicy,
        health: &Mutex<Health>,
    ) -> (Option<Document>, SourceOutcome) {
        resilient_answer(
            "s",
            w,
            &query(),
            policy,
            health,
            &SourceInstruments::noop("s"),
        )
    }

    fn call_obs(
        w: &dyn Wrapper,
        policy: &ResiliencePolicy,
        health: &Mutex<Health>,
        obs: &SourceInstruments,
    ) -> (Option<Document>, SourceOutcome) {
        resilient_answer("s", w, &query(), policy, health, obs)
    }

    #[test]
    fn clean_source_serves_fresh() {
        let w = base();
        let health = Mutex::new(Health::new());
        let (doc, o) = call(w.as_ref(), &ResiliencePolicy::default(), &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.breaker, BreakerState::Closed);
        assert_eq!(o.retries, 0);
        assert_eq!(doc.unwrap().root.children().len(), 2);
        assert_eq!(health.lock().unwrap().last_good_answers(), 1);
    }

    #[test]
    fn transient_errors_are_retried_with_virtual_backoff() {
        // faults on calls 0 and 1; call 2 succeeds — inside the default
        // 2-retry budget
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::Transient), Some(Fault::Timeout), None]),
        );
        let health = Mutex::new(Health::new());
        let (doc, o) = call(&w, &ResiliencePolicy::default(), &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.retries, 2);
        assert_eq!(o.backoff_ms, 10 + 20);
        assert!(doc.is_some());
        // success resets the failure count
        assert_eq!(health.lock().unwrap().consecutive_failures, 0);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::MalformedXml), None]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Failed);
        assert_eq!(o.retries, 0);
        assert!(doc.is_none());
        assert_eq!(w.calls(), 1, "must not have retried a permanent error");
    }

    #[test]
    fn corrupted_fetch_is_caught_by_validation() {
        let w = FaultInjector::new(base(), FaultPlan::Script(vec![Some(Fault::DtdViolate)]));
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        let (_, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(matches!(o.error, Some(SourceError::DtdInvalid(_))));
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        // an unbroken run of hard outages (a seeded rate-1.0 plan could
        // deal a Truncate, which `a*` happens to still cover)
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::Unavailable); 10]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        // three failing calls trip the breaker
        for i in 0..3 {
            let (_, o) = call(&w, &policy, &health);
            assert_eq!(o.status, FetchStatus::Failed, "call {i}");
            assert!(!o.short_circuited);
        }
        assert_eq!(health.lock().unwrap().state(), BreakerState::Open);
        let contacted = w.calls();
        // next (cooldown_calls - 1) calls are rejected without contact
        let (_, o) = call(&w, &policy, &health);
        assert!(o.short_circuited);
        assert_eq!(o.breaker, BreakerState::Open);
        assert_eq!(
            w.calls(),
            contacted,
            "open breaker must not contact the source"
        );
        // the cooldown-completing call goes through as a half-open probe;
        // the source still faults, so the breaker re-opens
        let (_, o) = call(&w, &policy, &health);
        assert!(!o.short_circuited);
        assert_eq!(w.calls(), contacted + 1);
        assert_eq!(o.breaker, BreakerState::Open);
    }

    #[test]
    fn half_open_probe_success_recloses() {
        // fail 3 times (trip), then the probe succeeds
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![
                Some(Fault::Unavailable),
                Some(Fault::Unavailable),
                Some(Fault::Unavailable),
                None,
            ]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 1,
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        for _ in 0..3 {
            call(&w, &policy, &health);
        }
        assert_eq!(health.lock().unwrap().state(), BreakerState::Open);
        // cooldown_calls = 1 → this very call becomes the probe
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.breaker, BreakerState::Closed);
        assert!(doc.is_some());
    }

    #[test]
    fn snapshot_serves_stale_answers_after_failure() {
        // call 0 succeeds (captures the snapshot), everything after fails
        let mut script = vec![None];
        script.extend(vec![Some(Fault::Unavailable); 10]);
        let w = FaultInjector::new(base(), FaultPlan::Script(script));
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let (_, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Stale);
        assert!(o.error.is_some());
        assert_eq!(
            doc.unwrap().root.children().len(),
            2,
            "stale answer still full"
        );
    }

    #[test]
    fn breaker_transitions_emit_events_and_counters_at_occurrence_time() {
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![
                Some(Fault::Unavailable), // trip 1/3
                Some(Fault::Unavailable), // trip 2/3
                Some(Fault::Unavailable), // trip 3/3 → breaker-open
                // call 3 short-circuits (cooldown 2), call 4 probes…
                Some(Fault::Unavailable), // …and fails → breaker-open again
                None,                     // second probe succeeds → breaker-close
            ]),
        );
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        for _ in 0..6 {
            // 3 failures, 1 rejection, 1 failed probe, then: the re-opened
            // breaker rejects once more before its probe — so run one extra
            // pair of calls to reach the successful probe
            call_obs(&w, &policy, &health, &obs);
        }
        call_obs(&w, &policy, &health, &obs);
        assert_eq!(health.lock().unwrap().state(), BreakerState::Closed);
        let snap = registry.snapshot();
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.as_str()).collect();
        // events landed in transition order, interleaved with the
        // occurrence-time failure events — not reconstructed post-hoc
        let transitions: Vec<&&str> = kinds.iter().filter(|k| k.starts_with("breaker-")).collect();
        assert_eq!(
            transitions,
            [
                &"breaker-open",
                &"breaker-half-open",
                &"breaker-open",
                &"breaker-half-open",
                &"breaker-close"
            ]
        );
        assert_eq!(
            snap.counters[r#"source_breaker_opened_total{source="s"}"#],
            2
        );
        assert_eq!(
            snap.counters[r#"source_breaker_half_opened_total{source="s"}"#],
            2
        );
        assert_eq!(
            snap.counters[r#"source_breaker_closed_total{source="s"}"#],
            1
        );
        assert_eq!(
            snap.counters[r#"source_short_circuits_total{source="s"}"#],
            2
        );
        assert_eq!(snap.counters[r#"source_served_fresh_total{source="s"}"#], 1);
        // every contacted attempt left a fetch-latency observation and a span
        let hist = &snap.histograms[r#"source_fetch_latency_ns{source="s"}"#];
        assert_eq!(hist.count, 5);
        assert!(snap.spans.iter().any(|s| s.stage == "fetch/s"));
    }

    #[test]
    fn degradation_events_fire_when_the_fault_occurs_seeded() {
        // Seeded plan: deterministic schedule — every call faults. The
        // strict `a, a` model makes even the corruption faults (Truncate,
        // DtdViolate) fail validation, so no fault can serve fresh.
        let dtd = parse_compact("{<r : a, a> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
        let strict = Arc::new(XmlSource::new(dtd, doc).unwrap());
        let w = FaultInjector::new(strict, FaultPlan::Seeded { seed: 7, rate: 1.0 });
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 1,
            ..ResiliencePolicy::default()
        };
        let (_, o) = call_obs(&w, &policy, &health, &obs);
        // the event is already in the registry the moment the call
        // returns, regardless of what the caller does with the outcome
        let snap = registry.snapshot();
        match o.status {
            FetchStatus::Failed => {
                assert_eq!(snap.counters[r#"source_failed_total{source="s"}"#], 1);
                assert!(snap.events.iter().any(|e| e.kind == "source-failed"));
            }
            FetchStatus::Stale => {
                assert_eq!(snap.counters[r#"source_served_stale_total{source="s"}"#], 1);
                assert!(snap.events.iter().any(|e| e.kind == "stale-serve"));
            }
            FetchStatus::Fresh => panic!("rate-1.0 seeded plan cannot serve fresh"),
        }
        assert_eq!(
            snap.counters[r#"source_retries_total{source="s"}"#],
            o.retries as u64
        );
    }

    #[test]
    fn query_errors_never_touch_the_breaker() {
        let w = base();
        let health = Mutex::new(Health::new());
        let bad = parse_query("ans = SELECT Z WHERE <r> X:<a/> </r>").unwrap();
        let (_, o) = resilient_answer(
            "s",
            w.as_ref(),
            &bad,
            &ResiliencePolicy::default(),
            &health,
            &SourceInstruments::noop("s"),
        );
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(matches!(o.error, Some(SourceError::Query(_))));
        let h = health.lock().unwrap();
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.consecutive_failures, 0);
    }
}
