//! Instrument bundles over [`mix_obs`] for the serving stack.
//!
//! The mediator does not sprinkle registry lookups through its hot
//! paths: every instrument a code path touches is resolved **once** —
//! when a source is registered, or when the mediator is built — into a
//! bundle of cheap atomic handles. Per-source metric names carry the
//! source as an inline Prometheus-style label
//! (`source_retries_total{source="site0"}`), so one registry serves any
//! number of sources and the exposition needs no label machinery.
//!
//! Both bundles come in a no-op flavor (backed by [`Registry::noop`])
//! whose every operation is a single branch on `None` — this is what
//! makes observability free when disabled (measured by bench X17).

use mix_obs::{Counter, Gauge, Histogram, Registry};

/// Splices an inline `{source="…"}` label into a metric name.
fn labeled(name: &str, source: &str) -> String {
    format!("{name}{{source=\"{source}\"}}")
}

/// The per-source instrument bundle: one per registered source, shared
/// (via `Arc`) by every thread that calls into that source through
/// [`crate::resilience::resilient_answer`].
#[derive(Clone)]
pub struct SourceInstruments {
    registry: Registry,
    source: String,
    /// Interned span stage, `fetch/<source>`.
    stage: String,
    /// Members served from a live answer.
    pub(crate) fresh: Counter,
    /// Members served from the last good answer.
    pub(crate) stale: Counter,
    /// Members that contributed nothing.
    pub(crate) failed: Counter,
    /// Retry attempts actually spent (not calls that retried).
    pub(crate) retries: Counter,
    /// Calls rejected by an open breaker without contacting the source.
    pub(crate) short_circuits: Counter,
    /// Breaker transitions into [`crate::resilience::BreakerState::Open`].
    pub(crate) breaker_opened: Counter,
    /// Breaker transitions into [`crate::resilience::BreakerState::HalfOpen`].
    pub(crate) breaker_half_opened: Counter,
    /// Breaker transitions back into [`crate::resilience::BreakerState::Closed`].
    pub(crate) breaker_closed: Counter,
    /// Wall-clock nanoseconds per fetch attempt (including validation).
    pub(crate) fetch_latency: Histogram,
}

impl SourceInstruments {
    /// Resolves the bundle for `source` against `registry`.
    pub fn new(registry: &Registry, source: &str) -> SourceInstruments {
        SourceInstruments {
            registry: registry.clone(),
            source: source.to_owned(),
            stage: format!("fetch/{source}"),
            fresh: registry.counter(&labeled("source_served_fresh_total", source)),
            stale: registry.counter(&labeled("source_served_stale_total", source)),
            failed: registry.counter(&labeled("source_failed_total", source)),
            retries: registry.counter(&labeled("source_retries_total", source)),
            short_circuits: registry.counter(&labeled("source_short_circuits_total", source)),
            breaker_opened: registry.counter(&labeled("source_breaker_opened_total", source)),
            breaker_half_opened: registry
                .counter(&labeled("source_breaker_half_opened_total", source)),
            breaker_closed: registry.counter(&labeled("source_breaker_closed_total", source)),
            fetch_latency: registry.histogram(&labeled("source_fetch_latency_ns", source)),
        }
    }

    /// A bundle whose every operation is a no-op — for callers driving
    /// [`crate::resilience::resilient_answer`] outside a mediator.
    pub fn noop(source: &str) -> SourceInstruments {
        SourceInstruments::new(&Registry::noop(), source)
    }

    /// The registry the bundle records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The source this bundle is labeled with.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The span stage name for fetches against this source.
    pub(crate) fn fetch_stage(&self) -> &str {
        &self.stage
    }

    /// Records an occurrence-time event, prefixing the detail with the
    /// source name.
    pub(crate) fn event(&self, kind: &str, detail: &str) {
        self.registry
            .event(kind, format!("source '{}': {detail}", self.source));
    }
}

/// The per-replica-set instrument bundle (one per sharded source, see
/// [`crate::topology::ReplicaSet`]): failover traffic between replicas
/// plus a live health gauge, labeled like [`SourceInstruments`] so the
/// same registry and exposition serve both layers.
#[derive(Clone)]
pub struct ReplicaInstruments {
    registry: Registry,
    source: String,
    /// Calls that skipped at least one replica (open breaker or live
    /// failure) before being served by a later one.
    pub(crate) failovers: Counter,
    /// Calls for which every replica failed — the outer resilience
    /// layer's last-good-answer fallback is all that's left.
    pub(crate) exhausted: Counter,
    /// Replicas whose breaker is currently closed (set after each call).
    pub(crate) healthy: Gauge,
    /// Answers served, per replica position.
    pub(crate) served: Vec<Counter>,
}

impl ReplicaInstruments {
    /// Resolves the bundle for a `replicas`-wide set serving `source`.
    pub fn new(registry: &Registry, source: &str, replicas: usize) -> ReplicaInstruments {
        ReplicaInstruments {
            registry: registry.clone(),
            source: source.to_owned(),
            failovers: registry.counter(&labeled("replica_failovers_total", source)),
            exhausted: registry.counter(&labeled("replica_exhausted_total", source)),
            healthy: registry.gauge(&labeled("replica_healthy", source)),
            served: (0..replicas)
                .map(|i| {
                    registry.counter(&format!(
                        "replica_served_total{{source=\"{source}\",replica=\"{i}\"}}"
                    ))
                })
                .collect(),
        }
    }

    /// A bundle whose every operation is a no-op.
    pub fn noop(source: &str, replicas: usize) -> ReplicaInstruments {
        ReplicaInstruments::new(&Registry::noop(), source, replicas)
    }

    /// Records an occurrence-time event, prefixing the detail with the
    /// source name.
    pub(crate) fn event(&self, kind: &str, detail: &str) {
        self.registry
            .event(kind, format!("source '{}': {detail}", self.source));
    }
}

/// The mediator-level bundle: query counts by answer path, query
/// errors, and end-to-end answer latency.
#[derive(Clone)]
pub(crate) struct MediatorInstruments {
    /// Queries answered (or failed) through [`crate::Mediator::query`].
    pub(crate) queries: Counter,
    /// Answers pruned as unsatisfiable by the DTD simplifier.
    pub(crate) pruned: Counter,
    /// Member fetches skipped because the satisfiability analyzer proved
    /// the per-source query `Unsat` (one increment per skipped fetch).
    pub(crate) sat_pruned: Counter,
    /// Answers shipped as one composed query (no materialization).
    pub(crate) composed: Counter,
    /// Answers that materialized the view.
    pub(crate) materialized: Counter,
    /// Queries that returned a [`crate::MediatorError`].
    pub(crate) errors: Counter,
    /// End-to-end `query()` wall-clock nanoseconds.
    pub(crate) latency: Histogram,
}

impl MediatorInstruments {
    pub(crate) fn new(registry: &Registry) -> MediatorInstruments {
        MediatorInstruments {
            queries: registry.counter("mediator_queries_total"),
            pruned: registry.counter("mediator_answers_pruned_total"),
            sat_pruned: registry.counter("sat_pruned_total"),
            composed: registry.counter("mediator_answers_composed_total"),
            materialized: registry.counter("mediator_answers_materialized_total"),
            errors: registry.counter("mediator_query_errors_total"),
            latency: registry.histogram("mediator_answer_latency_ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_spliced_into_metric_names() {
        let registry = Registry::new();
        let obs = SourceInstruments::new(&registry, "site0");
        obs.retries.add(3);
        obs.fetch_latency.observe(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[r#"source_retries_total{source="site0"}"#], 3);
        assert!(snap
            .histograms
            .contains_key(r#"source_fetch_latency_ns{source="site0"}"#));
    }

    #[test]
    fn noop_bundle_records_nothing() {
        let obs = SourceInstruments::noop("s");
        obs.fresh.inc();
        obs.event("breaker-open", "should vanish");
        assert!(!obs.registry().is_enabled());
        assert_eq!(obs.fresh.get(), 0);
    }
}
