//! The top-level router: [`RouterConfig`] plus the classic [`PatLabor`]
//! handle, now a thin wrapper over the long-lived [`Engine`]
//! (see [`crate::engine`] for the engine/session split).
//!
//! The staged serving pipeline
//! `Classify → LutQuery | LocalSearch → Materialize`
//! (see [`crate::pipeline`] for the stage diagram) and the degradation
//! ladder of [`crate::resilience`] (DESIGN.md §12) live on the engine;
//! `PatLabor` keeps the original construct-once/route-per-net API for
//! library users and tests while the serve layer drives the engine
//! directly with per-request [`Session`]s.

use std::sync::Arc;

use patlabor_geom::Net;
use patlabor_lut::LookupTable;
use patlabor_pareto::ParetoSet;
use patlabor_tree::RoutingTree;

use crate::batch::BatchConfig;
use crate::engine::{Engine, Session};
use crate::local_search::LocalSearchConfig;
use crate::pipeline::{RouteError, RouteOutcome};
use crate::policy::Policy;
use crate::resilience::{Clock, FaultPlane, ResilienceConfig};

/// Router-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// λ used when the router builds its own lookup tables (degrees
    /// `2..=λ` answered exactly). Tables for λ ≤ 6 build in seconds;
    /// λ = 7+ should be generated offline and loaded.
    pub lambda: u8,
    /// Local-search settings for nets with degree `> λ`.
    pub local_search: LocalSearchConfig,
    /// Which fallback rungs of the degradation ladder are armed, whether
    /// served frontiers are validated against their witness trees, and
    /// the optional per-net deadline. [`ResilienceConfig::strict`]
    /// restores the pre-ladder fail-fast behavior (oracles and tests
    /// that assert on `RouteError`s route that way).
    pub resilience: ResilienceConfig,
    /// Deterministic fault injection ([`FaultPlane`]), replacing ad-hoc
    /// table doctoring in tests and drills. Empty by default: nothing
    /// fires and the serving path skips all fault bookkeeping.
    pub faults: FaultPlane,
    /// Batch-driver tuning ([`crate::batch::BatchConfig`]): the
    /// work-stealing chunk size, auto-derived by default.
    pub batch: BatchConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            lambda: 5,
            local_search: LocalSearchConfig::default(),
            resilience: ResilienceConfig::default(),
            faults: FaultPlane::default(),
            batch: BatchConfig::default(),
        }
    }
}

/// The PatLabor router.
///
/// Construct once (table generation is the expensive part), then call
/// [`PatLabor::route`] per net — the intended usage pattern for routing
/// millions of nets. Internally this is a handle to a long-lived
/// [`Engine`]; cloning shares the table, policy and fault plane rather
/// than duplicating them. Long-lived services (the `patlabor serve`
/// daemon) use the [`Engine`]/[`Session`] API directly.
///
/// # Example
///
/// ```
/// use patlabor::{Net, PatLabor, Point, RouteSource};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let router = PatLabor::new();
/// let net = Net::new(vec![Point::new(0, 0), Point::new(5, 9), Point::new(9, 4)])?;
/// let outcome = router.route(&net)?;
/// assert!(!outcome.frontier.is_empty());
/// assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatLabor {
    engine: Engine,
}

impl PatLabor {
    /// Builds a router with freshly generated λ = 5 lookup tables and the
    /// default trained policy.
    pub fn new() -> Self {
        PatLabor { engine: Engine::new() }
    }

    /// Builds a router with the given configuration (generating tables for
    /// its λ).
    pub fn with_config(config: RouterConfig) -> Self {
        PatLabor { engine: Engine::with_config(config) }
    }

    /// Builds a router around pre-generated tables (e.g. loaded from disk
    /// via [`LookupTable::load`]).
    pub fn with_table(table: LookupTable) -> Self {
        PatLabor { engine: Engine::with_table(table) }
    }

    /// Builds a router around pre-generated tables with an explicit
    /// configuration. `config.lambda` is overridden by the table's λ —
    /// the table, not the config, decides which degrees are tabulated.
    pub fn with_table_and_config(table: LookupTable, config: RouterConfig) -> Self {
        PatLabor {
            engine: Engine::with_table_and_config(table, config),
        }
    }

    /// Wraps an existing engine handle in the classic router API.
    pub fn from_engine(engine: Engine) -> Self {
        PatLabor { engine }
    }

    /// The underlying long-lived engine handle (an `Arc` clone away from
    /// being shared with a server).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Unwraps into the underlying engine handle.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Replaces the pin-selection policy (e.g. with a freshly trained one).
    #[must_use]
    pub fn with_policy(self, policy: Policy) -> Self {
        PatLabor { engine: self.engine.with_policy(policy) }
    }

    /// Replaces the local-search configuration.
    #[must_use]
    pub fn with_local_search(self, local_search: LocalSearchConfig) -> Self {
        PatLabor {
            engine: self.engine.with_local_search(local_search),
        }
    }

    /// Replaces the resilience configuration (armed fallback rungs,
    /// frontier validation, per-net deadline).
    #[must_use]
    pub fn with_resilience(self, resilience: ResilienceConfig) -> Self {
        PatLabor {
            engine: self.engine.with_resilience(resilience),
        }
    }

    /// Replaces the fault plane (deterministic fault injection).
    #[must_use]
    pub fn with_faults(self, faults: FaultPlane) -> Self {
        PatLabor { engine: self.engine.with_faults(faults) }
    }

    /// Replaces the deadline clock (tests inject a
    /// [`crate::resilience::VirtualClock`] so deadline behavior is a pure
    /// function of the configuration).
    #[must_use]
    pub fn with_clock(self, clock: Arc<dyn Clock>) -> Self {
        PatLabor { engine: self.engine.with_clock(clock) }
    }

    /// The lookup tables backing this router — a snapshot of the
    /// engine's current table generation (see [`Engine::reload_table`]).
    pub fn table(&self) -> Arc<LookupTable> {
        self.engine.table()
    }

    /// The active pin-selection policy.
    pub fn policy(&self) -> &Policy {
        self.engine.policy()
    }

    /// The router's configuration (the batch driver reads its chunk
    /// tuning from here).
    pub fn config(&self) -> &RouterConfig {
        self.engine.config()
    }

    /// Routes one net through the staged pipeline, returning the Pareto
    /// frontier together with its provenance.
    ///
    /// Exact (the full Pareto frontier, one witness tree per point) for
    /// degrees `≤ λ`; the local-search approximation above. The outcome's
    /// [`crate::pipeline::RouteProvenance`] records which stage answered
    /// and how much work each stage did.
    ///
    /// A rung that cannot serve — missing table degree or pattern,
    /// corrupted cost row caught by validation, expired deadline, or a
    /// panic — falls through the degradation ladder
    ///
    /// ```text
    /// LUT query → numeric DW → baseline      (degree ≤ λ)
    /// local search → baseline                (degree > λ)
    /// ```
    ///
    /// and the descent is recorded in the provenance trace. Only when
    /// every armed rung fails does the call return a structured
    /// [`RouteError`]; with the default [`ResilienceConfig`] the baseline
    /// rung is always armed, so errors require a fault nothing can absorb
    /// (an `AllRungs` stage panic) or a disarmed ladder
    /// ([`ResilienceConfig::strict`]).
    ///
    /// Routing is deterministic: the whole outcome, provenance included,
    /// depends only on the net and the router's table and configuration.
    pub fn route(&self, net: &Net) -> Result<RouteOutcome, RouteError> {
        self.engine.route(net)
    }

    /// [`Engine::route_session`] through the classic handle: one net
    /// under a per-request [`Session`] (deadline override, fault-seed
    /// override, request identity).
    pub fn route_session(&self, net: &Net, session: &Session) -> Result<RouteOutcome, RouteError> {
        self.engine.route_session(net, session)
    }

    /// [`PatLabor::route`], discarding provenance.
    ///
    /// Convenience for callers that only want the frontier (benchmarks,
    /// examples, comparisons against baselines). The full degradation
    /// ladder applies, so a table fault demotes the net to a lower rung
    /// instead of failing.
    ///
    /// # Panics
    ///
    /// Only when even the baseline rung cannot serve: every fallback
    /// disarmed ([`ResilienceConfig::strict`]) on a net the tables cannot
    /// answer, or a fault nothing can absorb (an `AllRungs` stage panic).
    /// With the default [`ResilienceConfig`] the baseline rung is always
    /// armed and this method never panics.
    pub fn route_frontier(&self, net: &Net) -> ParetoSet<RoutingTree> {
        match self.route(net) {
            Ok(outcome) => outcome.frontier,
            Err(e) => panic!("routing failed with every armed rung exhausted: {e}"),
        }
    }

    /// Whether `route` is exact for this degree.
    pub fn is_exact_for(&self, degree: usize) -> bool {
        self.engine.is_exact_for(degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::frontier_consistent;
    use crate::pipeline::RouteSource;
    use crate::resilience::{
        Fault, FaultKind, FaultPlane, FaultScope, Rung, RungOutcome, VirtualClock,
    };
    use patlabor_dw::{numeric, DwConfig};
    use patlabor_geom::Point;
    use std::panic::{self, AssertUnwindSafe};
    use std::time::Duration;

    fn random_net(seed: &mut u64, degree: usize, span: u64) -> Net {
        let mut rng = move || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        Net::new(
            (0..degree)
                .map(|_| Point::new((rng() % span) as i64, (rng() % span) as i64))
                .collect(),
        )
        .unwrap()
    }

    fn router4() -> PatLabor {
        PatLabor::with_table(crate::LutBuilder::new(4).threads(2).build())
    }

    #[test]
    fn small_nets_are_exact() {
        let router = PatLabor::new();
        let mut seed = 2u64;
        for degree in 3..=5 {
            let net = random_net(&mut seed, degree, 60);
            let outcome = router.route(&net).expect("tabulated degree");
            let exact = numeric::pareto_frontier(&net, &DwConfig::default());
            assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
            assert!(router.is_exact_for(degree));
            assert!(outcome.provenance.source.is_exact());
            assert_eq!(outcome.provenance.degree, degree);
            assert!(!outcome.provenance.trace.degraded());
        }
    }

    #[test]
    fn large_nets_use_local_search() {
        let router = PatLabor::new();
        let mut seed = 4u64;
        let net = random_net(&mut seed, 15, 150);
        assert!(!router.is_exact_for(15));
        let outcome = router.route(&net).expect("local search cannot fail");
        assert_eq!(outcome.provenance.source, RouteSource::LocalSearch);
        assert!(outcome.provenance.counters.local_search_rounds >= 1);
        assert!(outcome.provenance.counters.local_search_candidates >= 1);
        assert_eq!(outcome.provenance.trace.served_by(), Some(Rung::LocalSearch));
        assert!(!outcome.frontier.is_empty());
        for (c, t) in outcome.frontier.iter() {
            t.validate(&net).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn router_from_loaded_table() {
        let table = crate::LutBuilder::new(4).threads(2).build();
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        let loaded = crate::LookupTable::read_from(buf.as_slice()).unwrap();
        let router = PatLabor::with_table(loaded);
        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(7, 3),
            Point::new(2, 9),
            Point::new(8, 8),
        ])
        .unwrap();
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(router.route_frontier(&net).cost_vec(), exact.cost_vec());
    }

    #[test]
    fn repeated_routes_share_provenance() {
        let router = PatLabor::new();
        let mut seed = 9u64;
        let net = random_net(&mut seed, 4, 50);
        let first = router.route(&net).unwrap();
        assert_eq!(first.provenance.source, RouteSource::ExactLut);
        assert!(first.provenance.counters.candidates_scored >= 1);
        assert_eq!(
            first.provenance.counters.trees_materialized as usize,
            first.frontier.len()
        );
        assert!(!first.provenance.trace.degraded());
        assert_eq!(first.provenance.trace.served_by(), Some(Rung::Lut));
        // A repeat of the same net (or of a congruent copy) is answered by
        // the same query, not from state the first route left behind.
        assert_eq!(router.route(&net).unwrap(), first);
        let shifted = Net::new(
            net.pins()
                .iter()
                .map(|p| Point::new(p.x + 1000, p.y - 7))
                .collect(),
        )
        .unwrap();
        let moved = router.route(&shifted).unwrap();
        assert_eq!(moved.provenance, first.provenance);
        assert_eq!(moved.frontier.cost_vec(), first.frontier.cost_vec());
    }

    #[test]
    fn degree_2_is_closed_form() {
        let router = PatLabor::new();
        let net = Net::new(vec![Point::new(0, 0), Point::new(3, 4)]).unwrap();
        let outcome = router.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::ClosedForm);
        assert_eq!(outcome.provenance.counters.trees_materialized, 1);
        assert_eq!(outcome.provenance.counters.candidates_scored, 0);
        assert_eq!(outcome.provenance.trace.served_by(), Some(Rung::ClosedForm));
        assert_eq!(outcome.frontier.len(), 1);
    }

    #[test]
    fn strict_gutted_table_reports_missing_degree_not_panic() {
        let mut table = crate::LutBuilder::new(4).threads(1).build();
        table.remove_degree(3);
        // Strict mode: no fallback rungs — the pre-ladder fail-fast
        // contract that oracles assert on.
        let router = PatLabor::with_table_and_config(
            table,
            RouterConfig {
                resilience: ResilienceConfig::strict(),
                ..RouterConfig::default()
            },
        );
        let net = Net::new(vec![Point::new(0, 0), Point::new(5, 2), Point::new(2, 7)]).unwrap();
        match router.route(&net) {
            Err(RouteError::MissingDegree { degree: 3, lambda: 4 }) => {}
            other => panic!("expected MissingDegree, got {other:?}"),
        }
        // Degree 4 still routes fine — the failure is per-degree.
        let ok = Net::new(vec![
            Point::new(0, 0),
            Point::new(5, 2),
            Point::new(2, 7),
            Point::new(8, 4),
        ])
        .unwrap();
        assert!(router.route(&ok).is_ok());
    }

    #[test]
    fn gutted_table_degrades_to_numeric_dw() {
        let mut table = crate::LutBuilder::new(4).threads(1).build();
        table.remove_degree(3);
        let router = PatLabor::with_table(table);
        let net = Net::new(vec![Point::new(0, 0), Point::new(5, 2), Point::new(2, 7)]).unwrap();
        let outcome = router.route(&net).expect("the DW rung absorbs the missing degree");
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome.provenance.source.is_exact());
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
        let trace = outcome.provenance.trace;
        assert!(trace.degraded());
        assert_eq!(trace.to_string(), "lut:missing-degree -> numeric-dw:served");
    }

    #[test]
    fn injected_corrupt_row_is_validated_away() {
        let faults = FaultPlane::seeded(11).with_fault(Fault {
            kind: FaultKind::CorruptedRow,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        let router = router4().with_faults(faults);
        let mut seed = 5u64;
        let net = random_net(&mut seed, 4, 60);
        let outcome = router.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::CorruptRow));
        // The served frontier is the uncorrupted exact answer.
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
        assert!(frontier_consistent(&outcome.frontier));
    }

    #[test]
    fn injected_stage_panic_is_absorbed_by_the_ladder() {
        let faults = FaultPlane::seeded(2).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        let router = router4().with_faults(faults);
        let mut seed = 6u64;
        // Small net: the LUT rung panics, numeric DW absorbs it exactly.
        let small = random_net(&mut seed, 4, 50);
        let outcome = router.route(&small).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::Panicked));
        // Large net: local search panics, the baseline serves.
        let large = random_net(&mut seed, 9, 90);
        let outcome = router.route(&large).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        assert!(!outcome.provenance.source.is_exact());
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::LocalSearch, RungOutcome::Panicked));
        for (c, t) in outcome.frontier.iter() {
            t.validate(&large).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn unabsorbed_panic_resumes_after_exhaustion() {
        let faults = FaultPlane::seeded(4).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::AllRungs,
            probability: 1.0,
        });
        let router = router4().with_faults(faults);
        let mut seed = 7u64;
        let net = random_net(&mut seed, 4, 50);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| router.route(&net)));
        let payload = caught.expect_err("every rung panics; nothing can absorb it");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault: stage panic"), "{msg}");
    }

    #[test]
    fn stage_delay_with_deadline_walks_to_the_baseline() {
        let faults = FaultPlane::seeded(0)
            .with_fault(Fault {
                kind: FaultKind::StageDelay,
                scope: FaultScope::Primary,
                probability: 1.0,
            })
            .with_delay(Duration::from_millis(10));
        let config = RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_millis(5)),
                ..ResilienceConfig::default()
            },
            faults,
            ..RouterConfig::default()
        };
        let router = PatLabor::with_table_and_config(
            crate::LutBuilder::new(4).threads(2).build(),
            config,
        )
        .with_clock(Arc::new(VirtualClock::new()));
        let mut seed = 8u64;
        let net = random_net(&mut seed, 4, 60);
        let outcome = router.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        assert_eq!(
            outcome.provenance.trace.to_string(),
            "lut:deadline -> numeric-dw:deadline -> baseline:served"
        );
        assert!(outcome.provenance.counters.budget_checks >= 2);
        for (c, t) in outcome.frontier.iter() {
            t.validate(&net).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn a_generous_deadline_does_not_change_the_route() {
        let config = RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_secs(3600)),
                ..ResilienceConfig::default()
            },
            ..RouterConfig::default()
        };
        let plain = router4();
        let budgeted = PatLabor::with_table_and_config(
            crate::LutBuilder::new(4).threads(2).build(),
            config,
        );
        let mut seed = 12u64;
        for degree in [3, 4, 9] {
            let net = random_net(&mut seed, degree, 70);
            let a = plain.route(&net).unwrap();
            let b = budgeted.route(&net).unwrap();
            assert_eq!(a.frontier.cost_vec(), b.frontier.cost_vec());
            assert_eq!(a.provenance.source, b.provenance.source);
            assert!(!b.provenance.trace.degraded());
            assert!(b.provenance.counters.budget_checks >= 1);
        }
    }
}
