//! Batch determinism: `route_batch` must equal serial `route` net for
//! net — frontier, witness trees and provenance — at every thread count,
//! and repeated batches must answer identically.

use patlabor::{Net, PatLabor, Point, RouteResult, RouteSource, RouterConfig};
use patlabor_netgen::uniform_net;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ≥ 100 seeded nets covering every degree in 3..=12 (tabulated nets
/// and the local-search path alike).
fn workload() -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(0x0de7_ea11);
    let mut nets = Vec::new();
    for round in 0..11 {
        for degree in 3..=12 {
            // Small spans collapse Hanan grids onto few congruence
            // classes, so many nets repeat a class; large spans do not.
            let span = [8, 40, 2_000][round % 3];
            nets.push(uniform_net(&mut rng, degree, span));
        }
    }
    assert!(nets.len() >= 100);
    nets
}

/// Asserts that every slot of `batch` has the serial route's frontier
/// and provenance source, then that the whole outcomes are equal.
fn assert_matches_serial(batch: &[RouteResult], serial: &[RouteResult], what: &str) {
    assert_eq!(batch.len(), serial.len(), "{what}");
    for (i, (b, s)) in batch.iter().zip(serial).enumerate() {
        let b = b.as_ref().expect("workload nets always route");
        let s = s.as_ref().expect("workload nets always route");
        assert_eq!(b.frontier, s.frontier, "{what}: net {i} frontier");
        assert_eq!(
            b.provenance.source, s.provenance.source,
            "{what}: net {i} provenance source"
        );
        assert_eq!(b, s, "{what}: net {i} outcome");
    }
}

#[test]
fn batch_at_eight_threads_matches_serial_route_provenance_included() {
    let router = PatLabor::with_config(RouterConfig {
        lambda: 5,
        ..RouterConfig::default()
    });
    let nets = workload();
    let serial: Vec<_> = nets.iter().map(|n| router.route(n)).collect();

    assert_matches_serial(&router.route_batch(&nets, 8), &serial, "first batch");
    // Routing leaves no state behind: a repeated batch answers the same.
    assert_matches_serial(&router.route_batch(&nets, 8), &serial, "repeated batch");
}

#[test]
fn congruent_nets_route_identically() {
    let router = PatLabor::with_config(RouterConfig {
        lambda: 5,
        ..RouterConfig::default()
    });
    let base = Net::new(vec![
        Point::new(0, 0),
        Point::new(7, 2),
        Point::new(3, 9),
        Point::new(10, 5),
    ])
    .unwrap();
    // The same net translated, mirrored about both axes, and rotated 90°
    // (x, y) → (y, −x): all congruent, so all one lookup-table answer.
    let translated = base.map_points(|p| Point::new(p.x + 1000, p.y - 37));
    let mirrored = base.map_points(|p| Point::new(-p.x, -p.y));
    let rotated = base.map_points(|p| Point::new(p.y, -p.x));

    let outcome = router.route(&base).unwrap();
    assert_eq!(outcome.provenance.source, RouteSource::ExactLut);

    for (label, net) in [
        ("translated", &translated),
        ("mirrored", &mirrored),
        ("rotated", &rotated),
    ] {
        let sym = router.route(net).unwrap();
        assert_eq!(
            sym.frontier.cost_vec(),
            outcome.frontier.cost_vec(),
            "{label}"
        );
        assert_eq!(sym.provenance, outcome.provenance, "{label}");
    }
}
