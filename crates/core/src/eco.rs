//! Incremental (ECO) rerouting: net deltas.
//!
//! Production routing traffic is not i.i.d. fresh nets — it is small
//! edits to placed designs: a pin nudged by legalization, a sink added
//! by buffering, a blockage dropped over a macro. This module owns the
//! delta vocabulary ([`NetDelta`], [`DeltaKind`]) and the batch-driver
//! job type ([`DeltaJob`]). [`crate::Engine::reroute_with_staleness`]
//! answers an edit by routing the edited net through the ordinary
//! ladder: a LUT query costs no more than replaying a prior route's
//! winners would, so the engine keeps no per-class state to replay from
//! (DESIGN.md §16).
//!
//! # Totality
//!
//! [`NetDelta::apply`] is infallible by construction: out-of-range
//! indices clamp into range and a `RemoveSink` that would leave fewer
//! than two pins is a no-op. Callers (the wire layer, the CLI's edits
//! file, proptest generators) can therefore produce deltas freely
//! without a validation handshake — every delta denotes *some* edit.

use patlabor_geom::{Net, Point};

use crate::engine::Session;

/// One edit applied to a placed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Move pin `index` (0 = the source) to an absolute position. An
    /// out-of-range index clamps to the last pin.
    MovePin {
        /// Pin index into [`Net::pins`] (0 is the source).
        index: usize,
        /// The pin's new position.
        to: Point,
    },
    /// Append a new sink.
    AddSink {
        /// Position of the new sink.
        at: Point,
    },
    /// Remove sink `index` (0 = the first sink; the source cannot be
    /// removed). An out-of-range index clamps to the last sink; removing
    /// the only sink of a degree-2 net is a no-op.
    RemoveSink {
        /// Sink index (pin `index + 1`).
        index: usize,
    },
    /// Translate the whole net rigidly. Always class-preserving: the
    /// canonical pattern key and gap vector are translation-invariant.
    Translate {
        /// Horizontal offset.
        dx: i64,
        /// Vertical offset.
        dy: i64,
    },
    /// Push every pin strictly inside the rectangle `[min, max]` out to
    /// its nearest boundary point (ties broken left, right, bottom, top
    /// — deterministic). Models a blockage dropped over placed pins. A
    /// degenerate rectangle (`min` not component-wise ≤ `max`) is
    /// normalized first.
    BlockageMask {
        /// One corner of the blockage rectangle.
        min: Point,
        /// The opposite corner.
        max: Point,
    },
}

impl DeltaKind {
    /// Stable machine-readable label (the wire protocol, the CLI edits
    /// file and the verify harness all speak these).
    pub fn label(&self) -> &'static str {
        match self {
            DeltaKind::MovePin { .. } => "move-pin",
            DeltaKind::AddSink { .. } => "add-sink",
            DeltaKind::RemoveSink { .. } => "remove-sink",
            DeltaKind::Translate { .. } => "translate",
            DeltaKind::BlockageMask { .. } => "blockage-mask",
        }
    }
}

/// An edit against a concrete base net: the unit of the ECO API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDelta {
    /// The net as it was when last routed.
    pub base: Net,
    /// The edit to apply.
    pub kind: DeltaKind,
}

impl NetDelta {
    /// Pairs a base net with an edit.
    pub fn new(base: Net, kind: DeltaKind) -> Self {
        NetDelta { base, kind }
    }

    /// The edited net. Total: see the module docs on clamping and no-op
    /// semantics — the result is always a valid net (≥ 2 pins).
    pub fn apply(&self) -> Net {
        let mut pins: Vec<Point> = self.base.pins().to_vec();
        match self.kind {
            DeltaKind::MovePin { index, to } => {
                let i = index.min(pins.len() - 1);
                pins[i] = to;
            }
            DeltaKind::AddSink { at } => pins.push(at),
            DeltaKind::RemoveSink { index } => {
                if pins.len() > 2 {
                    let i = 1 + index.min(pins.len() - 2);
                    pins.remove(i);
                }
            }
            DeltaKind::Translate { dx, dy } => {
                for p in pins.iter_mut() {
                    *p = Point::new(p.x + dx, p.y + dy);
                }
            }
            DeltaKind::BlockageMask { min, max } => {
                let (x0, x1) = (min.x.min(max.x), min.x.max(max.x));
                let (y0, y1) = (min.y.min(max.y), min.y.max(max.y));
                for p in pins.iter_mut() {
                    if p.x > x0 && p.x < x1 && p.y > y0 && p.y < y1 {
                        *p = project_to_boundary(*p, x0, x1, y0, y1);
                    }
                }
            }
        }
        Net::new(pins).expect("delta application preserves the two-pin minimum")
    }
}

/// Nearest boundary point of the rectangle for a strictly interior `p`,
/// ties broken in the fixed order left, right, bottom, top.
fn project_to_boundary(p: Point, x0: i64, x1: i64, y0: i64, y1: i64) -> Point {
    let dl = p.x - x0;
    let dr = x1 - p.x;
    let db = p.y - y0;
    let dt = y1 - p.y;
    let m = dl.min(dr).min(db).min(dt);
    if m == dl {
        Point::new(x0, p.y)
    } else if m == dr {
        Point::new(x1, p.y)
    } else if m == db {
        Point::new(p.x, y0)
    } else {
        Point::new(p.x, y1)
    }
}

/// One slot of a delta batch ([`crate::Engine::route_batch_deltas`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaJob {
    /// The edit to apply and route.
    pub delta: NetDelta,
    /// Edits already applied to this net's lineage since its last full
    /// route. Accepted for API and wire compatibility; routing does not
    /// read it.
    pub prior_edits: u32,
    /// The per-request session (deadline, identity, fault seed).
    pub session: Session,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Net {
        Net::new(vec![
            Point::new(0, 0),
            Point::new(10, 2),
            Point::new(4, 8),
            Point::new(7, 5),
        ])
        .expect("valid net")
    }

    #[test]
    fn move_pin_clamps_out_of_range_indices() {
        let d = NetDelta::new(base(), DeltaKind::MovePin { index: 99, to: Point::new(1, 1) });
        let edited = d.apply();
        assert_eq!(edited.pins()[3], Point::new(1, 1));
        assert_eq!(edited.degree(), 4);
        let d = NetDelta::new(base(), DeltaKind::MovePin { index: 0, to: Point::new(2, 2) });
        assert_eq!(d.apply().source(), Point::new(2, 2));
    }

    #[test]
    fn add_and_remove_sinks_change_degree() {
        let d = NetDelta::new(base(), DeltaKind::AddSink { at: Point::new(3, 3) });
        assert_eq!(d.apply().degree(), 5);
        let d = NetDelta::new(base(), DeltaKind::RemoveSink { index: 1 });
        let edited = d.apply();
        assert_eq!(edited.degree(), 3);
        assert_eq!(edited.pins(), &[Point::new(0, 0), Point::new(10, 2), Point::new(7, 5)]);
    }

    #[test]
    fn remove_sink_never_breaks_the_two_pin_minimum() {
        let tiny = Net::new(vec![Point::new(0, 0), Point::new(5, 5)]).expect("valid");
        let d = NetDelta::new(tiny.clone(), DeltaKind::RemoveSink { index: 0 });
        assert_eq!(d.apply(), tiny, "degree-2 removal is a no-op");
    }

    #[test]
    fn translate_shifts_every_pin() {
        let d = NetDelta::new(base(), DeltaKind::Translate { dx: 5, dy: -3 });
        let edited = d.apply();
        assert_eq!(edited.source(), Point::new(5, -3));
        assert_eq!(edited.pins()[1], Point::new(15, -1));
        assert_eq!(edited.degree(), 4);
    }

    #[test]
    fn blockage_projects_interior_pins_to_the_nearest_edge() {
        // Rect [2,8]×[2,8]; only (4,8) is on the boundary... (7,5) and
        // (4,8): (7,5) is interior (nearest edge: right, distance 1);
        // (4,8) sits on the top edge and must not move.
        let d = NetDelta::new(
            base(),
            DeltaKind::BlockageMask { min: Point::new(2, 2), max: Point::new(8, 8) },
        );
        let edited = d.apply();
        assert_eq!(edited.pins()[0], Point::new(0, 0), "outside pins untouched");
        assert_eq!(edited.pins()[2], Point::new(4, 8), "boundary pins untouched");
        assert_eq!(edited.pins()[3], Point::new(8, 5), "interior pin pushed right");
        // Swapped corners normalize to the same rectangle.
        let swapped = NetDelta::new(
            base(),
            DeltaKind::BlockageMask { min: Point::new(8, 8), max: Point::new(2, 2) },
        );
        assert_eq!(swapped.apply(), edited);
    }

    #[test]
    fn blockage_tie_break_is_deterministic() {
        // Dead center of [0,10]×[0,10]: all four edges at distance 5;
        // the fixed order picks "left".
        let centered = Net::new(vec![Point::new(5, 5), Point::new(20, 20)]).expect("valid");
        let d = NetDelta::new(
            centered,
            DeltaKind::BlockageMask { min: Point::new(0, 0), max: Point::new(10, 10) },
        );
        assert_eq!(d.apply().source(), Point::new(0, 5));
    }

    use crate::engine::{Engine, Session};
    use crate::LutBuilder;

    fn engine4() -> Engine {
        Engine::with_table(LutBuilder::new(4).threads(2).build())
    }

    /// xorshift64 — the same deterministic generator the router tests use.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_kind(seed: &mut u64, degree: usize) -> DeltaKind {
        let p = |seed: &mut u64| {
            Point::new((rng(seed) % 64) as i64, (rng(seed) % 64) as i64)
        };
        match rng(seed) % 5 {
            0 => DeltaKind::MovePin { index: (rng(seed) as usize) % degree, to: p(seed) },
            1 => DeltaKind::AddSink { at: p(seed) },
            2 => DeltaKind::RemoveSink { index: (rng(seed) as usize) % degree },
            3 => DeltaKind::Translate {
                dx: (rng(seed) % 100) as i64 - 50,
                dy: (rng(seed) % 100) as i64 - 50,
            },
            _ => {
                let a = p(seed);
                let b = p(seed);
                DeltaKind::BlockageMask { min: a, max: b }
            }
        }
    }

    /// Across every [`DeltaKind`], a reroute is exactly a route of the
    /// edited net — frontier, witness trees and provenance — whatever
    /// lineage length the caller reports.
    #[test]
    fn every_delta_kind_reroutes_like_a_fresh_route_of_the_edited_net() {
        let engine = engine4();
        let nets: Vec<Net> = patlabor_netgen::iccad_like_suite(0xec0, 60, 4)
            .into_iter()
            .filter(|n| (3..=4).contains(&n.degree()))
            .collect();
        assert!(nets.len() >= 20, "suite must supply tabulated nets");
        let mut seed = 0x05ee_dec0_u64;
        let mut seen_kinds = std::collections::HashSet::new();
        for (i, net) in nets.iter().enumerate() {
            let kind = random_kind(&mut seed, net.degree());
            seen_kinds.insert(kind.label());
            let delta = NetDelta::new(net.clone(), kind);
            let session = Session::new(i as u64);
            let fresh = engine.route_session(&delta.apply(), &session);
            for prior_edits in [0, 7, u32::MAX] {
                assert_eq!(
                    engine.reroute_with_staleness(&delta, prior_edits, &session),
                    fresh,
                    "net {i} ({}), prior_edits {prior_edits}",
                    kind.label()
                );
            }
        }
        assert_eq!(seen_kinds.len(), 5, "all delta kinds must be exercised");
    }

    /// Batch deltas: input order, bit-identical to serial reroutes —
    /// provenance included — at 1 and N threads.
    #[test]
    fn route_batch_deltas_matches_serial_at_every_thread_count() {
        let engine = engine4();
        let nets: Vec<Net> = patlabor_netgen::iccad_like_suite(0xba7c, 24, 4)
            .into_iter()
            .filter(|n| (3..=4).contains(&n.degree()))
            .collect();
        let mut seed = 0xfeed_u64;
        let jobs: Vec<DeltaJob> = nets
            .iter()
            .enumerate()
            .map(|(i, net)| DeltaJob {
                delta: NetDelta::new(net.clone(), random_kind(&mut seed, net.degree())),
                prior_edits: 0,
                session: Session::new(i as u64),
            })
            .collect();
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| engine.reroute_with_staleness(&j.delta, j.prior_edits, &j.session))
            .collect();
        for threads in [1usize, 4] {
            let (results, stats) = engine.route_batch_deltas(&jobs, threads);
            assert_eq!(results.len(), jobs.len());
            for (i, result) in results.into_iter().enumerate() {
                assert_eq!(result, serial[i], "threads = {threads}, job {i}");
            }
            assert_eq!(
                stats.per_worker.iter().map(|w| w.nets).sum::<u64>() as usize,
                jobs.len()
            );
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            DeltaKind::MovePin { index: 0, to: Point::new(0, 0) },
            DeltaKind::AddSink { at: Point::new(0, 0) },
            DeltaKind::RemoveSink { index: 0 },
            DeltaKind::Translate { dx: 0, dy: 0 },
            DeltaKind::BlockageMask { min: Point::new(0, 0), max: Point::new(1, 1) },
        ];
        let labels: std::collections::HashSet<&str> =
            kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        assert!(labels.contains("move-pin"));
        assert!(labels.contains("blockage-mask"));
    }
}
