//! Canonical congruence classes of nets — the single source of truth for
//! canonicalization.
//!
//! Two nets are *congruent* when one maps onto the other by translation,
//! scaling of individual Hanan gaps, or a dihedral symmetry of the plane.
//! Both routing objectives are invariant under translation and the `D₄`
//! symmetries (the L1 metric commutes with axis swaps and flips), and the
//! set of potentially Pareto-optimal topologies depends only on the
//! rank-space [`Pattern`], so everything the serving stack derives from a
//! net — lookup-table indices and symbolic-cost evaluation — factors
//! through one object: the net's [`NetClass`].
//!
//! A `NetClass` is computed once per net and carries exactly three facts:
//!
//! 1. the **canonical pattern key** — the D4-orbit representative of the
//!    net's rank pattern, densely encoded ([`NetClass::key`]);
//! 2. the **canonical gap vector** — the net's Hanan gap lengths mapped
//!    into canonical rank space ([`NetClass::canonical_gaps`]);
//! 3. the **inverse transform** — the map from canonical rank space back
//!    to this net's own rank grid, so topologies stored against the
//!    canonical representative can be materialized on the instance
//!    ([`NetClass::to_instance`], [`NetClass::instance_point`]).
//!
//! The invariant every consumer relies on: **two nets with equal
//! `(key, canonical_gaps)` must route identically** — same frontier, same
//! tie-breaks, same winning topology ids. The lookup table searches the
//! key and dot-products the gaps, and the symbolic DW rows are generated
//! in the same canonical space; both consumers share this one
//! canonicalization.

use crate::{HananGrid, Net, Pattern, PatternKey, Point, RankNode, Transform, ALL_TRANSFORMS};

/// The canonical congruence class of a net, plus the inverse transform
/// back into the net's own rank space.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, NetClass, Point};
///
/// # fn main() -> Result<(), patlabor_geom::InvalidNetError> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(5, 9), Point::new(9, 4)])?;
/// // The mirrored net is congruent: same class key, same canonical gaps.
/// let mirrored = net.map_points(|p| Point::new(-p.x, p.y));
/// let a = NetClass::of(&net).expect("degree 3 is classifiable");
/// let b = NetClass::of(&mirrored).expect("degree 3 is classifiable");
/// assert_eq!(a.key(), b.key());
/// assert_eq!(a.canonical_gaps(), b.canonical_gaps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetClass {
    grid: HananGrid,
    degree: u8,
    key: PatternKey,
    /// Maps canonical rank nodes back to this net's rank space.
    inverse: Transform,
    canonical_gaps: Vec<i64>,
}

impl NetClass {
    /// Largest classifiable degree: rank patterns use `u8` ranks and the
    /// dense [`PatternKey`] encoding, both capped at 16.
    pub const MAX_DEGREE: usize = 16;

    /// Canonicalizes a net, or `None` when its degree exceeds
    /// [`NetClass::MAX_DEGREE`] (such nets are served by local search,
    /// which never needs a class).
    pub fn of(net: &Net) -> Option<NetClass> {
        if net.degree() > Self::MAX_DEGREE {
            return None;
        }
        Some(Self::from_grid(HananGrid::new(net)))
    }

    /// Same as [`NetClass::of`] when the Hanan grid is already built.
    ///
    /// # Panics
    ///
    /// Panics if the grid's degree is outside `2 ..= 16` (the [`Pattern`]
    /// machinery's range; [`NetClass::of`] gates this for callers).
    pub fn from_grid(grid: HananGrid) -> NetClass {
        let (pattern, _) = Pattern::from_grid(&grid);
        // Canonicalize over the full D4 orbit, ordering candidates by
        // (pattern key, mapped gap vector). The secondary gap comparison
        // matters when the canonical pattern has a nontrivial stabilizer:
        // several transforms then reach the minimal key, and two congruent
        // nets can otherwise land on stabilizer-related (i.e. different)
        // gap mappings. Breaking the tie on the gaps themselves makes
        // `(key, canonical_gaps)` a true invariant of the congruence
        // class — every D4 image of a net classifies identically.
        //
        // Two passes: the minimal key first (allocation-free per
        // transform), then gap vectors only for the transforms attaining
        // it — with a trivial stabilizer that is one gap construction
        // instead of eight.
        let keys = ALL_TRANSFORMS.map(|t| pattern.transformed_key(t));
        let key = *keys.iter().min().expect("transform set is non-empty");
        let h0 = grid.h_gaps();
        let v0 = grid.v_gaps();
        // Map the instance gap vector into a transform's rank space: the
        // swap applies first, then the flips (T = flips ∘ swap),
        // mirroring `Transform::apply` on nodes.
        let gaps_for = |t: Transform, out: &mut Vec<i64>| {
            out.clear();
            let (h, v) = if t.swap { (&v0, &h0) } else { (&h0, &v0) };
            if t.flip_x {
                out.extend(h.iter().rev());
            } else {
                out.extend_from_slice(h);
            }
            if t.flip_y {
                out.extend(v.iter().rev());
            } else {
                out.extend_from_slice(v);
            }
        };
        let mut best: Option<(Vec<i64>, Transform)> = None;
        let mut scratch = Vec::new();
        for (t, k) in ALL_TRANSFORMS.into_iter().zip(keys) {
            if k != key {
                continue;
            }
            gaps_for(t, &mut scratch);
            match &mut best {
                Some((bg, bt)) => {
                    if scratch.as_slice() < bg.as_slice() {
                        std::mem::swap(bg, &mut scratch);
                        *bt = t;
                    }
                }
                None => best = Some((std::mem::take(&mut scratch), t)),
            }
        }
        let (canonical_gaps, transform) = best.expect("transform set is non-empty");
        NetClass {
            degree: grid.size() as u8,
            key,
            inverse: transform.inverse(),
            canonical_gaps,
            grid,
        }
    }

    /// Degree `n` of the classified net.
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// The canonical pattern key — the smallest [`PatternKey`] over the
    /// net's D4 pattern orbit (encodes degree, source position and the
    /// canonical y-permutation).
    pub fn key(&self) -> PatternKey {
        self.key
    }

    /// [`NetClass::key`] as a raw `u64` (table indices).
    pub fn canonical_key(&self) -> u64 {
        self.key.as_u64()
    }

    /// The net's Hanan-grid gap vector mapped into canonical rank space
    /// (horizontal gaps first, then vertical; `2n − 2` entries).
    ///
    /// Two congruent nets produce the same canonical key *and* the same
    /// canonical gap vector, so `(key, gaps)` identifies a net up to
    /// congruence — exactly the granularity at which query results
    /// (winning topology ids) coincide.
    pub fn canonical_gaps(&self) -> &[i64] {
        &self.canonical_gaps
    }

    /// The transform from canonical rank space back to this net's rank
    /// space.
    pub fn inverse(&self) -> Transform {
        self.inverse
    }

    /// The net's Hanan grid (built once during classification).
    pub fn grid(&self) -> &HananGrid {
        &self.grid
    }

    /// Maps a canonical-space rank node into this net's rank space.
    pub fn to_instance(&self, node: RankNode) -> RankNode {
        self.inverse.apply(node, self.degree)
    }

    /// Plane coordinates of a canonical-space rank node on this net's
    /// Hanan grid — the materialization step for stored topologies.
    ///
    /// # Panics
    ///
    /// Panics if the node's ranks are outside the pattern grid.
    pub fn instance_point(&self, node: RankNode) -> Point {
        let instance = self.to_instance(node);
        Point::new(
            self.grid.xs()[instance.col as usize],
            self.grid.ys()[instance.row as usize],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// The eight point-level images of a net under the plane D4 group
    /// (mirrors and the transpose generate all of them).
    fn d4_images(base: &Net) -> Vec<Net> {
        let mut out = Vec::with_capacity(8);
        for swap in [false, true] {
            for fx in [false, true] {
                for fy in [false, true] {
                    out.push(base.map_points(|p| {
                        let (mut x, mut y) = (p.x, p.y);
                        if swap {
                            std::mem::swap(&mut x, &mut y);
                        }
                        if fx {
                            x = -x;
                        }
                        if fy {
                            y = -y;
                        }
                        Point::new(x, y)
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn netclass_key_is_the_canonical_pattern_key() {
        let n = net(&[(9, 1), (0, 5), (4, 2)]);
        let class = NetClass::of(&n).unwrap();
        let (pattern, _) = Pattern::from_net(&n);
        assert_eq!(class.key(), pattern.canonical().0.key());
        assert_eq!(class.degree(), 3);
    }

    #[test]
    fn netclass_d4_images_share_key_and_gaps() {
        let base = net(&[(0, 0), (7, 2), (3, 9), (10, 5)]);
        let reference = NetClass::of(&base).unwrap();
        for (i, image) in d4_images(&base).iter().enumerate() {
            let class = NetClass::of(image).unwrap();
            assert_eq!(class.key(), reference.key(), "image {i}");
            assert_eq!(
                class.canonical_gaps(),
                reference.canonical_gaps(),
                "image {i}"
            );
        }
    }

    #[test]
    fn inverse_transform_maps_canonical_pins_onto_instance_pins() {
        let base = net(&[(0, 0), (7, 2), (3, 9), (10, 5)]);
        for image in d4_images(&base) {
            let class = NetClass::of(&image).unwrap();
            let (pattern, _) = Pattern::from_net(&image);
            let (canonical, _) = pattern.canonical();
            // Every canonical pin node must land on an actual pin of the
            // image net, and collectively they must cover all pins.
            let mapped: BTreeSet<Point> = canonical
                .pin_nodes()
                .into_iter()
                .map(|nd| class.instance_point(nd))
                .collect();
            let pins: BTreeSet<Point> = image.pins().iter().copied().collect();
            assert_eq!(mapped, pins);
            // The canonical source column maps back to the real source.
            assert_eq!(
                class.instance_point(canonical.source_node()),
                image.source()
            );
        }
    }

    #[test]
    fn canonical_gaps_of_identity_oriented_net_are_the_grid_gaps() {
        // A net instantiated from an already-canonical pattern classifies
        // to itself: identity inverse, raw gap vector.
        for pattern in Pattern::enumerate_canonical(4) {
            let h = [3i64, 1, 4];
            let v = [2i64, 7, 5];
            let instance = pattern.instantiate(&h, &v);
            let class = NetClass::of(&instance).unwrap();
            assert_eq!(class.key(), pattern.key());
            if class.inverse() == Transform::IDENTITY {
                let grid = HananGrid::new(&instance);
                assert_eq!(class.canonical_gaps(), grid.gap_vector().as_slice());
            }
        }
    }

    #[test]
    fn all_pattern_orbits_classify_consistently() {
        // Exhaustive over degree-4 patterns: every instantiation of every
        // orbit member produces the orbit representative's key.
        for pattern in Pattern::enumerate_all(4) {
            let instance = pattern.instantiate(&[2, 5, 1], &[3, 2, 7]);
            let class = NetClass::of(&instance).unwrap();
            assert_eq!(class.key(), pattern.canonical().0.key());
        }
    }

    #[test]
    fn degree_2_and_oversized_nets() {
        let tiny = net(&[(0, 0), (5, 3)]);
        let class = NetClass::of(&tiny).unwrap();
        assert_eq!(class.degree(), 2);
        assert_eq!(class.canonical_gaps().len(), 2);

        let big = Net::new((0..20).map(|i| Point::new(i, i * i)).collect()).unwrap();
        assert!(NetClass::of(&big).is_none());
    }

    #[test]
    fn zero_gaps_survive_classification() {
        // Tied coordinates produce zero-width gaps; the class must keep
        // them (positions matter for the dot-product evaluation).
        let n = net(&[(0, 0), (0, 4), (3, 4)]);
        let class = NetClass::of(&n).unwrap();
        assert_eq!(class.canonical_gaps().len(), 4);
        assert!(class.canonical_gaps().contains(&0));
    }
}
