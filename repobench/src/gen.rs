//! Seeded workload generators. The program under test receives only the
//! nets (and edits) built here; the same seed always yields the same
//! inputs, which [`digest`] makes checkable.

use patlabor::{DeltaKind, Net, Point};
use patlabor_netgen::{clustered_net, uniform_net, TABLE3_DEGREE_COUNTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest degree the mixed workload's geometric tail reaches.
pub const MAX_DEGREE: usize = 50;
/// λ of the engine under test (the default configuration's table).
pub const LAMBDA: usize = 5;

/// An independent generator stream per purpose, so adding draws to one
/// stream never shifts another.
fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The degree weights of `patlabor_netgen::sample_degree`: Table III's
/// counts for 4–9, plus one eighth of their mass spread over a
/// geometric tail (continue with probability 0.85) from 10 to
/// [`MAX_DEGREE`].
pub fn degree_weights() -> Vec<(usize, f64)> {
    let small: f64 = TABLE3_DEGREE_COUNTS.iter().map(|&(_, c)| c as f64).sum();
    let total = small * 9.0 / 8.0;
    let mut out: Vec<(usize, f64)> = TABLE3_DEGREE_COUNTS
        .iter()
        .map(|&(d, c)| (d, c as f64 / total))
        .collect();
    let tail = small / 8.0 / total;
    for d in 10..=MAX_DEGREE {
        let k = (d - 10) as i32;
        let p = if d < MAX_DEGREE {
            0.15 * 0.85f64.powi(k)
        } else {
            0.85f64.powi(k)
        };
        out.push((d, tail * p));
    }
    out
}

/// `count` degrees with exactly the quota [`degree_weights`] assigns
/// (largest-remainder rounding), in seeded random order. Fixing the
/// histogram keeps the expensive tail's size equal across seeds, so a
/// seed changes geometry, not how much work the design holds.
pub fn stratified_degrees(rng: &mut StdRng, count: usize) -> Vec<usize> {
    let weights = degree_weights();
    let mut quota: Vec<(usize, usize, f64)> = weights
        .iter()
        .map(|&(d, w)| {
            let exact = w * count as f64;
            (d, exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let assigned: usize = quota.iter().map(|q| q.1).sum();
    let mut by_remainder: Vec<usize> = (0..quota.len()).collect();
    by_remainder.sort_by(|&a, &b| quota[b].2.total_cmp(&quota[a].2).then(a.cmp(&b)));
    for &i in by_remainder.iter().take(count - assigned) {
        quota[i].1 += 1;
    }
    let mut degrees: Vec<usize> = quota
        .iter()
        .flat_map(|&(d, n, _)| std::iter::repeat_n(d, n))
        .collect();
    shuffle(rng, &mut degrees);
    degrees
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A pool of small master cells (degree 3..=λ on a 64-unit span).
fn masters(rng: &mut StdRng, count: usize) -> Vec<Net> {
    (0..count)
        .map(|_| {
            let degree = rng.gen_range(3..=LAMBDA);
            uniform_net(rng, degree, 64)
        })
        .collect()
}

/// A congruent copy of a master: random D4 orientation, then a random
/// translation (the cell-repeat trick of `patlabor_bench::mixed_workload`).
fn placed_copy(rng: &mut StdRng, master: &Net) -> Net {
    let dx = rng.gen_range(0..100_000i64);
    let dy = rng.gen_range(0..100_000i64);
    let swap = rng.gen_bool(0.5);
    let flip_x = rng.gen_bool(0.5);
    let flip_y = rng.gen_bool(0.5);
    master.map_points(|p| {
        let (mut x, mut y) = (p.x, p.y);
        if swap {
            std::mem::swap(&mut x, &mut y);
        }
        if flip_x {
            x = -x;
        }
        if flip_y {
            y = -y;
        }
        Point::new(x + dx, y + dy)
    })
}

/// The `mixed` design: ICCAD-like clustered nets with a degree tail up
/// to 50, every third net swapped for a placed copy of one of 64 masters.
pub fn mixed(seed: u64, count: usize) -> Vec<Net> {
    let mut rng = stream(seed, 1);
    let pool = masters(&mut rng, 64);
    let fresh = count - count.div_ceil(3);
    let mut degrees = stratified_degrees(&mut rng, fresh).into_iter();
    (0..count)
        .map(|i| {
            if i.is_multiple_of(3) {
                let m = rng.gen_range(0..pool.len());
                placed_copy(&mut rng, &pool[m])
            } else {
                let degree = degrees.next().expect("one quota slot per fresh net");
                clustered_net(&mut rng, degree, 10_000, 1 + degree / 12)
            }
        })
        .collect()
}

/// The `lut-only` design: degrees 3..=λ only. Two thirds fresh uniform
/// nets on a 10k span (degrees in equal shares), one third placed copies
/// of 64 masters.
pub fn lut_only(seed: u64, count: usize) -> Vec<Net> {
    LutOnlyStream::new(seed).take(count).collect()
}

/// The endless `lut-only` net sequence of one seed.
struct LutOnlyStream {
    rng: StdRng,
    pool: Vec<Net>,
    i: usize,
    fresh: usize,
}

impl LutOnlyStream {
    fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 2);
        let pool = masters(&mut rng, 64);
        LutOnlyStream {
            rng,
            pool,
            i: 0,
            fresh: 0,
        }
    }
}

impl Iterator for LutOnlyStream {
    type Item = Net;

    fn next(&mut self) -> Option<Net> {
        let i = self.i;
        self.i += 1;
        Some(if i.is_multiple_of(3) {
            let m = self.rng.gen_range(0..self.pool.len());
            placed_copy(&mut self.rng, &self.pool[m])
        } else {
            self.fresh += 1;
            let degree = 3 + self.fresh % (LAMBDA - 2);
            uniform_net(&mut self.rng, degree, 10_000)
        })
    }
}

/// The ECO round over a design: one net in ten gets one edit. The edited
/// nets are every tenth in (degree, index) order, so each degree keeps
/// its share of the edits whatever the seed. Three quarters of the edits
/// are rigid translates (the congruence class survives); every fourth
/// moves the last pin far away (the class breaks), as in the `eco`
/// bench. Returns `(slot, edit)` pairs in slot order.
pub fn eco_edits(seed: u64, design: &[Net]) -> Vec<(usize, DeltaKind)> {
    let mut rng = stream(seed, 3);
    let mut order: Vec<usize> = (0..design.len()).collect();
    order.sort_by_key(|&i| (design[i].degree(), i));
    let mut slots: Vec<usize> = order.into_iter().step_by(10).collect();
    slots.sort_unstable();
    slots
        .into_iter()
        .enumerate()
        .map(|(e, slot)| {
            let net = &design[slot];
            let kind = if e % 4 == 3 {
                let last = net.degree() - 1;
                let p = net.pins()[last];
                DeltaKind::MovePin {
                    index: last,
                    to: Point::new(
                        p.x + rng.gen_range(900..1100i64),
                        p.y + rng.gen_range(1300..1500i64),
                    ),
                }
            } else {
                DeltaKind::Translate {
                    dx: rng.gen_range(-500..=500i64),
                    dy: rng.gen_range(-500..=500i64),
                }
            };
            (slot, kind)
        })
        .collect()
}

/// Served traffic, an endless request sequence: `lut-only`-style nets,
/// with exactly one request in every [`SERVED_LS_EVERY`] a uniform net of
/// degree λ+1..=12 that takes local search. Drawn as it is sent, so the
/// run holds only the requests in flight.
pub struct ServedStream {
    base: LutOnlyStream,
    rng: StdRng,
    i: usize,
}

impl ServedStream {
    pub fn new(seed: u64) -> Self {
        ServedStream {
            base: LutOnlyStream::new(seed),
            rng: stream(seed, 4),
            i: 0,
        }
    }
}

impl Iterator for ServedStream {
    type Item = Net;

    fn next(&mut self) -> Option<Net> {
        let net = self.base.next()?;
        let i = self.i;
        self.i += 1;
        Some(if i % SERVED_LS_EVERY == SERVED_LS_EVERY / 2 {
            let degree = self.rng.gen_range(LAMBDA + 1..=12);
            uniform_net(&mut self.rng, degree, 10_000)
        } else {
            net
        })
    }
}

/// One served request in this many routes by local search.
pub const SERVED_LS_EVERY: usize = 100;

/// FNV-1a over every pin of every net: the workload digest printed with
/// each run, so two runs can be checked to have routed the same inputs.
pub fn digest<'a>(nets: impl IntoIterator<Item = &'a Net>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for net in nets {
        eat(net.degree() as i64);
        for p in net.pins() {
            eat(p.x);
            eat(p.y);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_cover_the_tail() {
        let w = degree_weights();
        let total: f64 = w.iter().map(|x| x.1).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(w.first().map(|x| x.0), Some(4));
        assert_eq!(w.last().map(|x| x.0), Some(MAX_DEGREE));
    }

    #[test]
    fn stratified_histogram_is_seed_independent() {
        let hist = |seed| {
            let mut d = stratified_degrees(&mut stream(seed, 9), 1000);
            d.sort_unstable();
            d
        };
        assert_eq!(hist(1), hist(2));
        assert_eq!(hist(1).len(), 1000);
    }

    #[test]
    fn same_seed_same_digest() {
        assert_eq!(digest(&mixed(7, 300)), digest(&mixed(7, 300)));
        assert_ne!(digest(&mixed(7, 300)), digest(&mixed(8, 300)));
        let served = |seed| ServedStream::new(seed).take(300).collect::<Vec<_>>();
        assert_eq!(digest(&served(7)), digest(&served(7)));
    }

    #[test]
    fn eco_edits_keep_each_degree_share() {
        let design = mixed(5, 3000);
        let edits = eco_edits(5, &design);
        assert_eq!(edits.len(), 300);
        for d in [4, 5, 6] {
            let all = design.iter().filter(|n| n.degree() == d).count();
            let edited = edits
                .iter()
                .filter(|(s, _)| design[*s].degree() == d)
                .count();
            assert!(
                edited.abs_diff(all / 10) <= 1,
                "degree {d}: {edited} of {all}"
            );
        }
    }

    #[test]
    fn lut_only_stays_tabulated_and_served_mixes_one_percent() {
        assert!(lut_only(3, 600)
            .iter()
            .all(|n| (3..=LAMBDA).contains(&n.degree())));
        let above = ServedStream::new(3)
            .take(1000)
            .filter(|n| n.degree() > LAMBDA)
            .count();
        assert_eq!(above, 1000 / SERVED_LS_EVERY);
    }
}
