//! The batch workloads, `mixed` and `lut-only`: a seeded design routed
//! by `Engine::route_batch_with_stats` at `threads = nproc`, then an ECO
//! round through `Engine::route_batch_deltas`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use patlabor::{
    Cost, DeltaJob, Engine, LookupTable, LutBuilder, Net, NetDelta, ParetoSet, RouteResult,
    RoutingTree, Session,
};
use patlabor_dw::numeric::pareto_frontier;
use patlabor_dw::DwConfig;

use crate::report::{Outcome, PER_LAYER, ROUTE_LABELS};
use crate::stats::{best_of, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{gen, layers, Args};

/// Nets in the `mixed` design.
const MIXED_NETS: usize = 12_000;
/// Nets in the `lut-only` design.
const LUT_NETS: usize = 60_000;
/// Engines built to time set-up: the run's own, and the rest after the
/// measurements (the host can be slow for the first seconds of a
/// process).
const SETUP_REPS: usize = 9;
/// Share of the run spent on batch + ECO repetitions; the rest times
/// single route calls for per-net latency.
const BATCH_SHARE: f64 = 0.6;
/// Nets of the design (a prefix; designs are in random order) each
/// caller routes per latency pass, so a run holds enough passes.
const LATENCY_SAMPLE: usize = 1500;
/// `lut-only` nets checked against the numeric DW oracle.
const DW_SAMPLE: usize = 64;
/// Every this many `mixed` nets, one is re-routed serially and compared
/// with its batch frontier.
const SERIAL_SAMPLE_STRIDE: usize = 10;

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Builds a default engine; returns it and the seconds it took.
fn setup() -> (f64, Engine) {
    let t = Instant::now();
    let engine = Engine::new();
    (t.elapsed().as_secs_f64(), engine)
}

struct Design {
    mixed: bool,
    nets: Vec<Net>,
    jobs: Vec<DeltaJob>,
}

impl Design {
    fn generate(mixed: bool, seed: u64) -> Self {
        let nets = if mixed {
            gen::mixed(seed, MIXED_NETS)
        } else {
            gen::lut_only(seed, LUT_NETS)
        };
        let jobs = gen::eco_edits(seed, &nets)
            .into_iter()
            .map(|(slot, kind)| DeltaJob {
                delta: NetDelta::new(nets[slot].clone(), kind),
                prior_edits: 0,
                session: Session::default(),
            })
            .collect();
        Design { mixed, nets, jobs }
    }

    fn notes(&self, out: &mut Outcome, seed: u64) {
        let edited: Vec<Net> = self.jobs.iter().map(|j| j.delta.apply()).collect();
        out.note(format!(
            "workload digest: {:016x} (seed {seed}, {} nets, {} edits, {} threads)",
            gen::digest(self.nets.iter().chain(&edited)),
            self.nets.len(),
            self.jobs.len(),
            threads()
        ));
        out.note(format!(
            "degree histogram: {}",
            degree_histogram(&self.nets)
        ));
    }
}

/// Degree shares in buckets 3, 4, 5, 6-9, 10-19, 20-50.
pub fn degree_histogram(nets: &[Net]) -> String {
    let buckets = [
        (3, 3),
        (4, 4),
        (5, 5),
        (6, 9),
        (10, 19),
        (20, gen::MAX_DEGREE),
    ];
    buckets
        .iter()
        .map(|&(lo, hi)| {
            let n = nets
                .iter()
                .filter(|n| (lo..=hi).contains(&n.degree()))
                .count();
            let name = if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            };
            format!("{name}:{:.1}%", 100.0 * n as f64 / nets.len() as f64)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A fresh engine in the default configuration around a copy of the
/// set-up's table, so every repetition starts from the same state.
fn fresh(table: &LookupTable) -> Engine {
    Engine::with_table(table.clone())
}

/// Mean normalized hypervolume (Fig. 7 normalizers, reference (2, 2)).
pub fn mean_hypervolume<'a>(frontiers: impl Iterator<Item = (&'a Net, Vec<Cost>)>) -> f64 {
    let hv: Vec<f64> = frontiers
        .map(|(net, costs)| {
            let (wf, dcl) = patlabor_bench::normalizers(net);
            let pts: Vec<(f64, f64)> = costs
                .iter()
                .map(|c| (c.wirelength as f64 / wf, c.delay as f64 / dcl))
                .collect();
            crate::stats::hypervolume(&pts, (2.0, 2.0))
        })
        .collect();
    if hv.is_empty() {
        f64::NAN
    } else {
        hv.iter().sum::<f64>() / hv.len() as f64
    }
}

pub fn costs(frontier: &ParetoSet<RoutingTree>) -> Vec<Cost> {
    frontier.costs().collect()
}

/// Checks one routed frontier: non-empty, every tree valid for its net,
/// every cost equal to its tree's objectives.
pub fn check_frontier(net: &Net, result: &RouteResult) -> Result<(), String> {
    let outcome = result.as_ref().map_err(|e| format!("route error: {e}"))?;
    if outcome.frontier.is_empty() {
        return Err("empty frontier".into());
    }
    for (cost, tree) in outcome.frontier.iter() {
        tree.validate(net)
            .map_err(|e| format!("invalid tree: {e}"))?;
        if (cost.wirelength, cost.delay) != tree.objectives() {
            return Err(format!("cost {cost:?} differs from the tree's objectives"));
        }
    }
    Ok(())
}

/// Per-net serial route calls: `(label, seconds)` per net.
fn serial_pass(engine: &Engine, nets: &[Net]) -> Vec<(&'static str, f64)> {
    nets.iter()
        .map(|net| {
            let t = Instant::now();
            let result = engine.route(net);
            let dt = t.elapsed().as_secs_f64();
            (result.map_or("error", |o| o.provenance.source.label()), dt)
        })
        .collect()
}

/// `threads` callers each route the whole design, one call at a time,
/// on an engine of their own; returns every call's `(label, seconds)`.
/// Running one caller per core keeps the sample from resting on a single
/// core's speed.
fn concurrent_passes(
    table: &LookupTable,
    nets: &[Net],
    threads: usize,
) -> Vec<(&'static str, f64)> {
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| serial_pass(&fresh(table), nets)))
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("route caller panicked"))
            .collect()
    })
}

/// p50, p90 and the tail percentile rule's pick of one pass.
fn pass_percentiles(pass: &[(&'static str, f64)]) -> [f64; 3] {
    let mut us: Vec<f64> = pass.iter().map(|p| p.1 * 1e6).collect();
    us.sort_by(f64::total_cmp);
    let tail = tail_percentile(us.len()).unwrap_or(50.0);
    [
        percentile(&us, 50.0),
        percentile(&us, 90.0),
        percentile(&us, tail),
    ]
}

/// Share of nets and of route time per provenance label.
fn label_shares(pass: &[(&'static str, f64)]) -> String {
    let mut by: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for &(label, t) in pass {
        let e = by.entry(label).or_default();
        e.0 += 1;
        e.1 += t;
    }
    let total: f64 = pass.iter().map(|p| p.1).sum();
    by.iter()
        .map(|(label, (n, t))| {
            format!(
                "{label}: {:.1}% of nets, {:.1}% of time",
                100.0 * *n as f64 / pass.len() as f64,
                100.0 * t / total
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn reused_share(results: &[RouteResult]) -> f64 {
    let reused = results
        .iter()
        .filter(|r| {
            r.as_ref()
                .is_ok_and(|o| o.provenance.source.label() == "reused")
        })
        .count();
    reused as f64 / results.len().max(1) as f64
}

/// The output checks, off the timed path. Every failure is counted.
fn check_outputs(
    design: &Design,
    table: &LookupTable,
    results: &[RouteResult],
    eco: &[RouteResult],
    out: &mut Outcome,
) {
    for (i, (net, result)) in design.nets.iter().zip(results).enumerate() {
        if let Err(e) = check_frontier(net, result) {
            out.fail(format!("net {i}: {e}"));
        }
    }
    let checker = fresh(table);
    for (i, (job, result)) in design.jobs.iter().zip(eco).enumerate() {
        let edited = job.delta.apply();
        if let Err(e) = check_frontier(&edited, result) {
            out.fail(format!("edit {i}: {e}"));
            continue;
        }
        let fresh_route = checker.route(&edited);
        if result.as_ref().ok().map(|o| &o.frontier)
            != fresh_route.as_ref().ok().map(|o| &o.frontier)
        {
            out.fail(format!("edit {i}: ECO frontier differs from a fresh route"));
        }
    }
    if design.mixed {
        // Frontiers only: provenance depends on the steal schedule.
        let serial = fresh(table);
        for i in (0..design.nets.len()).step_by(SERIAL_SAMPLE_STRIDE) {
            let alone = serial.route(&design.nets[i]);
            if alone.as_ref().ok().map(|o| &o.frontier)
                != results[i].as_ref().ok().map(|o| &o.frontier)
            {
                out.fail(format!(
                    "net {i}: batch frontier differs from the serial route"
                ));
            }
        }
    } else {
        let stride = design.nets.len() / DW_SAMPLE;
        for i in (0..design.nets.len()).step_by(stride).take(DW_SAMPLE) {
            let oracle: Vec<Cost> = pareto_frontier(&design.nets[i], &DwConfig::default())
                .costs()
                .collect();
            let routed = results[i]
                .as_ref()
                .map(|o| costs(&o.frontier))
                .unwrap_or_default();
            if routed != oracle {
                out.fail(format!(
                    "net {i}: frontier differs from the numeric DW oracle"
                ));
            }
        }
    }
}

fn hypervolume_of(design: &Design, results: &[RouteResult]) -> f64 {
    // mixed: the nets above λ, which local search answers; lut-only has
    // none, so there every net counts (its frontiers are exact).
    mean_hypervolume(design.nets.iter().zip(results).filter_map(|(net, r)| {
        let keep = !design.mixed || net.degree() > gen::LAMBDA;
        keep.then(|| {
            (
                net,
                r.as_ref().map(|o| costs(&o.frontier)).unwrap_or_default(),
            )
        })
    }))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    let (first_setup, engine) = setup();
    let table = (*engine.table()).clone();
    drop(engine);
    let design = Design::generate(mixed, args.seed);
    design.notes(&mut out, args.seed);
    let threads = threads();
    let start = Instant::now();
    let batch_budget = Duration::from_secs_f64(args.seconds * BATCH_SHARE);
    let (mut nets_per_s, mut eco_per_s) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<RouteResult>, Vec<RouteResult>)> = None;
    while first.is_none() || start.elapsed() < batch_budget {
        let e = fresh(&table);
        let t = Instant::now();
        let (results, _) = e.route_batch_with_stats(&design.nets, threads);
        nets_per_s.push(design.nets.len() as f64 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (eco, _) = e.route_batch_deltas(&design.jobs, threads);
        eco_per_s.push(design.jobs.len() as f64 / t.elapsed().as_secs_f64());
        if first.is_none() {
            first = Some((results, eco));
        }
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut p50, mut p90, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_pass = None;
    while first_pass.is_none() || start.elapsed() < budget {
        let sample = &design.nets[..design.nets.len().min(LATENCY_SAMPLE)];
        let pass = concurrent_passes(&table, sample, threads);
        let [a, b, c] = pass_percentiles(&pass);
        p50.push(a);
        p90.push(b);
        tail.push(c);
        first_pass.get_or_insert(pass);
    }
    let (results, eco) = first.expect("at least one repetition");
    let pass = first_pass.expect("at least one pass");
    // The first caller's calls, in design order.
    let pass = &pass[..design.nets.len().min(LATENCY_SAMPLE)];
    out.note(format!(
        "repetitions: {} batch+ECO, {} passes of {} route calls ({threads} callers); per-call p{} {:.1} us (best pass)",
        nets_per_s.len(),
        p50.len(),
        pass.len(),
        tail_percentile(pass.len()).unwrap_or(50.0),
        best_of(&tail, false)
    ));
    out.note(crate::stats::spread_note(
        "nets/s over repetitions",
        &nets_per_s,
    ));
    out.note(crate::stats::spread_note(
        "ECO edits/s over repetitions",
        &eco_per_s,
    ));
    out.note(format!(
        "provenance shares (one caller): {}",
        label_shares(pass)
    ));
    let tabulated = design.nets[..pass.len()]
        .iter()
        .filter(|n| n.degree() <= gen::LAMBDA)
        .count();
    let hits = pass.iter().filter(|p| p.0 == "cache-hit").count();
    out.note(format!(
        "cache-hit share of tabulated nets: {:.3}",
        hits as f64 / tabulated.max(1) as f64
    ));
    out.note(format!("ECO replay share: {:.3}", reused_share(&eco)));
    let mut setups = vec![first_setup];
    setups.extend((1..SETUP_REPS).map(|_| setup().0));
    out.set("setup_s", best_of(&setups, false));
    out.set("nets_per_s", best_of(&nets_per_s, true));
    out.set("eco_edits_per_s", best_of(&eco_per_s, true));
    out.set("p50_us", best_of(&p50, false));
    out.set("p90_us", best_of(&p90, false));
    out.set("hypervolume", hypervolume_of(&design, &results));
    out.attempted = (design.nets.len() + design.jobs.len()) as u64;
    check_outputs(&design, &table, &results, &eco, &mut out);
    out
}

fn route_span_name(label: &str) -> &'static str {
    match label {
        "closed-form" => "route.closed-form",
        "exact-lut" => "route.exact-lut",
        "cache-hit" => "route.cache-hit",
        "local-search" => "route.local-search",
        "reused" => "route.reused",
        _ => "route.other",
    }
}

/// One traced, serial route call per net under a `pass` root span: each
/// call's span is named after its provenance label. Returns the results.
pub fn traced_route_pass(
    engine: &Engine,
    nets: &[Net],
    tr: &mut Tracer,
    pass: &'static str,
) -> Vec<RouteResult> {
    let root = tr.begin(pass, 0);
    let results = nets
        .iter()
        .enumerate()
        .map(|(i, net)| {
            let id = tr.begin("route", i as u64);
            let result = engine.route(net);
            tr.end(id);
            tr.rename(
                id,
                route_span_name(
                    result
                        .as_ref()
                        .map_or("error", |o| o.provenance.source.label()),
                ),
            );
            result
        })
        .collect();
    tr.end(root);
    results
}

/// Children of the last root span named `root`, as `(name, ns)` pairs.
pub fn children_of_last(tr: &Tracer, root: &str) -> Vec<(&'static str, u64)> {
    let spans = tr.spans();
    let Some(r) = spans
        .iter()
        .rposition(|s| s.name == root && s.parent == u32::MAX)
    else {
        return Vec::new();
    };
    spans
        .iter()
        .filter(|s| s.parent as usize == r)
        .map(|s| (s.name, s.duration_ns()))
        .collect()
}

/// `route.<label>.share/p50_us/p99_us` from a traced route pass. Labels
/// in `only` are written; the rest are left alone.
pub fn route_metrics(tr: &Tracer, root: &str, only: &[&str], out: &mut Outcome) {
    let calls = children_of_last(tr, root);
    let total: u64 = calls.iter().map(|c| c.1).sum();
    for label in ROUTE_LABELS.iter().filter(|l| only.contains(l)) {
        let name = route_span_name(label);
        let mut us: Vec<f64> = calls
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.1 as f64 / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        let share = if us.is_empty() {
            0.0
        } else {
            us.iter().sum::<f64>() * 1e3 / total.max(1) as f64
        };
        let (p50, p99) = if us.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&us, 50.0), percentile(&us, 99.0))
        };
        out.set(metric_name(&format!("route.{label}.share")), share);
        out.set(metric_name(&format!("route.{label}.p50_us")), p50);
        out.set(metric_name(&format!("route.{label}.p99_us")), p99);
        out.note(format!("route.{label}: {} samples", us.len()));
    }
}

/// The per-layer metric called `name`.
fn metric_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| *m == name)
        .expect("route metrics are listed in PER_LAYER")
}

/// LUT stage metrics over the tabulated nets. A replica whose costs
/// differ from the engine's is reported, not failed: it voids the split,
/// not the run.
pub fn lut_layer(
    table: &LookupTable,
    nets: &[Net],
    results: &[RouteResult],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let root = tr.begin("lut.pass", 0);
    let (mut n, mut cands, mut survivors, mut mismatch) = (0usize, 0usize, 0usize, 0usize);
    for (i, (net, result)) in nets.iter().zip(results).enumerate() {
        if !(3..=gen::LAMBDA).contains(&net.degree()) {
            continue;
        }
        let Some((got, counts)) = layers::lut_query(table, net, tr, i as u64) else {
            mismatch += 1;
            continue;
        };
        n += 1;
        cands += counts.candidates;
        survivors += counts.survivors;
        if result.as_ref().map(|o| costs(&o.frontier)).ok() != Some(got) {
            mismatch += 1;
        }
    }
    tr.end(root);
    let self_ns = stage_totals(tr, "lut.pass");
    let per = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / n.max(1) as f64;
    out.set("lut.classify_ns", per("lut.classify"));
    out.set("lut.lookup_ns", per("lut.lookup"));
    out.set("lut.score_ns", per("lut.score"));
    out.set("lut.materialize_ns", per("lut.materialize"));
    out.set("lut.candidates_per_net", cands as f64 / n.max(1) as f64);
    out.set("lut.survivors_per_net", survivors as f64 / n.max(1) as f64);
    out.set("lut.survivor_ratio", survivors as f64 / cands.max(1) as f64);
    out.note(format!(
        "lut layer: {n} tabulated nets replayed, {mismatch} cost mismatches"
    ));
}

/// Total self time by span name over the descendants of the last root
/// span named `root`.
fn stage_totals(tr: &Tracer, root: &str) -> BTreeMap<&'static str, u64> {
    let spans = tr.spans();
    let mut totals = BTreeMap::new();
    let Some(r) = spans
        .iter()
        .rposition(|s| s.name == root && s.parent == u32::MAX)
    else {
        return totals;
    };
    let self_times = tr.self_times();
    // Spans are appended in begin order, so descendants of `r` follow it
    // and every ancestor precedes its descendants.
    let mut inside = vec![false; spans.len()];
    inside[r] = true;
    for i in r + 1..spans.len() {
        let p = spans[i].parent;
        if p != u32::MAX && inside[p as usize] {
            inside[i] = true;
            *totals.entry(spans[i].name).or_insert(0) += self_times[i];
        }
    }
    totals
}

/// Local-search phase metrics over the nets above λ, replayed from
/// public phase functions and checked against the engine's frontiers.
pub fn ls_layer(
    engine: &Engine,
    nets: &[Net],
    results: &[RouteResult],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let table = engine.table();
    let config = engine.config().local_search;
    let root = tr.begin("ls.pass", 0);
    let mut totals = layers::LsCounts::default();
    let (mut n, mut mismatch) = (0usize, 0usize);
    for (i, (net, result)) in nets.iter().zip(results).enumerate() {
        if net.degree() <= gen::LAMBDA {
            continue;
        }
        let (frontier, c) =
            layers::local_search(net, &table, engine.policy(), &config, tr, i as u64);
        n += 1;
        totals.rounds += c.rounds;
        totals.candidates += c.candidates;
        totals.refine_calls += c.refine_calls;
        totals.offered += c.offered;
        totals.kept += c.kept;
        if result.as_ref().ok().map(|o| &o.frontier) != Some(&frontier) {
            mismatch += 1;
        }
    }
    tr.end(root);
    let self_ns = stage_totals(tr, "ls.pass");
    let per_us =
        |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / n.max(1) as f64;
    let per = |x: usize| x as f64 / n.max(1) as f64;
    out.set("ls.seed_us", per_us("ls.seed"));
    out.set("ls.select_us", per_us("ls.select"));
    out.set("ls.subroute_us", per_us("ls.subroute"));
    out.set("ls.splice_us", per_us("ls.splice"));
    out.set("ls.refine_us", per_us("ls.refine"));
    out.set("ls.prune_us", per_us("ls.prune"));
    out.set("ls.rounds_per_net", per(totals.rounds));
    out.set("ls.candidates_per_net", per(totals.candidates));
    out.set("ls.refine_calls_per_net", per(totals.refine_calls));
    out.set(
        "ls.kept_ratio",
        totals.kept as f64 / totals.offered.max(1) as f64,
    );
    out.set("ls.replica_mismatch", mismatch as f64);
    out.note(format!(
        "local-search layer: {n} nets replayed, {mismatch} frontier mismatches"
    ));
}

/// Ladder metrics from provenance traces.
pub fn ladder_metrics(results: &[RouteResult], out: &mut Outcome) {
    let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let degraded = ok.iter().filter(|o| o.provenance.trace.degraded()).count();
    let attempts: usize = ok.iter().map(|o| o.provenance.trace.attempts().len()).sum();
    out.set("ladder.degraded", degraded as f64);
    out.set(
        "ladder.attempts_per_net",
        attempts as f64 / ok.len().max(1) as f64,
    );
}

/// Times `LutBuilder::new(λ).build()` and the engine assembly under a
/// `setup` root span; returns the best build seconds and the table.
pub fn traced_setup(tr: &mut Tracer) -> (f64, LookupTable) {
    let mut builds = Vec::new();
    let mut table = None;
    for _ in 0..3 {
        let root = tr.begin("setup", 0);
        let t = Instant::now();
        let built = tr.time("lut.build", 0, || {
            LutBuilder::new(gen::LAMBDA as u8).build()
        });
        builds.push(t.elapsed().as_secs_f64());
        let engine = tr.time("engine.assemble", 0, || Engine::with_table(built.clone()));
        drop(engine);
        tr.end(root);
        table = Some(built);
    }
    (best_of(&builds, false), table.expect("three builds"))
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args, mixed: bool) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(Instant::now());
    let (build_s, table) = traced_setup(&mut tr);
    out.set("setup.lut_build_s", build_s);
    let design = Design::generate(mixed, args.seed);
    design.notes(&mut out, args.seed);
    let threads = threads();
    let start = Instant::now();
    let reps_budget = Duration::from_secs_f64(args.seconds * 0.4);

    // Batch + ECO repetitions. Tracing adds one span around each call,
    // and the serial passes below measure the per-call overhead.
    let (mut stats, mut replay) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut traced_batch = Vec::new();
    while first.is_none() || start.elapsed() < reps_budget {
        let e = fresh(&table);
        let b = tr.begin("batch", 0);
        let t = Instant::now();
        let (results, st) = e.route_batch_with_stats(&design.nets, threads);
        traced_batch.push(design.nets.len() as f64 / t.elapsed().as_secs_f64());
        tr.end(b);
        let b = tr.begin("eco.batch", 0);
        let (eco, _) = e.route_batch_deltas(&design.jobs, threads);
        tr.end(b);
        replay.push(reused_share(&eco));
        stats.push(st);
        first.get_or_insert(results);
    }
    let results = first.expect("one repetition");
    let med =
        |f: &dyn Fn(&patlabor::BatchStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    out.set("batch.utilization", med(&|s| s.utilization()));
    out.set(
        "batch.min_worker_utilization",
        med(&|s| s.min_worker_utilization()),
    );
    out.set("batch.steals", med(&|s| s.total_steals() as f64));
    out.set(
        "batch.failed_steals",
        med(&|s| s.total_failed_steals() as f64),
    );
    out.set("eco.replayed_share", median(&replay));
    out.note(format!(
        "traced batch: {:.1} nets/s (compare nets_per_s of the untraced run)",
        best_of(&traced_batch, true)
    ));

    // Route boundary: untraced and traced serial passes, alternated.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let pass_budget = Duration::from_secs_f64(args.seconds * 0.7);
    let mut route_results = None;
    while route_results.is_none() || start.elapsed() < pass_budget {
        let e = fresh(&table);
        let t = Instant::now();
        for net in &design.nets {
            let _ = std::hint::black_box(e.route(net));
        }
        plain.push(design.nets.len() as f64 / t.elapsed().as_secs_f64());
        let e = fresh(&table);
        let t = Instant::now();
        let r = traced_route_pass(&e, &design.nets, &mut tr, "route.pass");
        traced.push(design.nets.len() as f64 / t.elapsed().as_secs_f64());
        route_results = Some(r);
    }
    let (untraced_nps, traced_nps) = (best_of(&plain, true), best_of(&traced, true));
    out.set("trace.overhead", 1.0 - traced_nps / untraced_nps);
    out.note(format!(
        "tracing overhead: serial route calls {untraced_nps:.1} nets/s untraced vs {traced_nps:.1} traced"
    ));
    let route_results = route_results.expect("one traced pass");
    route_metrics(
        &tr,
        "route.pass",
        &["closed-form", "exact-lut", "cache-hit", "local-search"],
        &mut out,
    );
    let tabulated = design
        .nets
        .iter()
        .filter(|n| n.degree() <= gen::LAMBDA)
        .count();
    let hits = route_results
        .iter()
        .filter(|r| {
            r.as_ref()
                .is_ok_and(|o| o.provenance.source.label() == "cache-hit")
        })
        .count();
    out.set("cache.hit_share", hits as f64 / tabulated.max(1) as f64);
    ladder_metrics(&route_results, &mut out);

    // ECO: serial traced reroutes against a warm engine.
    let e = fresh(&table);
    let _ = e.route_batch(&design.nets, threads);
    let root = tr.begin("eco.pass", 0);
    for (i, job) in design.jobs.iter().enumerate() {
        let id = tr.begin("route", i as u64);
        let r = e.reroute_with_staleness(&job.delta, job.prior_edits, &job.session);
        tr.end(id);
        tr.rename(
            id,
            route_span_name(r.as_ref().map_or("error", |o| o.provenance.source.label())),
        );
    }
    tr.end(root);
    route_metrics(&tr, "eco.pass", &["reused"], &mut out);

    // Inner layers.
    let engine = fresh(&table);
    lut_layer(&table, &design.nets, &route_results, &mut tr, &mut out);
    ls_layer(&engine, &design.nets, &route_results, &mut tr, &mut out);
    out.attempted = design.nets.len() as u64;
    for (i, (net, r)) in design.nets.iter().zip(&results).enumerate() {
        if let Err(e) = check_frontier(net, r) {
            out.fail(format!("net {i}: {e}"));
        }
    }
    (out, tr)
}
