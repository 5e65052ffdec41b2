//! Traced replicas of the engine's inner layers, built only from public
//! functions: the LUT query stages and the local-search loop. Each phase
//! call is wrapped in a span, so the traced run can split a net's route
//! time by layer without instrumenting the program.

use patlabor::local_search::LocalSearchConfig;
use patlabor::policy::Policy;
use patlabor::{Cost, LookupTable, Net, ParetoSet, RoutingTree};
use patlabor_baselines::rsma::cl_arborescence;
use patlabor_baselines::rsmt::rsmt_tree;
use patlabor_tree::{extract_from_union, reconnect_pass, RefineObjective};

use crate::trace::Tracer;

/// Work counted by one LUT query replica.
#[derive(Debug, Default, Clone, Copy)]
pub struct LutCounts {
    pub candidates: usize,
    pub survivors: usize,
}

/// The four query stages of [`LookupTable::query`] on a tabulated net,
/// each in its own span under a `lut.query` span. Returns the frontier
/// costs (wirelength ascending) or `None` when the net is not tabulated.
pub fn lut_query(
    table: &LookupTable,
    net: &Net,
    tr: &mut Tracer,
    req: u64,
) -> Option<(Vec<Cost>, LutCounts)> {
    let q = tr.begin("lut.query", req);
    let class = tr.time("lut.classify", req, || table.classify(net));
    let out = class.and_then(|class| {
        let ids = tr.time("lut.lookup", req, || table.candidate_ids(&class))?;
        let scored = tr.time("lut.score", req, || table.score_candidates(&class, ids));
        let trees: Vec<(Cost, RoutingTree)> = tr.time("lut.materialize", req, || {
            scored
                .iter()
                .map(|&(c, id)| (c, table.materialize(net, &class, id)))
                .collect()
        });
        let counts = LutCounts {
            candidates: ids.len(),
            survivors: trees.len(),
        };
        Some((trees.into_iter().map(|(c, _)| c).collect(), counts))
    });
    tr.end(q);
    out
}

/// Work counted by one local-search replica.
#[derive(Debug, Default, Clone, Copy)]
pub struct LsCounts {
    pub rounds: usize,
    pub candidates: usize,
    pub refine_calls: usize,
    /// Trees offered to the Pareto set (seeds, candidates, variants).
    pub offered: usize,
    pub kept: usize,
}

/// A step-for-step replica of `patlabor::local_search::local_search`,
/// with a span around each phase: `ls.seed` (RSMT and arborescence),
/// `ls.select` (policy pin selection), `ls.subroute` (LUT query of the
/// subnet), `ls.splice` (residual edges and tree extraction),
/// `ls.refine` (each `reconnect_pass`) and `ls.prune` (each Pareto
/// insert). The caller compares its frontier with the engine's.
pub fn local_search(
    net: &Net,
    table: &LookupTable,
    policy: &Policy,
    config: &LocalSearchConfig,
    tr: &mut Tracer,
    req: u64,
) -> (ParetoSet<RoutingTree>, LsCounts) {
    let root = tr.begin("ls.net", req);
    let n = net.degree();
    let lambda = table.lambda() as usize;
    let mut counts = LsCounts::default();
    let mut frontier: ParetoSet<RoutingTree> = ParetoSet::new();
    let seeds = tr.time("ls.seed", req, || {
        let mut seeds = vec![rsmt_tree(net)];
        if config.seed_arborescence {
            seeds.push(cl_arborescence(net));
        }
        seeds
    });
    for seed in seeds {
        offer(&mut frontier, seed, config.refine, tr, req, &mut counts);
    }
    let rounds = config.rounds.unwrap_or_else(|| (n / lambda).max(1));
    for _ in 0..rounds {
        let picked = tr.time("ls.select", req, || {
            let (_, worst) = frontier.min_wirelength()?;
            let worst = worst.clone();
            let selection = policy.select_pins(net, &worst, lambda - 1);
            Some((worst, selection))
        });
        let Some((worst, selection)) = picked else {
            break;
        };
        let local = tr.time("ls.subroute", req, || {
            let mut sub_pins = vec![net.source()];
            sub_pins.extend(selection.iter().map(|&pin| net.pins()[pin]));
            Net::new(sub_pins)
                .ok()
                .and_then(|subnet| table.query(&subnet))
        });
        let candidates = match local {
            Some(local) => tr.time("ls.splice", req, || splice(net, &worst, &selection, &local)),
            None => Vec::new(),
        };
        counts.rounds += 1;
        counts.candidates += candidates.len();
        for cand in candidates {
            offer(&mut frontier, cand, config.refine, tr, req, &mut counts);
        }
    }
    counts.kept = frontier.len();
    tr.end(root);
    (frontier, counts)
}

/// Offers a tree and, when refining, its four SALT-style variants (in
/// the engine's order: variants first, then the tree itself).
fn offer(
    frontier: &mut ParetoSet<RoutingTree>,
    tree: RoutingTree,
    refine: bool,
    tr: &mut Tracer,
    req: u64,
    counts: &mut LsCounts,
) {
    if refine {
        for first in [RefineObjective::Delay, RefineObjective::Wirelength] {
            let second = match first {
                RefineObjective::Delay => RefineObjective::Wirelength,
                RefineObjective::Wirelength => RefineObjective::Delay,
            };
            let a = tr.time("ls.refine", req, || reconnect_pass(&tree, first));
            let b = tr.time("ls.refine", req, || reconnect_pass(&a, second));
            counts.refine_calls += 2;
            prune(frontier, a, tr, req, counts);
            prune(frontier, b, tr, req, counts);
        }
    }
    prune(frontier, tree, tr, req, counts);
}

fn prune(
    frontier: &mut ParetoSet<RoutingTree>,
    tree: RoutingTree,
    tr: &mut Tracer,
    req: u64,
    counts: &mut LsCounts,
) {
    counts.offered += 1;
    tr.time("ls.prune", req, || {
        let (w, d) = tree.objectives();
        frontier.insert(Cost::new(w, d), tree);
    });
}

/// Splices the selected pins out of `tree` and joins each local
/// topology to the residual edges (the engine's reroute step).
fn splice(
    net: &Net,
    tree: &RoutingTree,
    selection: &[usize],
    local: &ParetoSet<RoutingTree>,
) -> Vec<RoutingTree> {
    let mut selected = vec![false; tree.num_nodes()];
    for &pin in selection {
        selected[pin] = true;
    }
    let mut rest_edges = Vec::new();
    for v in 1..tree.num_nodes() {
        if selected[v] {
            continue;
        }
        let mut a = tree.parent(v);
        while selected[a] {
            a = tree.parent(a);
        }
        rest_edges.push((tree.point(v), tree.point(a)));
    }
    local
        .iter()
        .filter_map(|(_, local_tree)| {
            let mut edges = rest_edges.clone();
            edges.extend(local_tree.edge_points());
            extract_from_union(net, &edges).ok()
        })
        .collect()
}
