//! Graph construction: offline chaining of correlated rules, and online
//! real-time construction from deployed rules + event logs (§3.2.2). Every
//! full interaction graph, batch, windowed or per home, goes through
//! [`assemble`].

use crate::graph::{EdgeKind, GraphLabel, InteractionGraph, Node};
use glint_rules::correlation::{action_triggers, shares_device, PairCorrelation, TokenIndex};
use glint_rules::event::{EventKind, EventLog};
use glint_rules::{Action, Rule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Offline builder: samples interaction graphs of 2–50 nodes by chaining
/// rules along ground-truth "action-trigger" correlations, then densifies
/// edges among the selected rules. Node features come from the supplied
/// feature function (rendered-text embeddings in the full pipeline).
pub struct GraphBuilder<'a> {
    rules: &'a [Rule],
    rng: StdRng,
    /// rule array index → indices of rules whose trigger it can invoke.
    successors: Vec<Vec<usize>>,
    /// rule array index → indices of rules that can invoke it.
    predecessors: Vec<Vec<usize>>,
    /// rule array index → rules actuating a shared device (symmetric).
    shared_device: Vec<Vec<usize>>,
}

impl<'a> GraphBuilder<'a> {
    /// Precompute the correlation index over the corpus. Candidate pairs
    /// come from the token neighborhood, so only rules sharing a device or
    /// channel token are ever tested.
    pub fn new(rules: &'a [Rule], seed: u64) -> Self {
        let mut tokens = TokenIndex::default();
        for (i, r) in rules.iter().enumerate() {
            tokens.add_rule(i, r);
        }
        let mut successors = vec![Vec::new(); rules.len()];
        let mut predecessors = vec![Vec::new(); rules.len()];
        let mut shared_device = vec![Vec::new(); rules.len()];
        // i and each neighborhood ascend, so every list comes out sorted and
        // duplicate-free
        for (i, a) in rules.iter().enumerate() {
            for j in tokens.neighborhood(i, a) {
                let b = &rules[j];
                if action_triggers(a, b).is_some() {
                    successors[i].push(j);
                    predecessors[j].push(i);
                }
                if shares_device(a, b) {
                    shared_device[i].push(j);
                }
            }
        }
        Self {
            rules,
            rng: StdRng::seed_from_u64(seed),
            successors,
            predecessors,
            shared_device,
        }
    }

    /// Total correlated pairs in the index.
    pub fn n_correlations(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// Sample one interaction graph with `n_nodes ∈ [min_nodes, max_nodes]`.
    /// Features are produced by `feature_fn` (text embedding upstream).
    pub fn sample_graph(
        &mut self,
        min_nodes: usize,
        max_nodes: usize,
        feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
    ) -> InteractionGraph {
        assert!(min_nodes >= 2 && max_nodes >= min_nodes);
        // skew sizes small (min of two uniforms): most deployed interaction
        // graphs involve a handful of rules, large ones are the tail
        let a = self.rng.gen_range(min_nodes..=max_nodes);
        let b = self.rng.gen_range(min_nodes..=max_nodes);
        let target = a.min(b);
        let mut selected: Vec<usize> = Vec::with_capacity(target);
        let mut in_graph: BTreeSet<usize> = BTreeSet::new();
        let start = self.rng.gen_range(0..self.rules.len());
        selected.push(start);
        in_graph.insert(start);
        let mut stall = 0;
        while selected.len() < target && stall < 20 {
            // the paper concatenates independently sampled chains; mixing in
            // fresh random rules keeps graph density realistic
            if self.rng.gen_bool(0.35) {
                let fresh = self.rng.gen_range(0..self.rules.len());
                if in_graph.insert(fresh) {
                    selected.push(fresh);
                } else {
                    stall += 1;
                }
                continue;
            }
            let &anchor = selected.choose(&mut self.rng).expect("selected nonempty");
            let mut pool: Vec<usize> = self.successors[anchor]
                .iter()
                .chain(self.predecessors[anchor].iter())
                .copied()
                .filter(|j| !in_graph.contains(j))
                .collect();
            if pool.is_empty() {
                // chain exhausted: concatenate a fresh random rule (the
                // paper concatenates independently-sampled chains)
                let fresh = self.rng.gen_range(0..self.rules.len());
                if in_graph.insert(fresh) {
                    selected.push(fresh);
                } else {
                    stall += 1;
                }
                continue;
            }
            pool.sort_unstable();
            let &next = pool.choose(&mut self.rng).expect("pool nonempty");
            in_graph.insert(next);
            selected.push(next);
            stall = 0;
        }
        self.graph_from_indices(&selected, feature_fn)
    }

    /// Build the complete interaction graph over an explicit set of rules
    /// (online stage step 1, and test fixtures like Table 1).
    pub fn graph_from_indices(
        &self,
        indices: &[usize],
        feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
    ) -> InteractionGraph {
        let nodes: Vec<Node> = indices
            .iter()
            .map(|&i| {
                let r = &self.rules[i];
                Node {
                    rule_id: r.id,
                    platform: r.platform,
                    features: feature_fn(r),
                }
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for (gi, &i) in indices.iter().enumerate() {
            for (gj, &j) in indices.iter().enumerate() {
                if i == j {
                    continue;
                }
                if self.successors[i].binary_search(&j).is_ok() {
                    g.add_edge(gi, gj, EdgeKind::ActionTrigger);
                }
                if self.shared_device[i].binary_search(&j).is_ok() {
                    g.add_edge(gi, gj, EdgeKind::SharedDevice);
                }
            }
        }
        g
    }

    pub fn rules(&self) -> &[Rule] {
        self.rules
    }
}

/// One node per rule, in rule order, with `feature_fn`'s features.
pub fn rule_nodes(rules: &[Rule], feature_fn: &dyn Fn(&Rule) -> Vec<f32>) -> Vec<Node> {
    rules
        .iter()
        .map(|r| Node {
            rule_id: r.id,
            platform: r.platform,
            features: feature_fn(r),
        })
        .collect()
}

/// Algorithm 1 over every ordered pair of `rules`: `pairs[i][j]` is the
/// record of `(rules[i], rules[j])`, and the diagonal stays empty.
fn mine_pairs(rules: &[Rule]) -> Vec<Vec<PairCorrelation>> {
    let enumerated = || rules.iter().enumerate();
    enumerated()
        .map(|(i, a)| {
            enumerated()
                .map(|(j, b)| {
                    if i == j {
                        PairCorrelation::default()
                    } else {
                        PairCorrelation::mine(a, b)
                    }
                })
                .collect()
        })
        .collect()
}

/// Assemble an interaction graph (Algorithm 1, §3.2.2): `nodes` in order,
/// then every ActionTrigger edge, every SharedDevice edge, and every
/// ActionCondition edge (one per faked condition). Each pass runs over the
/// ordered pairs `i ≠ j`, i-major. `pair(i, j)` is the mined record of nodes
/// `i` and `j`, `None` when they are not correlated.
pub fn assemble<'p>(
    nodes: Vec<Node>,
    pair: impl Fn(usize, usize) -> Option<&'p PairCorrelation>,
) -> InteractionGraph {
    let n = nodes.len();
    let mut g = InteractionGraph::new(nodes);
    let passes = [
        EdgeKind::ActionTrigger,
        EdgeKind::SharedDevice,
        EdgeKind::ActionCondition,
    ];
    for kind in passes {
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                for _ in 0..pair(i, j).map_or(0, |p| edges_of(p, kind)) {
                    g.add_edge(i, j, kind);
                }
            }
        }
    }
    g
}

/// How many `kind` edges a mined pair contributes.
fn edges_of(pair: &PairCorrelation, kind: EdgeKind) -> u32 {
    match kind {
        EdgeKind::ActionTrigger => u32::from(pair.action_trigger.is_some()),
        EdgeKind::SharedDevice => u32::from(pair.shared_device),
        EdgeKind::ActionCondition => pair.action_condition,
    }
}

/// Build the complete correlation graph over a deployed rule set without the
/// sampling machinery (convenience for small rule sets).
pub fn full_graph(rules: &[Rule], feature_fn: &dyn Fn(&Rule) -> Vec<f32>) -> InteractionGraph {
    let nodes = rule_nodes(rules, feature_fn);
    let pairs = mine_pairs(rules);
    assemble(nodes, |i, j| pairs.get(i)?.get(j))
}

/// The online builder's pruning interval: maximum seconds between cause
/// and effect (paper example: 3 h).
pub const MAX_GAP: f64 = 3.0 * 3600.0;

/// Online builder: fuse the deployed-rule graph with runtime event logs to
/// produce the unique real-time interaction graph (§3.2.2). Rules that did
/// not execute inside the window are dropped; edges violating chronology or
/// exceeding the pruning interval [`MAX_GAP`] are removed.
#[derive(Default)]
pub struct OnlineBuilder;

impl OnlineBuilder {
    /// Execution timestamps of each rule inferred from the log: explicit
    /// `RuleFired` records, or device-state records matching a rule's action.
    pub fn execution_times(rules: &[Rule], log: &EventLog) -> Vec<Vec<f64>> {
        let mut times = vec![Vec::new(); rules.len()];
        for rec in log.records() {
            match &rec.kind {
                EventKind::RuleFired { rule_id } => {
                    if let Some(i) = rules.iter().position(|r| r.id.0 == *rule_id) {
                        times[i].push(rec.timestamp);
                    }
                }
                EventKind::DeviceState {
                    device,
                    location,
                    state,
                } => {
                    for (i, r) in rules.iter().enumerate() {
                        let hit = r.actions.iter().any(|a| match a {
                            Action::SetState {
                                device: d,
                                location: l,
                                state: s,
                                ..
                            } => d == device && l.couples_with(*location) && s == state,
                            _ => false,
                        });
                        if hit {
                            times[i].push(rec.timestamp);
                        }
                    }
                }
                _ => {}
            }
        }
        times
    }

    /// Construct the real-time graph for the window `[from, to]`.
    pub fn build(
        &self,
        rules: &[Rule],
        log: &EventLog,
        from: f64,
        to: f64,
        feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
    ) -> InteractionGraph {
        // executed rules inside the window, with their execution times
        let (active, times): (Vec<Rule>, Vec<Vec<f64>>) = rules
            .iter()
            .zip(Self::execution_times(rules, log))
            .filter(|(_, ts)| ts.iter().any(|&t| t >= from && t <= to))
            .map(|(r, ts)| (r.clone(), ts))
            .unzip();
        let nodes = rule_nodes(&active, feature_fn);
        let mut pairs = mine_pairs(&active);
        // temporal pruning: cause must precede effect within MAX_GAP
        let chronological = |tu: &[f64], tv: &[f64]| {
            tu.iter().any(|&a| {
                tv.iter()
                    .any(|&b| b > a && b - a <= MAX_GAP && a >= from && b <= to)
            })
        };
        for (tu, row) in times.iter().zip(&mut pairs) {
            for (tv, pair) in times.iter().zip(row) {
                if !pair.is_empty() && !chronological(tu, tv) {
                    *pair = PairCorrelation::default();
                }
            }
        }
        assemble(nodes, |i, j| pairs.get(i)?.get(j))
    }
}

/// Convenience label helper used by dataset fixtures.
pub fn labeled(mut g: InteractionGraph, label: GraphLabel) -> InteractionGraph {
    g.label = Some(label);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_rules::event::EventRecord;
    use glint_rules::scenarios::table1_rules;
    use glint_rules::{Attribute, DeviceKind, Location};

    fn feat(_r: &Rule) -> Vec<f32> {
        vec![1.0, 2.0]
    }

    #[test]
    fn index_matches_bruteforce_on_table1() {
        let rules = table1_rules();
        let builder = GraphBuilder::new(&rules, 7);
        for (i, a) in rules.iter().enumerate() {
            for (j, b) in rules.iter().enumerate() {
                if i == j {
                    continue;
                }
                let indexed = builder.successors[i].binary_search(&j).is_ok();
                let brute = action_triggers(a, b).is_some();
                assert_eq!(indexed, brute, "mismatch for {}→{}", a.id.0, b.id.0);
                let shared = builder.shared_device[i].binary_search(&j).is_ok();
                assert_eq!(shared, shares_device(a, b), "{}~{}", a.id.0, b.id.0);
            }
        }
    }

    #[test]
    fn sampled_graph_sizes_in_range() {
        let rules = table1_rules();
        let mut builder = GraphBuilder::new(&rules, 3);
        for _ in 0..20 {
            let g = builder.sample_graph(2, 6, &feat);
            assert!(g.n_nodes() >= 2 && g.n_nodes() <= 6, "size {}", g.n_nodes());
        }
    }

    #[test]
    fn full_graph_reproduces_figure1_core_edges() {
        let rules = table1_rules();
        let g = full_graph(&rules, &feat);
        let idx = |id: u32| rules.iter().position(|r| r.id.0 == id).unwrap();
        let has = |a: u32, b: u32| {
            g.edges()
                .iter()
                .any(|&(u, v, _)| u == idx(a) && v == idx(b))
        };
        assert!(has(1, 9), "lights-off → lock-door edge");
        assert!(has(4, 5), "AC-on → close-windows edge");
        assert!(!has(9, 1), "no reverse edge");
    }

    #[test]
    fn online_builder_prunes_by_chronology() {
        let rules = table1_rules();
        let mut log = EventLog::new();
        // rule 1 fires at t=100 (lights off), rule 9 fires at t=160 (locked)
        log.push(EventRecord::new(100.0, EventKind::RuleFired { rule_id: 1 }));
        log.push(EventRecord::new(160.0, EventKind::RuleFired { rule_id: 9 }));
        let ob = OnlineBuilder;
        let g = ob.build(&rules, &log, 0.0, 1000.0, &feat);
        assert_eq!(g.n_nodes(), 2, "only executed rules stay");
        assert_eq!(g.n_edges(), 1, "1→9 survives chronology check");

        // reversed order → edge pruned
        let mut log2 = EventLog::new();
        log2.push(EventRecord::new(100.0, EventKind::RuleFired { rule_id: 9 }));
        log2.push(EventRecord::new(160.0, EventKind::RuleFired { rule_id: 1 }));
        let g2 = ob.build(&rules, &log2, 0.0, 1000.0, &feat);
        assert_eq!(g2.n_edges(), 0);
    }

    #[test]
    fn online_builder_prunes_by_gap() {
        let rules = table1_rules();
        let mut log = EventLog::new();
        log.push(EventRecord::new(0.0, EventKind::RuleFired { rule_id: 1 }));
        // 5 hours later — beyond the 3 h pruning interval
        log.push(EventRecord::new(
            5.0 * 3600.0,
            EventKind::RuleFired { rule_id: 9 },
        ));
        let g = OnlineBuilder.build(&rules, &log, 0.0, 1e9, &feat);
        assert_eq!(
            g.n_edges(),
            0,
            "disjoined occurrence time must prune the edge"
        );
    }

    #[test]
    fn device_state_records_attribute_rule_execution() {
        let rules = table1_rules();
        let mut log = EventLog::new();
        log.push(EventRecord::new(
            10.0,
            EventKind::DeviceState {
                device: DeviceKind::Window,
                location: Location::House,
                state: glint_rules::StateValue::Open,
            },
        ));
        let times = OnlineBuilder::execution_times(&rules, &log);
        // rules 2 and 6 both open windows
        let idx = |id: u32| rules.iter().position(|r| r.id.0 == id).unwrap();
        assert!(!times[idx(2)].is_empty());
        assert!(!times[idx(6)].is_empty());
        assert!(times[idx(3)].is_empty(), "close-windows rule did not run");
        let _ = Attribute::OpenClose; // silence unused import in cfg(test)
    }
}
