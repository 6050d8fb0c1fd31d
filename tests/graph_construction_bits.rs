//! Graph construction, pinned bit for bit.
//!
//! Every interaction graph the system builds uses Algorithm 1's three edge
//! families: action→trigger, shared device and faked condition. This suite
//! checks node order and the full edge list (kind, order, duplicates) of
//! each builder against test-local reference bodies:
//!
//! - `full_graph` over random slices of a generated corpus;
//! - `OnlineBuilder::build` over random event logs and windows;
//! - `GraphBuilder::new` + `sample_graph` (offline training graphs);
//! - `home_graph(mine_all(..))`, the incremental pipeline's constructor,
//!   including the mined pair records themselves.
//!
//! The corpus mixes every platform, so the slices carry conditions,
//! multi-action rules and global channels (smoke, home mode). The references
//! are deliberately naive: the full graph is three i-major, j-minor passes
//! over every ordered pair, the offline sampler finds candidates through its
//! own channel and device buckets, and the shared-device and faked-condition
//! predicates are written out again here.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use glint_suite::core::incremental::{home_graph, mine_all, OracleMiner};
use glint_suite::graph::builder::{full_graph, GraphBuilder, OnlineBuilder, MAX_GAP};
use glint_suite::graph::{EdgeKind, InteractionGraph, Node};
use glint_suite::rules::correlation::{
    action_invokes_trigger, action_triggers, effective_affects, Via,
};
use glint_suite::rules::event::{EventKind, EventLog, EventRecord};
use glint_suite::rules::{
    Action, Channel, Condition, CorpusConfig, CorpusGenerator, DeviceKind, Rule, StateValue,
    Trigger,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn corpus() -> &'static [Rule] {
    static CORPUS: OnceLock<Vec<Rule>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        CorpusGenerator::generate_corpus(&CorpusConfig {
            scale: 0.002,
            per_platform_cap: 90,
            seed: 0x9b17,
        })
    })
}

/// Cheap features that still pin node order: the rule id and its shape.
fn feat(r: &Rule) -> Vec<f32> {
    vec![
        r.id.0 as f32,
        r.actions.len() as f32,
        r.conditions.len() as f32,
    ]
}

fn slice(lo: usize, len: usize) -> &'static [Rule] {
    let rules = corpus();
    let lo = lo % rules.len();
    &rules[lo..(lo + len).min(rules.len())]
}

// ---------------------------------------------------------------------------
// reference bodies
// ---------------------------------------------------------------------------

fn ref_condition_as_trigger(cond: &Condition) -> Option<Trigger> {
    match cond {
        Condition::DeviceState {
            device,
            location,
            attribute,
            state,
        } => Some(Trigger::DeviceState {
            device: *device,
            location: *location,
            attribute: *attribute,
            state: *state,
        }),
        Condition::ChannelThreshold {
            channel,
            location,
            cmp,
            value,
        } => Some(Trigger::ChannelThreshold {
            channel: *channel,
            location: *location,
            cmp: *cmp,
            value: *value,
        }),
        Condition::Time(_) | Condition::HomeMode(_) => None,
    }
}

fn ref_shares_device(a: &Rule, b: &Rule) -> bool {
    a.actuated_devices().iter().any(|(d1, l1)| {
        b.actuated_devices()
            .iter()
            .any(|(d2, l2)| d1 == d2 && l1.couples_with(*l2))
    })
}

/// Conditions of `b` an action of `a` can fake, duplicates included.
fn ref_faked_conditions(a: &Rule, b: &Rule) -> u32 {
    b.conditions
        .iter()
        .filter_map(ref_condition_as_trigger)
        .filter(|t| {
            a.actions
                .iter()
                .any(|act| action_invokes_trigger(act, t).is_some())
        })
        .count() as u32
}

fn ref_nodes(rules: &[Rule]) -> Vec<Node> {
    rules
        .iter()
        .map(|r| Node {
            rule_id: r.id,
            platform: r.platform,
            features: feat(r),
        })
        .collect()
}

fn ref_full_graph(rules: &[Rule]) -> InteractionGraph {
    let mut g = InteractionGraph::new(ref_nodes(rules));
    for (i, a) in rules.iter().enumerate() {
        for (j, b) in rules.iter().enumerate() {
            if i != j && action_triggers(a, b).is_some() {
                g.add_edge(i, j, EdgeKind::ActionTrigger);
            }
        }
    }
    for (i, a) in rules.iter().enumerate() {
        for (j, b) in rules.iter().enumerate() {
            if i != j && ref_shares_device(a, b) {
                g.add_edge(i, j, EdgeKind::SharedDevice);
            }
        }
    }
    for (i, a) in rules.iter().enumerate() {
        for (j, b) in rules.iter().enumerate() {
            if i == j {
                continue;
            }
            for _ in 0..ref_faked_conditions(a, b) {
                g.add_edge(i, j, EdgeKind::ActionCondition);
            }
        }
    }
    g
}

fn ref_execution_times(rules: &[Rule], log: &EventLog) -> Vec<Vec<f64>> {
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

fn ref_online_build(
    max_gap: f64,
    rules: &[Rule],
    log: &EventLog,
    from: f64,
    to: f64,
) -> InteractionGraph {
    let times = ref_execution_times(rules, log);
    let active: Vec<usize> = (0..rules.len())
        .filter(|&i| times[i].iter().any(|&t| t >= from && t <= to))
        .collect();
    let active_rules: Vec<Rule> = active.iter().map(|&i| rules[i].clone()).collect();
    let complete = ref_full_graph(&active_rules);
    let mut g = InteractionGraph::new(complete.nodes().to_vec());
    for &(u, v, kind) in complete.edges() {
        let tu = &times[active[u]];
        let tv = &times[active[v]];
        let plausible = tu.iter().any(|&a| {
            tv.iter()
                .any(|&b| b > a && b - a <= max_gap && a >= from && b <= to)
        });
        if plausible {
            g.add_edge(u, v, kind);
        }
    }
    g
}

/// `(action_trigger weight bits, shared_device, action_condition)`.
type RefPair = (Option<u32>, bool, u32);

fn ref_mine_all(rules: &[Rule]) -> BTreeMap<(u32, u32), RefPair> {
    let mut corr = BTreeMap::new();
    for a in rules {
        for b in rules {
            if a.id == b.id {
                continue;
            }
            let weight = action_triggers(a, b).map(|via| match via {
                Via::Device(_) => 1.0f32,
                Via::Channel(_) => 0.75f32,
            });
            let pair = (
                weight.map(f32::to_bits),
                ref_shares_device(a, b),
                ref_faked_conditions(a, b),
            );
            if pair != (None, false, 0) {
                corr.insert((a.id.0, b.id.0), pair);
            }
        }
    }
    corr
}

/// The offline sampler with its own channel/device candidate buckets.
struct RefGraphBuilder<'a> {
    rules: &'a [Rule],
    rng: StdRng,
    successors: Vec<Vec<usize>>,
    predecessors: Vec<Vec<usize>>,
    shared_device: Vec<Vec<usize>>,
}

impl<'a> RefGraphBuilder<'a> {
    fn new(rules: &'a [Rule], seed: u64) -> Self {
        let mut by_channel: BTreeMap<Channel, Vec<usize>> = BTreeMap::new();
        let mut by_device: BTreeMap<DeviceKind, Vec<usize>> = BTreeMap::new();
        for (i, r) in rules.iter().enumerate() {
            if let Some(c) = r.trigger.channel() {
                by_channel.entry(c).or_default().push(i);
            }
            if let Trigger::DeviceState { device, .. } = &r.trigger {
                by_device.entry(*device).or_default().push(i);
            }
        }
        let mut successors = vec![Vec::new(); rules.len()];
        let mut predecessors = vec![Vec::new(); rules.len()];
        for (i, a) in rules.iter().enumerate() {
            let mut candidates: BTreeSet<usize> = BTreeSet::new();
            for act in &a.actions {
                if let Some((dev, _)) = act.device() {
                    if let Some(v) = by_device.get(&dev) {
                        candidates.extend(v.iter().copied());
                    }
                    let state = match act {
                        Action::SetState { state, .. } => *state,
                        Action::SetLevel { value, .. } => StateValue::Level(*value),
                        _ => continue,
                    };
                    for (c, _) in effective_affects(dev, state) {
                        if let Some(v) = by_channel.get(&c) {
                            candidates.extend(v.iter().copied());
                        }
                    }
                }
            }
            for j in candidates {
                if i != j && action_triggers(a, &rules[j]).is_some() {
                    successors[i].push(j);
                    predecessors[j].push(i);
                }
            }
        }
        let mut actuated: BTreeMap<DeviceKind, Vec<usize>> = BTreeMap::new();
        for (i, r) in rules.iter().enumerate() {
            for (dev, _) in r.actuated_devices() {
                actuated.entry(dev).or_default().push(i);
            }
        }
        let mut shared_device = vec![Vec::new(); rules.len()];
        for members in actuated.values() {
            for &i in members {
                for &j in members {
                    if i != j && ref_shares_device(&rules[i], &rules[j]) {
                        shared_device[i].push(j);
                    }
                }
            }
        }
        for v in successors
            .iter_mut()
            .chain(predecessors.iter_mut())
            .chain(shared_device.iter_mut())
        {
            v.sort_unstable();
            v.dedup();
        }
        Self {
            rules,
            rng: StdRng::seed_from_u64(seed),
            successors,
            predecessors,
            shared_device,
        }
    }

    fn n_correlations(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    fn sample_graph(&mut self, min_nodes: usize, max_nodes: usize) -> InteractionGraph {
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
            if self.rng.gen_bool(0.35) {
                let fresh = self.rng.gen_range(0..self.rules.len());
                if in_graph.insert(fresh) {
                    selected.push(fresh);
                } else {
                    stall += 1;
                }
                continue;
            }
            let &anchor = selected.choose(&mut self.rng).unwrap();
            let mut pool: Vec<usize> = self.successors[anchor]
                .iter()
                .chain(self.predecessors[anchor].iter())
                .copied()
                .filter(|j| !in_graph.contains(j))
                .collect();
            if pool.is_empty() {
                let fresh = self.rng.gen_range(0..self.rules.len());
                if in_graph.insert(fresh) {
                    selected.push(fresh);
                } else {
                    stall += 1;
                }
                continue;
            }
            pool.sort_unstable();
            let &next = pool.choose(&mut self.rng).unwrap();
            in_graph.insert(next);
            selected.push(next);
            stall = 0;
        }
        let chosen: Vec<Rule> = selected.iter().map(|&i| self.rules[i].clone()).collect();
        let mut g = InteractionGraph::new(ref_nodes(&chosen));
        for (gi, &i) in selected.iter().enumerate() {
            for (gj, &j) in selected.iter().enumerate() {
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
}

// ---------------------------------------------------------------------------
// random event logs
// ---------------------------------------------------------------------------

/// A seeded log over `rules`: explicit `RuleFired` records, device-state
/// records that replay some rule's action (so execution is inferred), a
/// rule id outside the slice, and channel noise, at times spread over 8 h
/// so that both chronology and the 3 h gap prune edges.
fn random_log(rules: &[Rule], seed: u64) -> EventLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<EventRecord> = Vec::new();
    let n = rng.gen_range(1..3 * rules.len() + 2);
    for _ in 0..n {
        let t = rng.gen_range(0.0..8.0 * 3600.0);
        let r = rules.choose(&mut rng).expect("slices are non-empty");
        let kind = match rng.gen_range(0..6) {
            0..=2 => EventKind::RuleFired { rule_id: r.id.0 },
            3 => match r.actions.choose(&mut rng) {
                Some(Action::SetState {
                    device,
                    location,
                    state,
                    ..
                }) => EventKind::DeviceState {
                    device: *device,
                    location: *location,
                    state: *state,
                },
                _ => EventKind::RuleFired { rule_id: r.id.0 },
            },
            4 => EventKind::RuleFired {
                rule_id: u32::MAX - rng.gen_range(0..4u32),
            },
            _ => EventKind::ChannelEvent {
                channel: Channel::Smoke,
                location: r.trigger.location(),
            },
        };
        records.push(EventRecord::new(t, kind));
    }
    records.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let mut log = EventLog::new();
    for rec in records {
        log.push(rec);
    }
    log
}

fn edge_kinds(g: &InteractionGraph, kind: EdgeKind) -> usize {
    g.edges().iter().filter(|e| e.2 == kind).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `full_graph`: nodes in rule order, then every ActionTrigger edge,
    /// every SharedDevice edge and every ActionCondition edge.
    #[test]
    fn full_graph_matches_reference(lo in 0usize..10_000, len in 1usize..40) {
        let rules = slice(lo, len);
        prop_assert_eq!(full_graph(rules, &feat), ref_full_graph(rules));
    }

    /// `OnlineBuilder::build`: the executed rules, their full graph, and
    /// only the edges whose cause precedes the effect within the gap.
    #[test]
    fn online_build_matches_reference(
        lo in 0usize..10_000,
        len in 1usize..30,
        seed in 0u64..1_000_000,
        from_h in 0.0f64..6.0,
        span_h in 0.0f64..6.0,
    ) {
        let rules = slice(lo, len);
        let log = random_log(rules, seed);
        let (from, to) = (from_h * 3600.0, (from_h + span_h) * 3600.0);
        let builder = OnlineBuilder;
        let ours = builder.build(rules, &log, from, to, &feat);
        prop_assert_eq!(ours, ref_online_build(MAX_GAP, rules, &log, from, to));
    }

    /// `home_graph(mine_all(..))`: the mined pair records, weight bits
    /// included, and the graph built from them.
    #[test]
    fn home_graph_matches_reference(lo in 0usize..10_000, len in 1usize..40) {
        let rules = slice(lo, len);
        let corr = mine_all(&OracleMiner, rules);
        let mined: BTreeMap<(u32, u32), RefPair> = corr
            .iter()
            .map(|(&k, p)| {
                (k, (p.action_trigger.map(f32::to_bits), p.shared_device, p.action_condition))
            })
            .collect();
        prop_assert_eq!(mined, ref_mine_all(rules));
        let ours = home_graph(rules, &corr, &feat).expect("slices are non-empty");
        prop_assert_eq!(ours, ref_full_graph(rules));
    }

    /// `GraphBuilder::new` + `sample_graph`: the same correlation index and
    /// the same seeded sequence of training graphs.
    #[test]
    fn sampled_graphs_match_reference(
        lo in 0usize..10_000,
        len in 2usize..160,
        seed in 0u64..1_000_000,
    ) {
        let rules = slice(lo, len);
        prop_assume!(rules.len() >= 2);
        let mut ours = GraphBuilder::new(rules, seed);
        let mut reference = RefGraphBuilder::new(rules, seed);
        prop_assert_eq!(ours.n_correlations(), reference.n_correlations());
        for _ in 0..4 {
            prop_assert_eq!(ours.sample_graph(2, 12, &feat), reference.sample_graph(2, 12));
        }
    }
}

/// Offline training graphs carry ActionTrigger and SharedDevice edges only,
/// while `full_graph` over the same rules adds ActionCondition edges.
#[test]
fn sampled_graphs_omit_condition_edges_that_full_graph_adds() {
    let rules = corpus();
    let by_id: BTreeMap<u32, &Rule> = rules.iter().map(|r| (r.id.0, r)).collect();
    assert_eq!(by_id.len(), rules.len(), "corpus ids are unique");
    let mut builder = GraphBuilder::new(rules, 0x5a);
    let mut condition_edges_in_full = 0;
    for _ in 0..300 {
        let sampled = builder.sample_graph(2, 20, &feat);
        assert_eq!(edge_kinds(&sampled, EdgeKind::ActionCondition), 0);
        let same: Vec<Rule> = sampled
            .nodes()
            .iter()
            .map(|n| by_id[&n.rule_id.0].clone())
            .collect();
        condition_edges_in_full += edge_kinds(&full_graph(&same, &feat), EdgeKind::ActionCondition);
    }
    assert!(
        condition_edges_in_full > 0,
        "no sampled rule set had a faked condition: the corpus no longer exercises the pin"
    );
}

/// The random inputs above reach every edge family.
#[test]
fn corpus_slices_exercise_every_edge_family() {
    let g = full_graph(corpus(), &feat);
    for kind in [
        EdgeKind::ActionTrigger,
        EdgeKind::SharedDevice,
        EdgeKind::ActionCondition,
    ] {
        assert!(edge_kinds(&g, kind) > 0, "no {kind:?} edge in the corpus");
    }
    assert!(corpus().iter().any(|r| r.actions.len() > 1));
    assert!(corpus().iter().any(|r| !r.conditions.is_empty()));
    assert!(corpus()
        .iter()
        .any(|r| r.trigger.channel().is_some_and(Channel::is_global)));
}
