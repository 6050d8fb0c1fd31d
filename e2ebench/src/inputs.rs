//! Seeded workload inputs. The same seed gives byte-identical inputs in
//! any process; [`Digest`] fingerprints them so a run can show it.

use glint_core::construction::node_features;
use glint_core::oracle;
use glint_graph::builder::OnlineBuilder;
use glint_graph::InteractionGraph;
use glint_rules::event::EventLog;
use glint_rules::{Platform, Rule};
use glint_testbed::attack::{inject, AttackKind};
use glint_testbed::churn::{ChurnConfig, ChurnEvent, ChurnGenerator};
use glint_testbed::home::figure10_home;
use glint_testbed::sim::{SimConfig, Simulator};
use serde_json::{json, Value};
use std::collections::BTreeSet;

/// Window length: the paper's 3-hour pruning interval.
pub const WINDOW_S: f64 = 3.0 * 3600.0;
/// Windows start every 90 simulated minutes, so consecutive windows overlap
/// by half.
pub const STRIDE_S: f64 = 1.5 * 3600.0;
/// Simulated hours of activity per home.
pub const SIM_HOURS: f64 = 24.0;
/// One home in this many has an attack injected into its log.
pub const ATTACK_EVERY: usize = 3;

/// `window_stream` homes, by deployed-rule count, cycled.
pub const WINDOW_HOME_SIZES: [usize; 9] = [8, 16, 24, 32, 48, 64, 96, 128, 160];
/// Homes simulated at least, and at most, per seed: beyond the minimum,
/// homes are added until every stratum holds [`MIN_PER_STRATUM`] distinct
/// windows (the rarest stratum gives one in about 38 homes). Overlapping
/// windows of one home share most of their rules, so a stratum's latency
/// spread depends on how many homes fill it: at 600 homes the largest
/// threat stratum holds about 440 windows of about 100 homes.
pub const WINDOW_HOMES: usize = 600;
pub const MAX_WINDOW_HOMES: usize = 1_800;
pub const MIN_PER_STRATUM: usize = 8;

/// The census behind the operation mixes: every window of this many homes,
/// generated from [`CENSUS_SEED`] exactly as a workload generates its
/// homes, counted once. `glint-e2ebench --census` recounts it and
/// `tests/census.rs` checks the recorded counts against a recount.
pub const CENSUS_HOMES: usize = 1_800;
pub const CENSUS_SEED: u64 = 0xce05;

/// One stratum of `window_stream` operations: windows with `nodes` executed
/// rules that the policy oracle calls `vulnerable` or not, and how many
/// windows of the census pool fell in it.
pub struct Stratum {
    pub nodes: std::ops::RangeInclusive<usize>,
    pub vulnerable: bool,
    pub census: usize,
}

const fn stratum(lo: usize, hi: usize, vulnerable: bool, census: usize) -> Stratum {
    Stratum {
        nodes: lo..=hi,
        vulnerable,
        census,
    }
}

/// The operation mix of `window_stream`. How many nodes a window has, and
/// whether it holds a threat, decide what a verdict costs (the explainer
/// runs n + 1 forward passes on a flagged graph), and one seed's own windows
/// swing in both by a factor of two. So every seed draws its operations
/// from these strata in the proportions the simulator gives them, measured
/// over the [`CENSUS_HOMES`] census pool, and the seed picks which windows
/// fill each stratum. The census pool has 27,000 windows; the 2,012 of 0-1
/// or more than 50 executed rules are outside the paper's 2-50 node graphs
/// and are not screened. Of the rest, 21.8% hold a threat (the paper's
/// heterogeneous dataset, Table 3: 30.0%) and 5.3% are threats of 40-50
/// nodes, which set the 99th percentile.
pub const STRATA: [Stratum; 10] = [
    stratum(2, 5, false, 5_972),
    stratum(2, 5, true, 48),
    stratum(6, 10, false, 4_896),
    stratum(6, 10, true, 282),
    stratum(11, 20, false, 4_691),
    stratum(11, 20, true, 1_075),
    stratum(21, 39, false, 3_433),
    stratum(21, 39, true, 2_710),
    stratum(40, 50, false, 553),
    stratum(40, 50, true, 1_328),
];

/// `serve_score` homes are small, and only benign 2-12 node windows are
/// kept as request bodies.
pub const SERVE_HOME_SIZES: [usize; 4] = [8, 12, 16, 24];
pub const MAX_SERVE_HOMES: usize = 2_000;
/// Distinct request bodies per seed. The model flags about one benign body
/// in forty, and each flagged body runs the explainer, which sets the 99th
/// percentile. At 1,024 bodies that is some 25 bodies a seed, and the 99th
/// percentile swung by 40% between seeds; at 4,096 the flagged bodies are
/// about 100.
pub const SERVE_BODY_COUNT: usize = 4_096;
/// Request bodies by graph size, and how many distinct benign windows of
/// each size the census pool of serve homes gave. A body's size (300 or
/// 512 floats per node) sets what parsing it costs, so every seed splits
/// its [`SERVE_BODY_COUNT`] bodies in these proportions: 2,191, 1,640 and
/// 265.
pub const SERVE_BODIES: [(std::ops::RangeInclusive<usize>, usize); 3] =
    [(2..=4, 4_563), (5..=8, 3_417), (9..=12, 552)];

/// `total` split in proportion to `weights` by largest remainder, so the
/// parts sum to `total` exactly.
pub fn apportion(weights: &[usize], total: usize) -> Vec<usize> {
    let sum: usize = weights.iter().sum();
    let mut parts: Vec<usize> = weights.iter().map(|w| w * total / sum).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(weights[i] * total % sum));
    let short = total - parts.iter().sum::<usize>();
    for &i in &by_remainder[..short] {
        parts[i] += 1;
    }
    parts
}

/// An order of draws from strata of the given weights in which every
/// prefix holds each stratum within one draw of its share (smooth weighted
/// round robin); its length is the weights' sum.
pub fn interleave(weights: &[usize]) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut credit = vec![0i64; weights.len()];
    (0..total)
        .map(|_| {
            for (c, &w) in credit.iter_mut().zip(weights) {
                *c += w as i64;
            }
            let pick = (0..weights.len())
                .max_by_key(|&s| (credit[s], std::cmp::Reverse(s)))
                .expect("at least one stratum");
            credit[pick] -= total as i64;
            pick
        })
        .collect()
}

/// `fleet_churn`: homes x bootstrap rules puts 21,000 rules in the
/// detector's deployed set before the first timed delta.
pub const FLEET_HOMES: u64 = 7_000;
pub const FLEET_BOOTSTRAP_RULES: usize = 3;
pub const FLEET_MAX_RULES: usize = 8;
/// Dirty-home embeddings are refreshed every this many deltas (the churn
/// harness's cadence).
pub const FLEET_REFRESH_EVERY: u64 = 256;
/// Churn deltas generated after bootstrap; more than any run consumes.
pub const FLEET_DELTAS: u64 = 40_000;

/// SplitMix64: a tiny seeded generator for input selection.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over the inputs' serialized bytes.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn update_json(&mut self, value: &Value) {
        let text = serde_json::to_string(value).expect("a JSON value always serializes");
        self.update(text.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One simulated home: deployed rules and a day of its event log.
pub struct SimHome {
    pub rules: Vec<Rule>,
    pub log: EventLog,
}

/// One 3-hour window of one home's log.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub home: usize,
    pub from: f64,
}

impl Window {
    pub fn to(&self) -> f64 {
        self.from + WINDOW_S
    }
}

/// `n` rules drawn without replacement: six in ten IFTTT, the rest spread
/// evenly over the other four platforms.
fn home_rules(by_platform: &[Vec<&Rule>], n: usize, rng: &mut Rng) -> Vec<Rule> {
    let mut pools: Vec<Vec<&Rule>> = by_platform.to_vec();
    let ifttt = n * 6 / 10;
    let mut rules = Vec::with_capacity(n);
    for k in 0..n {
        let p = if k < ifttt { 0 } else { 1 + (k - ifttt) % 4 };
        let pool = if pools[p].is_empty() { 0 } else { p };
        let i = rng.below(pools[pool].len());
        rules.push(pools[pool].swap_remove(i).clone());
    }
    rules.sort_by_key(|r| r.id.0);
    rules
}

/// The corpus split by platform, in `Platform::all()` order.
fn platform_pools(corpus: &[Rule]) -> Vec<Vec<&Rule>> {
    Platform::all()
        .iter()
        .map(|&p| corpus.iter().filter(|r| r.platform == p).collect())
        .collect()
}

/// Home number `h` with `n_rules` rules and a simulated day of activity;
/// one home in [`ATTACK_EVERY`] gets an attack injected into its log.
fn sim_home(pools: &[Vec<&Rule>], h: usize, n_rules: usize, rng: &mut Rng) -> SimHome {
    let rules = home_rules(pools, n_rules, rng);
    let config = SimConfig {
        seed: rng.next_u64(),
        duration_hours: SIM_HOURS,
        tick_minutes: 10.0,
        activity_rate: 4.0,
    };
    let mut log = Simulator::new(figure10_home(), rules.clone(), config).run();
    if h.is_multiple_of(ATTACK_EVERY) {
        let kinds = AttackKind::all();
        log = inject(
            &log,
            kinds[(h / ATTACK_EVERY) % kinds.len()],
            rng.next_u64(),
        );
    }
    SimHome { rules, log }
}

/// Each window start of the simulated day, with the indices of the rules
/// that executed inside the window (the nodes `OnlineBuilder::build` keeps).
fn executed(home: &SimHome) -> Vec<(f64, Vec<usize>)> {
    let times = OnlineBuilder::execution_times(&home.rules, &home.log);
    let mut out = Vec::new();
    let mut from = 0.0;
    while from + WINDOW_S <= SIM_HOURS * 3600.0 {
        let to = from + WINDOW_S;
        let active = (0..home.rules.len())
            .filter(|&i| times[i].iter().any(|&t| t >= from && t <= to))
            .collect();
        out.push((from, active));
        from += STRIDE_S;
    }
    out
}

/// The `window_stream` homes of one seed, in order: home `h` has
/// `WINDOW_HOME_SIZES[h % 9]` rules. Yields each home with the [`STRATA`]
/// stratum of each of its windows (`None`: outside 2-50 nodes).
fn window_homes(
    corpus: &[Rule],
    seed: u64,
) -> impl Iterator<Item = (SimHome, Vec<(f64, Option<usize>)>)> + '_ {
    let pools = platform_pools(corpus);
    let mut rng = Rng::new(seed);
    (0..).map(move |h| {
        let home = sim_home(
            &pools,
            h,
            WINDOW_HOME_SIZES[h % WINDOW_HOME_SIZES.len()],
            &mut rng,
        );
        let windows = executed(&home)
            .into_iter()
            .map(|(from, active)| {
                let members: Vec<&Rule> = active.iter().map(|&i| &home.rules[i]).collect();
                let vulnerable = oracle::is_vulnerable(&members);
                let s = STRATA
                    .iter()
                    .position(|s| s.nodes.contains(&members.len()) && s.vulnerable == vulnerable);
                (from, s)
            })
            .collect();
        (home, windows)
    })
}

/// Windows per [`STRATA`] stratum, then the windows outside every stratum,
/// over the first `homes` `window_stream` homes of `seed`.
pub fn window_census(corpus: &[Rule], seed: u64, homes: usize) -> Vec<usize> {
    let mut counts = vec![0; STRATA.len() + 1];
    for (_, windows) in window_homes(corpus, seed).take(homes) {
        for (_, s) in windows {
            counts[s.unwrap_or(STRATA.len())] += 1;
        }
    }
    counts
}

/// `window_stream`: simulated homes, their windows sorted into [`STRATA`],
/// and the order operations draw from the strata.
pub struct WindowInputs {
    pub homes: Vec<SimHome>,
    /// Per stratum, its windows in the (seeded) order they are screened.
    pub strata: Vec<Vec<Window>>,
    /// The stratum each operation of one period draws from, and how many
    /// earlier operations of the period drew from it.
    pub schedule: Vec<(usize, usize)>,
}

impl WindowInputs {
    pub fn generate(corpus: &[Rule], seed: u64) -> Result<Self, String> {
        let mut homes = Vec::new();
        let mut strata: Vec<Vec<Window>> = STRATA.iter().map(|_| Vec::new()).collect();
        for (home, windows) in window_homes(corpus, seed) {
            if homes.len() >= WINDOW_HOMES
                && (strata.iter().all(|s| s.len() >= MIN_PER_STRATUM)
                    || homes.len() >= MAX_WINDOW_HOMES)
            {
                break;
            }
            for (from, s) in windows {
                if let Some(s) = s {
                    strata[s].push(Window {
                        home: homes.len(),
                        from,
                    });
                }
            }
            homes.push(home);
        }
        if let Some(s) = strata.iter().position(|s| s.len() < MIN_PER_STRATUM) {
            return Err(format!(
                "{} homes gave only {} windows of {:?} nodes (vulnerable: {})",
                homes.len(),
                strata[s].len(),
                STRATA[s].nodes,
                STRATA[s].vulnerable
            ));
        }
        // the window order depends on the seed, the stratum order does not
        let mut rng = Rng::new(!seed);
        for s in &mut strata {
            rng.shuffle(s);
        }
        let weights: Vec<usize> = STRATA.iter().map(|s| s.census).collect();
        let mut drawn = vec![0; STRATA.len()];
        let schedule = interleave(&weights)
            .into_iter()
            .map(|s| {
                drawn[s] += 1;
                (s, drawn[s] - 1)
            })
            .collect();
        Ok(Self {
            homes,
            strata,
            schedule,
        })
    }

    /// The stratum operation `i` draws from.
    pub fn stratum(&self, i: usize) -> &Stratum {
        &STRATA[self.schedule[i % self.schedule.len()].0]
    }

    /// The window operation `i` screens: each stratum's windows in turn,
    /// cyclically.
    pub fn window(&self, i: usize) -> Window {
        let (s, rank) = self.schedule[i % self.schedule.len()];
        let visit = (i / self.schedule.len()) * STRATA[s].census + rank;
        self.strata[s][visit % self.strata[s].len()]
    }

    pub fn n_windows(&self) -> usize {
        self.strata.iter().map(Vec::len).sum()
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for home in &self.homes {
            d.update_json(&json!({ "rules": home.rules, "log": home.log }));
        }
        for w in self.strata.iter().flatten() {
            d.update(&(w.home as u64).to_le_bytes());
            d.update(&w.from.to_bits().to_le_bytes());
        }
        d
    }
}

/// A complete `/score` request, as a hub would send it.
fn score_request(body: &str) -> Vec<u8> {
    format!(
        "POST /score HTTP/1.1\r\nHost: glint\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `serve_score`: pre-featurized benign windows as `/score` requests, and
/// the graphs the server will parse out of them.
pub struct ServeInputs {
    pub requests: Vec<Vec<u8>>,
    /// Each request's graph after the JSON round trip the server performs.
    pub graphs: Vec<InteractionGraph>,
}

/// The `serve_score` homes of one seed, in order: home `h` has
/// `SERVE_HOME_SIZES[h % 4]` rules. Yields each home with its benign
/// windows of 2-12 executed rules and their [`SERVE_BODIES`] size class.
/// Overlapping windows often execute the same rules; each rule set is
/// yielded once.
fn serve_homes(
    corpus: &[Rule],
    seed: u64,
) -> impl Iterator<Item = (SimHome, Vec<(f64, usize)>)> + '_ {
    let pools = platform_pools(corpus);
    let mut rng = Rng::new(seed);
    let mut seen: BTreeSet<Vec<u32>> = BTreeSet::new();
    (0..).map(move |h| {
        let home = sim_home(
            &pools,
            h,
            SERVE_HOME_SIZES[h % SERVE_HOME_SIZES.len()],
            &mut rng,
        );
        let windows = executed(&home)
            .into_iter()
            .filter_map(|(from, active)| {
                let members: Vec<&Rule> = active.iter().map(|&i| &home.rules[i]).collect();
                let class = SERVE_BODIES
                    .iter()
                    .position(|(nodes, _)| nodes.contains(&members.len()))?;
                (!oracle::is_vulnerable(&members)
                    && seen.insert(members.iter().map(|r| r.id.0).collect()))
                .then_some((from, class))
            })
            .collect();
        (home, windows)
    })
}

/// Distinct benign windows per [`SERVE_BODIES`] size class over the first
/// `homes` `serve_score` homes of `seed`.
pub fn serve_census(corpus: &[Rule], seed: u64, homes: usize) -> Vec<usize> {
    let mut counts = vec![0; SERVE_BODIES.len()];
    for (_, windows) in serve_homes(corpus, seed).take(homes) {
        for (_, class) in windows {
            counts[class] += 1;
        }
    }
    counts
}

impl ServeInputs {
    pub fn generate(corpus: &[Rule], seed: u64) -> Result<Self, String> {
        let weights: Vec<usize> = SERVE_BODIES.iter().map(|(_, census)| *census).collect();
        let quota = apportion(&weights, SERVE_BODY_COUNT);
        let mut by_size: Vec<Vec<InteractionGraph>> =
            SERVE_BODIES.iter().map(|_| Vec::new()).collect();
        for (h, (home, windows)) in serve_homes(corpus, seed).enumerate() {
            if by_size
                .iter()
                .zip(&quota)
                .all(|(got, want)| got.len() >= *want)
            {
                break;
            }
            if h == MAX_SERVE_HOMES {
                return Err(format!("{h} homes gave too few benign 2-12 node windows"));
            }
            for (from, class) in windows {
                if by_size[class].len() < quota[class] {
                    by_size[class].push(OnlineBuilder::default().build(
                        &home.rules,
                        &home.log,
                        from,
                        from + WINDOW_S,
                        &node_features,
                    ));
                }
            }
        }
        let mut window_graphs: Vec<InteractionGraph> = by_size.into_iter().flatten().collect();
        Rng::new(!seed).shuffle(&mut window_graphs);
        let mut requests = Vec::new();
        let mut graphs = Vec::new();
        for graph in window_graphs {
            let body = serde_json::to_string(&json!({ "graph": serde_json::to_value(&graph) }))
                .expect("a graph always serializes");
            let parsed: Value = serde_json::from_str(&body).expect("own body parses");
            let round_tripped = parsed
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "graph"))
                .map(|(_, v)| serde_json::from_value::<InteractionGraph>(v))
                .expect("own body has a graph")
                .expect("own graph deserializes");
            requests.push(score_request(&body));
            graphs.push(round_tripped);
        }
        Ok(Self { requests, graphs })
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for request in &self.requests {
            d.update(request);
        }
        d
    }
}

/// `fleet_churn`: the bootstrap adds followed by the churn deltas.
pub struct FleetInputs {
    pub events: Vec<ChurnEvent>,
    pub bootstrap_len: usize,
}

impl FleetInputs {
    pub fn generate(seed: u64) -> Self {
        let generator = ChurnGenerator::new(ChurnConfig {
            homes: FLEET_HOMES,
            deltas: FLEET_DELTAS,
            bootstrap_rules: FLEET_BOOTSTRAP_RULES,
            max_rules_per_home: FLEET_MAX_RULES,
            refresh_every: FLEET_REFRESH_EVERY,
            persist_every: 0,
            shard_dir: None,
            seed,
        });
        let bootstrap_len = generator.bootstrap_len() as usize;
        Self {
            events: generator.collect(),
            bootstrap_len,
        }
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for ev in &self.events {
            d.update_json(&serde_json::to_value(ev));
        }
        d
    }
}
