//! iRuler-style bounded model checking baseline (§4.8.2's efficiency
//! comparison target).
//!
//! iRuler feeds rule interactions to an SMT solver; this stand-in performs
//! explicit bounded search over abstract device-state vectors — the same
//! exhaustive-exploration regime, with the same scaling pathology the paper
//! highlights: state count grows combinatorially with rule count and search
//! depth, while Glint's learned detector stays O(graph size).

use glint_rules::{Action, DeviceKind, Location, Rule, StateValue, Trigger};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Abstract home state: device/location → discrete state.
type AbstractState = BTreeMap<(DeviceKind, Location), StateValue>;

/// Result of a bounded check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Distinct abstract states explored.
    pub explored_states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// Detected violations (conflicting writes / loops), as rule-id pairs.
    pub violations: Vec<(u32, u32)>,
    /// Whether the search hit the depth bound before exhausting the space.
    pub truncated: bool,
}

impl CheckOutcome {
    pub fn is_vulnerable(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Bounded explicit-state checker.
pub struct IRulerChecker {
    /// Maximum rule-firing chain length (the paper's "search depth").
    pub max_depth: usize,
    /// State-count budget (so pathological cases terminate measurably).
    pub max_states: usize,
}

impl Default for IRulerChecker {
    fn default() -> Self {
        Self {
            max_depth: 6,
            max_states: 200_000,
        }
    }
}

fn state_key(s: &AbstractState, depth: usize) -> String {
    let mut k = format!("d{depth}|");
    for ((d, l), v) in s {
        k.push_str(&format!("{d:?}@{l:?}={v:?};"));
    }
    k
}

/// Can this rule's trigger fire in the abstract state? Device-state triggers
/// are checked against the state; environmental/time/voice triggers are
/// over-approximated as always-possible (sound for threat finding).
fn may_fire(rule: &Rule, state: &AbstractState) -> bool {
    match &rule.trigger {
        Trigger::DeviceState {
            device,
            location,
            state: want,
            ..
        } => state
            .get(&(*device, *location))
            .map(|have| have == want)
            .unwrap_or(true),
        _ => true,
    }
}

fn apply(rule: &Rule, state: &AbstractState) -> AbstractState {
    let mut next = state.clone();
    for a in &rule.actions {
        if let Action::SetState {
            device,
            location,
            state: v,
            ..
        } = a
        {
            next.insert((*device, *location), *v);
        }
    }
    next
}

impl IRulerChecker {
    /// Exhaustively explore rule-firing chains from the empty state.
    pub fn check(&self, rules: &[Rule]) -> CheckOutcome {
        let mut outcome = CheckOutcome {
            explored_states: 0,
            transitions: 0,
            violations: Vec::new(),
            truncated: false,
        };
        let mut seen: BTreeSet<String> = BTreeSet::new();
        // frontier: (state, depth, last write per device: rule id + value)
        type Writes = BTreeMap<(DeviceKind, Location), (u32, StateValue)>;
        let mut queue: VecDeque<(AbstractState, usize, Writes)> = VecDeque::new();
        queue.push_back((AbstractState::new(), 0, Writes::new()));
        let mut violations: BTreeSet<(u32, u32)> = BTreeSet::new();
        while let Some((state, depth, writes)) = queue.pop_front() {
            if outcome.explored_states >= self.max_states {
                outcome.truncated = true;
                break;
            }
            let key = state_key(&state, depth);
            if !seen.insert(key) {
                continue;
            }
            outcome.explored_states += 1;
            if depth >= self.max_depth {
                outcome.truncated = true;
                continue;
            }
            for rule in rules {
                if !may_fire(rule, &state) {
                    continue;
                }
                outcome.transitions += 1;
                // violation: this rule overwrites another rule's write with
                // an opposing value along the same chain
                let mut new_writes = writes.clone();
                for a in &rule.actions {
                    if let Action::SetState {
                        device,
                        location,
                        state: v,
                        ..
                    } = a
                    {
                        for ((d2, l2), (owner, prev)) in &writes {
                            if *d2 == *device
                                && l2.couples_with(*location)
                                && prev.opposes(*v)
                                && *owner != rule.id.0
                            {
                                let pair = if *owner < rule.id.0 {
                                    (*owner, rule.id.0)
                                } else {
                                    (rule.id.0, *owner)
                                };
                                violations.insert(pair);
                            }
                        }
                        new_writes.insert((*device, *location), (rule.id.0, *v));
                    }
                }
                queue.push_back((apply(rule, &state), depth + 1, new_writes));
            }
        }
        outcome.violations = violations.into_iter().collect();
        outcome.violations.sort_unstable();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_rules::scenarios::{table1_rules, table4_settings};

    #[test]
    fn finds_the_window_conflict_in_the_running_example() {
        let rules = table1_rules();
        let outcome = IRulerChecker::default().check(&rules);
        // rules 5 (close windows) and 6 (open windows) conflict on the window
        assert!(
            outcome.violations.iter().any(|&(a, b)| (a, b) == (5, 6)),
            "missing 5/6 window conflict: {:?}",
            outcome.violations
        );
    }

    #[test]
    fn benign_pairs_produce_no_violations() {
        let rules = table4_settings();
        let pair: Vec<Rule> = rules
            .iter()
            .filter(|r| [105, 109].contains(&r.id.0))
            .cloned()
            .collect();
        let outcome = IRulerChecker::default().check(&pair);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn state_explosion_grows_with_rule_count() {
        let rules = table1_rules();
        let small = IRulerChecker {
            max_depth: 4,
            max_states: 1_000_000,
        }
        .check(&rules[..3]);
        let large = IRulerChecker {
            max_depth: 4,
            max_states: 1_000_000,
        }
        .check(&rules);
        assert!(
            large.explored_states > small.explored_states * 2,
            "no blow-up: {} vs {}",
            large.explored_states,
            small.explored_states
        );
    }

    #[test]
    fn depth_bound_truncates() {
        let rules = table1_rules();
        let shallow = IRulerChecker {
            max_depth: 1,
            max_states: 1_000_000,
        }
        .check(&rules);
        assert!(shallow.truncated);
    }
}
