//! The paper's running example (Figure 1 / Table 1 / Figure 3) as an
//! executable specification.

use glint_suite::core::construction::node_features;
use glint_suite::core::oracle::{self, ThreatKind};
use glint_suite::graph::builder::{full_graph, OnlineBuilder};
use glint_suite::nlp::parse_rule;
use glint_suite::rules::correlation::action_triggers;
use glint_suite::rules::event::{EventKind, EventLog, EventRecord};
use glint_suite::rules::render::render_rule;
use glint_suite::rules::scenarios::table1_rules;
use glint_suite::rules::Rule;

#[test]
fn figure1_graph_structure() {
    let rules = table1_rules();
    let g = full_graph(&rules, &node_features);
    assert_eq!(g.n_nodes(), 9);
    assert!(
        g.is_heterogeneous(),
        "three platforms → heterogeneous graph"
    );
    // §2.1's example correlations
    let idx = |id: u32| rules.iter().position(|r| r.id.0 == id).unwrap();
    let has_edge = |a: u32, b: u32| {
        g.edges()
            .iter()
            .any(|&(u, v, _)| u == idx(a) && v == idx(b))
    };
    assert!(
        has_edge(1, 9),
        "lights-off (1) triggers lock-door (9) via light"
    );
    assert!(
        has_edge(4, 5),
        "AC-on (4) triggers close-windows (5) via the AC device"
    );
    assert!(
        has_edge(6, 3) || has_edge(6, 5) || g.n_edges() >= 4,
        "window rules interconnect"
    );
}

#[test]
fn the_window_cannot_open_when_smoke_is_detected() {
    // the intro's motivating threat: rule 6 opens the window on smoke, but
    // rules 4+5 (temperature → AC → close windows) force it shut
    let rules = table1_rules();
    let smoke_rule = rules.iter().find(|r| r.id.0 == 6).unwrap();
    let close_rule = rules.iter().find(|r| r.id.0 == 5).unwrap();
    let pair = [smoke_rule, close_rule];
    let findings = oracle::label_rules(&pair);
    assert!(
        findings.iter().any(|f| matches!(
            f.kind,
            ThreatKind::ActionConflict | ThreatKind::ActionRevert
        )),
        "the smoke-window vs AC-window interaction must be flagged: {findings:?}"
    );
}

#[test]
fn table1_rule_text_round_trips_through_nlp() {
    // every rendered rule description parses into non-empty elements
    for r in table1_rules() {
        let text = render_rule(&r);
        let parsed = parse_rule(&text);
        assert!(
            !parsed.action.is_empty() || !parsed.trigger.is_empty(),
            "rule {} parsed to nothing: {text}",
            r.id.0
        );
    }
}

#[test]
fn event_log_replay_reconstructs_the_incident_graph() {
    // Figure 3b's event sequence: movie → lights off → door locked; smoke;
    // temperature 86°F → AC on → windows closed
    let rules = table1_rules();
    let mut log = EventLog::new();
    log.push(EventRecord::new(
        8.0 * 60.0,
        EventKind::RuleFired { rule_id: 1 },
    ));
    log.push(EventRecord::new(
        8.2 * 60.0,
        EventKind::RuleFired { rule_id: 9 },
    ));
    log.push(EventRecord::new(
        38.5 * 60.0,
        EventKind::RuleFired { rule_id: 6 },
    ));
    log.push(EventRecord::new(
        39.5 * 60.0,
        EventKind::RuleFired { rule_id: 4 },
    ));
    log.push(EventRecord::new(
        39.9 * 60.0,
        EventKind::RuleFired { rule_id: 5 },
    ));
    let g = OnlineBuilder.build(&rules, &log, 0.0, 3600.0, &node_features);
    // exactly the five executed rules appear (2, 3, 7, 8 did not run)
    assert_eq!(g.n_nodes(), 5);
    let ids: Vec<u32> = g.nodes().iter().map(|n| n.rule_id.0).collect();
    for id in [1, 4, 5, 6, 9] {
        assert!(
            ids.contains(&id),
            "rule {id} missing from the real-time graph"
        );
    }
    for id in [2, 3, 7, 8] {
        assert!(!ids.contains(&id), "rule {id} did not execute but appears");
    }
    // chronology: 1 → 9 edge survives; nothing flows backwards in time
    let idx = |id: u32| ids.iter().position(|&x| x == id).unwrap();
    assert!(g
        .edges()
        .iter()
        .any(|&(u, v, _)| u == idx(1) && v == idx(9)));
}

#[test]
fn correlations_match_table1_narrative() {
    let rules = table1_rules();
    let get = |id: u32| -> &Rule { rules.iter().find(|r| r.id.0 == id).unwrap() };
    // "Rule 1 and Rule 9 interact via light"
    assert!(action_triggers(get(1), get(9)).is_some());
    // "Alexa, play movies has trigger-action correlation with Rule 1"
    assert!(action_triggers(get(4), get(5)).is_some());
    // rule 9's action (lock) does not trigger rule 1 (movie playing)
    assert!(action_triggers(get(9), get(1)).is_none());
}
