//! Human-readable and JSON rendering of findings, and the `--baseline`
//! gate. JSON goes through the serde_json shim both ways: the reports are
//! built as `Value`s and written compactly, and the committed baseline is
//! parsed and read by path.

use crate::rules::Finding;
use crate::Analysis;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// `path:line: [family/rule] message`, one per finding, plus a summary line.
pub fn human(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        let _ = writeln!(
            s,
            "{}:{}: [{}/{}] {}",
            f.file,
            f.line,
            f.rule.family(),
            f.rule.as_str(),
            f.message
        );
    }
    if findings.is_empty() {
        s.push_str("glint-lint: no findings\n");
    } else {
        let _ = writeln!(s, "glint-lint: {} finding(s)", findings.len());
    }
    s
}

/// `{"version":1,"count":N,"findings":[{file,line,rule,family,message}…]}`
pub fn json(findings: &[Finding]) -> String {
    let entries: Vec<Value> = findings
        .iter()
        .map(|f| {
            let mut entry = json!({
                "file": f.file,
                "line": f.line,
                "rule": f.rule.as_str(),
                "family": f.rule.family(),
                "message": f.message,
            });
            if let (Value::Map(fields), false) = (&mut entry, f.witness.is_empty()) {
                fields.push(("witness".into(), json!(f.witness)));
            }
            entry
        })
        .collect();
    let doc = json!({ "version": 1, "count": findings.len(), "findings": entries });
    serde_json::to_string(&doc).unwrap_or_default()
}

/// The `BENCH_lint.json` v3 document: findings count, call-graph
/// statistics (with the *actionable* unresolved worklist — variant ctors
/// and std staples filtered out), the panic-surface certificate as a named
/// fn list, and the ranked inference-path allocation census with call-chain
/// evidence. Snapshotted at the repo root by CI; `--baseline` gates the
/// census *and* the panic surface against the committed copy.
pub fn bench_json(a: &Analysis) -> String {
    let unresolved: Vec<Value> = a
        .stats
        .unresolved
        .iter()
        .map(|(name, count)| json!({ "name": name, "count": count }))
        .collect();
    let panic_fns: Vec<Value> = a
        .panic_surface
        .iter()
        .map(|p| json!({ "fn": p.qualified, "file": p.file, "line": p.line, "kinds": p.kinds }))
        .collect();
    let by_kind = Value::Map(
        a.census
            .by_kind
            .iter()
            .map(|(kind, count)| (kind.to_string(), json!(count)))
            .collect(),
    );
    let sites: Vec<Value> = a
        .census
        .sites
        .iter()
        .map(|site| {
            let mut entry = json!({
                "file": site.file,
                "line": site.line,
                "kind": site.kind.as_str(),
                "in_fn": site.in_fn,
            });
            if let Value::Map(fields) = &mut entry {
                if let Some(feature) = &site.cfg_feature {
                    fields.push(("cfg_feature".into(), json!(feature)));
                }
                fields.push(("chain".into(), json!(site.chain)));
            }
            entry
        })
        .collect();
    let doc = json!({
        "version": 3,
        "findings": { "count": a.findings.len() },
        "graph": {
            "files": a.stats.files,
            "fns": a.stats.fns,
            "resolved_calls": a.stats.resolved_calls,
            "hot_fns": a.stats.hot_fns,
            "unresolved_total": a.stats.unresolved.values().sum::<usize>(),
            "unresolved_raw_names": a.stats.unresolved_raw_names,
            "unresolved_raw_calls": a.stats.unresolved_raw_calls,
            "unresolved": unresolved,
        },
        "panic_surface": { "panic_fns": a.panic_surface.len(), "fns": panic_fns },
        "census": {
            "total_sites": a.census.total_sites(),
            "reachable_fns": a.census.reachable_fns,
            "by_kind": by_kind,
            "sites": sites,
        },
    });
    serde_json::to_string(&doc).unwrap_or_default()
}

/// `section.key` of a (committed) `BENCH_lint.json`, as a count.
fn baseline_count(doc: &str, section: &str, key: &str) -> Option<usize> {
    let value = serde_json::parse(doc).ok()?;
    let count = value.get(section)?.get(key)?.as_u64()?;
    usize::try_from(count).ok()
}

/// `census.total_sites`: the allocation-site count the census ratchet
/// gates against.
pub fn baseline_total_sites(doc: &str) -> Option<usize> {
    baseline_count(doc, "census", "total_sites")
}

/// `panic_surface.panic_fns`: the panic-surface size the ratchet gates
/// against.
pub fn baseline_panic_fns(doc: &str) -> Option<usize> {
    baseline_count(doc, "panic_surface", "panic_fns")
}

/// What the `--baseline` gate found.
#[derive(Debug, PartialEq)]
pub struct BaselineGate {
    /// One report line per ratchet (census, then panic surface).
    pub lines: Vec<String>,
    /// Whether either count grew past the baseline.
    pub regressed: bool,
}

/// The `--baseline` ratchets against a committed `BENCH_lint.json`: the
/// inference-path census may not have more sites, nor the serving path's
/// panic surface more fns, than the baseline records. A baseline that lacks
/// either count is an `Err`, never a skipped check.
pub fn baseline_gate(a: &Analysis, doc: &str) -> Result<BaselineGate, String> {
    let allowed =
        baseline_total_sites(doc).ok_or("baseline has no \"census.total_sites\" count")?;
    let allowed_fns =
        baseline_panic_fns(doc).ok_or("baseline has no \"panic_surface.panic_fns\" count")?;
    let now = a.census.total_sites();
    let now_fns = a.panic_surface.len();
    let census = if now > allowed {
        format!(
            "census regression — {now} allocation sites on the inference path, \
             baseline allows {allowed}; either eliminate the new allocations or \
             commit the regenerated BENCH_lint.json with a rationale"
        )
    } else {
        format!("census {now} site(s) <= baseline {allowed}")
    };
    let surface = if now_fns > allowed_fns {
        format!(
            "panic-surface regression — {now_fns} panic-capable fn(s) reachable \
             from the hot entry points, baseline allows {allowed_fns}; remove the \
             panicking construct or commit the regenerated BENCH_lint.json with a \
             rationale"
        )
    } else {
        format!("panic surface {now_fns} fn(s) <= baseline {allowed_fns}")
    };
    Ok(BaselineGate {
        lines: vec![census, surface],
        regressed: now > allowed || now_fns > allowed_fns,
    })
}

/// `--explain <rule>` rendering: every finding for one rule with its
/// witness call chain, one hop per line. Interprocedural findings carry
/// the chain that makes the flow concrete (sink entry → … → source fn, or
/// lock-hold evidence); per-site findings just print their location.
pub fn explain(findings: &[Finding], rule: crate::rules::RuleId) -> String {
    let mut s = String::new();
    let matching: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
    let _ = writeln!(
        s,
        "{} finding(s) for [{}/{}]",
        matching.len(),
        rule.family(),
        rule.as_str()
    );
    for f in &matching {
        let _ = writeln!(s, "\n{}:{}: {}", f.file, f.line, f.message);
        for (i, hop) in f.witness.iter().enumerate() {
            let _ = writeln!(s, "  {}{}", "  ".repeat(i), hop);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn json_escapes_and_counts() {
        let fs = vec![Finding {
            file: "a/b.rs".into(),
            line: 3,
            rule: RuleId::FloatEq,
            message: "has \"quotes\" and\nnewline".into(),
            witness: Vec::new(),
        }];
        let j = json(&fs);
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"rule\":\"float-eq\""));
    }

    #[test]
    fn empty_is_valid() {
        assert_eq!(json(&[]), "{\"version\":1,\"count\":0,\"findings\":[]}");
        assert!(human(&[]).contains("no findings"));
    }

    /// Findings with and without witness chains; messages and hops carry
    /// quotes, backslashes, newlines, a control character and non-ASCII.
    fn pinned_findings() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/core/src/detector.rs".into(),
                line: 41,
                rule: RuleId::TaintFlow,
                message: "clock `Instant::now` reaches \"verdict\"\nvia 2 hops".into(),
                witness: vec![
                    "GlintDetector::assess".into(),
                    "drift::score \u{2192} \\tmp".into(),
                    "clock::now\t(src)".into(),
                ],
            },
            Finding {
                file: "src/a b.rs".into(),
                line: 7,
                rule: RuleId::FloatEq,
                message: "float `==` on \u{1}raw\r\nliteral \u{e9}".into(),
                witness: Vec::new(),
            },
        ]
    }

    fn pinned_analysis() -> Analysis {
        use crate::census::{AllocKind, Census, CensusSite};
        use crate::dataflow::PanicFn;
        let mut stats = crate::GraphStats {
            files: 3,
            fns: 120,
            resolved_calls: 455,
            hot_fns: 17,
            unresolved_raw_names: 9,
            unresolved_raw_calls: 31,
            ..Default::default()
        };
        stats.unresolved.insert("from_fn".into(), 4);
        stats.unresolved.insert("weird\"name".into(), 1);
        let mut by_kind = std::collections::BTreeMap::new();
        by_kind.insert(AllocKind::MatrixCtor.as_str(), 1);
        by_kind.insert(AllocKind::Collect.as_str(), 1);
        Analysis {
            findings: pinned_findings(),
            census: Census {
                sites: vec![
                    CensusSite {
                        file: "crates/tensor/src/matrix.rs".into(),
                        line: 88,
                        kind: AllocKind::MatrixCtor,
                        in_fn: "glint_tensor::Matrix::zeros".into(),
                        cfg_feature: None,
                        chain: vec!["assess".into(), "Matrix::zeros".into()],
                    },
                    CensusSite {
                        file: "crates/gnn/src/batch.rs".into(),
                        line: 12,
                        kind: AllocKind::Collect,
                        in_fn: "glint_gnn::batch::check".into(),
                        cfg_feature: Some("strict".into()),
                        chain: Vec::new(),
                    },
                ],
                by_kind,
                reachable_fns: 64,
            },
            panic_surface: vec![
                PanicFn {
                    qualified: "glint_core::detector::GlintDetector::verdict".into(),
                    file: "crates/core/src/detector.rs".into(),
                    line: 200,
                    kinds: vec!["index", "unwrap"],
                },
                PanicFn {
                    qualified: "glint_tensor::Matrix::get".into(),
                    file: "crates/tensor/src/matrix.rs".into(),
                    line: 30,
                    kinds: Vec::new(),
                },
            ],
            stats,
        }
    }

    /// The findings report's exact bytes.
    #[test]
    fn json_report_is_pinned() {
        assert_eq!(
            json(&pinned_findings()),
            concat!(
                r#"{"version":1,"count":2,"findings":["#,
                r#"{"file":"crates/core/src/detector.rs","line":41,"rule":"taint-flow","#,
                r#""family":"determinism","message":"clock `Instant::now` reaches \"verdict\"\nvia 2 hops","#,
                r#""witness":["GlintDetector::assess","drift::score → \\tmp","clock::now\t(src)"]},"#,
                r#"{"file":"src/a b.rs","line":7,"rule":"float-eq","family":"nan-safety","#,
                r#""message":"float `==` on \u0001raw\r\nliteral é"}]}"#,
            )
        );
    }

    /// `BENCH_lint.json`'s exact bytes for a hand-built analysis.
    #[test]
    fn bench_json_is_pinned() {
        assert_eq!(
            bench_json(&pinned_analysis()),
            concat!(
                r#"{"version":3,"findings":{"count":2},"#,
                r#""graph":{"files":3,"fns":120,"resolved_calls":455,"hot_fns":17,"#,
                r#""unresolved_total":5,"unresolved_raw_names":9,"unresolved_raw_calls":31,"#,
                r#""unresolved":[{"name":"from_fn","count":4},{"name":"weird\"name","count":1}]},"#,
                r#""panic_surface":{"panic_fns":2,"fns":["#,
                r#"{"fn":"glint_core::detector::GlintDetector::verdict","#,
                r#""file":"crates/core/src/detector.rs","line":200,"kinds":["index","unwrap"]},"#,
                r#"{"fn":"glint_tensor::Matrix::get","file":"crates/tensor/src/matrix.rs","#,
                r#""line":30,"kinds":[]}]},"#,
                r#""census":{"total_sites":2,"reachable_fns":64,"#,
                r#""by_kind":{"collect":1,"matrix-ctor":1},"sites":["#,
                r#"{"file":"crates/tensor/src/matrix.rs","line":88,"kind":"matrix-ctor","#,
                r#""in_fn":"glint_tensor::Matrix::zeros","chain":["assess","Matrix::zeros"]},"#,
                r#"{"file":"crates/gnn/src/batch.rs","line":12,"kind":"collect","#,
                r#""in_fn":"glint_gnn::batch::check","cfg_feature":"strict","chain":[]}]}}"#,
            )
        );
    }

    /// The pinned analysis has 2 census sites and 2 panic-capable fns.
    #[test]
    fn baseline_gate_passes_at_or_above_both_counts() {
        let a = pinned_analysis();
        for doc in [
            r#"{"census":{"total_sites":2},"panic_surface":{"panic_fns":2}}"#,
            r#"{"panic_surface":{"panic_fns":9,"fns":[]},"census":{"total_sites":3}}"#,
        ] {
            let gate = baseline_gate(&a, doc).unwrap();
            assert!(!gate.regressed, "{doc}: {:?}", gate.lines);
        }
        let gate = baseline_gate(&a, &bench_json(&a)).unwrap();
        assert_eq!(
            gate.lines,
            [
                "census 2 site(s) <= baseline 2",
                "panic surface 2 fn(s) <= baseline 2"
            ]
        );
    }

    #[test]
    fn baseline_gate_fails_when_either_count_regresses() {
        let a = pinned_analysis();
        for (doc, regressed) in [
            (
                r#"{"census":{"total_sites":1},"panic_surface":{"panic_fns":2}}"#,
                "census regression",
            ),
            (
                r#"{"census":{"total_sites":2},"panic_surface":{"panic_fns":1}}"#,
                "panic-surface regression",
            ),
        ] {
            let gate = baseline_gate(&a, doc).unwrap();
            assert!(gate.regressed, "{doc}");
            assert!(
                gate.lines.iter().any(|l| l.starts_with(regressed)),
                "{doc}: {:?}",
                gate.lines
            );
        }
    }

    /// A baseline that lacks a count, or holds it at the wrong path or as a
    /// non-number, is an error, not a skipped ratchet.
    #[test]
    fn baseline_gate_refuses_a_baseline_without_either_count() {
        let a = pinned_analysis();
        for (doc, missing) in [
            (r#"{"panic_surface":{"panic_fns":2}}"#, "census.total_sites"),
            (r#"{"census":{"total_sites":2}}"#, "panic_surface.panic_fns"),
            (
                r#"{"census":{"total_sites":2},"panic_fns":2}"#,
                "panic_surface.panic_fns",
            ),
            (
                r#"{"census":{"total_sites":"2"},"panic_surface":{"panic_fns":2}}"#,
                "census.total_sites",
            ),
            ("not json", "census.total_sites"),
        ] {
            let err = baseline_gate(&a, doc).unwrap_err();
            assert!(err.contains(missing), "{doc}: {err}");
        }
    }
}
