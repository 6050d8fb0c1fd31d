//! CLI entry point: `cargo run -p glint-lint [-- --json] [--root <dir>]`.
//! Exits 1 when findings exist or the census or panic surface regressed
//! past the baseline (CI gates on this), 2 on usage/IO errors and on a
//! baseline that lacks either count.

use glint_lint::{lint_workspace_with, report, Config, RuleId, ALL_RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: glint-lint [--json] [--root <dir>] [--list-rules]
                  [--explain <rule>] [--bench-out <file>] [--baseline <file>]
  --json             machine-readable findings report on stdout
  --root <dir>       workspace root to scan (default: current directory)
  --list-rules       print every rule id and its invariant family
  --explain <rule>   print every finding for one rule with its witness
                     call chain (sink entry \u{2192} \u{2026} \u{2192} site)
  --bench-out <file> write BENCH_lint.json v3 (call-graph stats, panic-
                     surface certificate, ranked allocation census)
  --baseline <file>  fail if the census has more total sites, or the panic
                     surface more fns, than the committed BENCH_lint.json";

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut explain: Option<RuleId> = None;
    let mut root = PathBuf::from(".");
    let mut bench_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_arg = |name: &str| -> Result<PathBuf, ExitCode> {
            args.next().map(PathBuf::from).ok_or_else(|| {
                eprintln!("{name} requires a path\n{USAGE}");
                ExitCode::from(2)
            })
        };
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--explain" => match args.next().as_deref().map(RuleId::parse) {
                Some(Some(rule)) => explain = Some(rule),
                Some(None) => {
                    eprintln!("--explain: unknown rule (see --list-rules)\n{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--explain requires a rule id\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match path_arg("--root") {
                Ok(dir) => root = dir,
                Err(code) => return code,
            },
            "--bench-out" => match path_arg("--bench-out") {
                Ok(p) => bench_out = Some(p),
                Err(code) => return code,
            },
            "--baseline" => match path_arg("--baseline") {
                Ok(p) => baseline = Some(p),
                Err(code) => return code,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in ALL_RULES {
            println!("{:<20} {}", rule.as_str(), rule.family());
        }
        return ExitCode::SUCCESS;
    }

    let analysis = match lint_workspace_with(&root, &Config::default()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("glint-lint: io error scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = explain {
        print!("{}", report::explain(&analysis.findings, rule));
    } else if json {
        println!("{}", report::json(&analysis.findings));
    } else {
        print!("{}", report::human(&analysis.findings));
    }

    if let Some(path) = &bench_out {
        if let Err(e) = std::fs::write(path, report::bench_json(&analysis)) {
            eprintln!("glint-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let regressed = match &baseline {
        None => false,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|doc| report::baseline_gate(&analysis, &doc))
        {
            Ok(gate) => {
                for line in &gate.lines {
                    eprintln!("glint-lint: {line}");
                }
                gate.regressed
            }
            Err(why) => {
                eprintln!("glint-lint: baseline {}: {why}", path.display());
                return ExitCode::from(2);
            }
        },
    };

    if analysis.findings.is_empty() && !regressed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
