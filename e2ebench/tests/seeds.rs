//! One seed gives byte-identical inputs in separate processes; two seeds
//! give different inputs.

use std::process::Command;

use glint_e2ebench::WORKLOADS;

fn digest(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_glint-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--inputs-only",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 digest");
    let digest = text.trim().to_string();
    assert_eq!(digest.len(), 16, "{workload}: unexpected digest {digest:?}");
    digest
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in WORKLOADS {
        let first = digest(workload, 7);
        assert_eq!(
            first,
            digest(workload, 7),
            "{workload}: same seed, other inputs"
        );
        assert_ne!(
            first,
            digest(workload, 8),
            "{workload}: two seeds, same inputs"
        );
    }
}

#[test]
fn bad_command_lines_exit_2() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--inputs-only"][..],
        &[
            "--workload",
            "window_stream",
            "--seed",
            "x",
            "--inputs-only",
        ],
        &[
            "--workload",
            "window_stream",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "window_stream"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_glint-e2ebench"))
            .args(args)
            .output()
            .expect("benchmark binary runs")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
