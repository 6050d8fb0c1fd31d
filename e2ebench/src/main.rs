//! Command line:
//!
//! ```text
//! glint-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! glint-e2ebench --workload <name> --seed <n> --inputs-only
//! glint-e2ebench --census
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when set-up fails or a
//! correctness check does not hold, 2 on a bad command line.
//! `--census` recounts the window census behind the operation mixes.

use glint_e2ebench::{census_report, inputs_digest, report, run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    inputs_only: bool,
}

fn usage() -> String {
    format!(
        "usage: glint-e2ebench --workload <{}> --seed <n> (--seconds <n> --trace <0|1> | \
         --inputs-only)",
        WORKLOADS.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inputs_only = false;
    while let Some(flag) = argv.next() {
        if flag == "--inputs-only" {
            inputs_only = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    if inputs_only {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            traced: false,
            inputs_only,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
        inputs_only,
    })
}

fn main() {
    // Kernels run on the calling thread. The library default fans every
    // matmul that clears `MIN_PAR_WORK` out over freshly spawned threads;
    // on 2-50 node graphs that spawn cost outweighs the work: on a 2-vCPU
    // VM, window_stream measured p50 1.34-1.79 ms and p99 58-76 ms under
    // the default against 0.98-1.22 ms and 24-31 ms serial, and its p99
    // spread over five seeds was 0.41, beyond any bound a benchmark may
    // set. Set before any kernel reads it.
    std::env::set_var("GLINT_THREADS", "1");
    if std::env::args().skip(1).eq(["--census"]) {
        print!("{}", census_report());
        return;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if args.inputs_only {
        match inputs_digest(&args.workload, args.seed) {
            Ok(d) => println!("{d}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let outcome = match run_workload(&args.workload, args.seed, args.seconds, args.traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if args.traced {
        print!("{}", report::layer_table(&args.workload, &outcome.values));
    }
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    match report::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        &report::reported(args.traced),
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cannot report: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
