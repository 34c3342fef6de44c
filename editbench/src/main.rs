//! Runs the edit-session benchmark.
//!
//! ```text
//! editbench --workload <chain_rescore|chain_local|chain_grow|all> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` (particle-edits) and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--workload all` runs every workload in a process of
//! its own, so peak memory and process-global caches belong to one
//! workload, and fails if any workload fails its correctness check.

use std::process::{Command, ExitCode};

use editbench::{run, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: editbench --workload <chain_rescore|chain_local|chain_grow|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs every workload in a child process and relays its output.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        child_args[i + 1] = workload.name().to_string();
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("running {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !last.starts_with("{\"correct\": true") {
            all_correct = false;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("editbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&raw) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("editbench: a workload failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("editbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("editbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = run(&workload.spec(), args.seed, args.seconds, args.trace);
    print!("{}", result.render());
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
