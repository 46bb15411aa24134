//! Command line of the benchmark. Run from the repo root:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload serve-uniform --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --selfcheck
//! ```
//!
//! The driver appends `--workload W --seed N --seconds S --trace 0|1` to
//! the command in `BENCHMARK.json` and reads the last line of standard
//! output.

use std::path::PathBuf;
use std::process::ExitCode;

use fib_benchmark::plan::Plan;
use fib_benchmark::registry::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use fib_benchmark::report::Outcome;
use fib_benchmark::{run_workload, trace};

const USAGE: &str = "usage: fib-benchmark (--workload NAME | --all | --selfcheck | --manifest)
       [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] [--trace-out FILE]

  --workload NAME   one of: serve-uniform serve-zipf-hot serve-compact
                    churn-inplace churn-spool vrf-fleet
  --all             the six workloads in sequence
  --selfcheck       --all twice; fails if any end-to-end metric of the second is
                    worse by more than its bound or any exact metric differs at all
  --manifest        print the text of BENCHMARK.json and exit
  --seed N          derives the key-ring and update-stream seeds (default 1)
  --seconds S       measuring time: six windows of S/6 (default 12; --quick 1.8)
  --trace 0|1       0: end-to-end metrics only (tracing off); 1: traced pass and
                    per-layer metrics only; absent: both
  --quick           taz 0.1 and 0.3 s windows, for smoke only; results are marked
  --out FILE        write the run as a JSON document (one line per workload)
  --trace-out FILE  write the traced pass's spans as JSON lines";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    manifest: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.05..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 0.05 and 60".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(name) = &args.workload {
        if registry::workload(name).is_none() {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.selfcheck)
        + usize::from(args.manifest);
    if modes != 1 {
        return Err("pick exactly one of --workload, --all, --selfcheck, --manifest".to_string());
    }
    Ok(args)
}

impl Args {
    fn plan(&self) -> Plan {
        let seconds = self.seconds.unwrap_or(if self.quick {
            1.8
        } else {
            f64::from(registry::RUN_SECONDS)
        });
        Plan::new(
            seconds,
            self.quick,
            self.trace != Some(true),
            self.trace != Some(false),
        )
    }
}

/// Runs the named workloads once, printing each one's table (unless the
/// driver asked for one table only) and its result line.
fn run_set(names: &[&str], args: &Args) -> Result<Vec<Outcome>, Box<dyn std::error::Error>> {
    let plan = args.plan();
    let mut document = String::new();
    let mut spans = Vec::new();
    let mut outcomes = Vec::new();
    for name in names {
        let outcome = run_workload(name, &plan, args.seed)?;
        if args.trace.is_none() {
            print!("{}", outcome.table(plan.end_to_end, plan.per_layer));
        }
        println!("{}", outcome.result_line(plan.end_to_end, plan.per_layer));
        document.push_str(&outcome.document(plan.end_to_end, plan.per_layer));
        spans.extend_from_slice(&outcome.spans);
        outcomes.push(outcome);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, document)?;
    }
    if let Some(path) = &args.trace_out {
        trace::write_jsonl(path, &spans)?;
    }
    Ok(outcomes)
}

/// `--all` twice: every end-to-end metric of the second set must be no
/// worse than the first by more than its bound, and every exact metric
/// must repeat bit for bit.
fn selfcheck(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let first = run_set(&names, args)?;
    let second = run_set(&names, args)?;
    let mut ok = true;
    println!("== selfcheck: two --all sets of this commit ==");
    println!(
        "{:<16} {:<30} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for (a, b) in first.iter().zip(&second) {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (x, y) = (a.get(def.name), b.get(def.name));
            let worse = match def.better {
                Better::Lower => (y - x) / x.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (x - y) / x.abs().max(f64::MIN_POSITIVE),
            };
            let verdict = if def.exact && x.to_bits() != y.to_bits() {
                "NOT EXACT"
            } else if def.bound.is_some_and(|bound| worse > bound) {
                "OUT OF BOUNDS"
            } else {
                ""
            };
            if def.bound.is_none() && verdict.is_empty() {
                continue;
            }
            ok &= verdict.is_empty();
            println!(
                "{:<16} {:<30} {:>16.6} {:>16.6} {:>9.2} {:>7} {}",
                a.workload,
                def.name,
                x,
                y,
                worse * 100.0,
                def.bound
                    .map_or("exact".to_string(), |b| format!("{:.0}", b * 100.0)),
                verdict
            );
        }
        ok &= a.failed == 0 && b.failed == 0;
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fib-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", registry::manifest_json());
        return ExitCode::SUCCESS;
    }
    let result = if args.selfcheck {
        selfcheck(&args)
    } else {
        let names: Vec<&str> = match &args.workload {
            Some(name) => vec![name.as_str()],
            None => WORKLOADS.iter().map(|w| w.name).collect(),
        };
        run_set(&names, &args).map(|outcomes| outcomes.iter().all(|o| o.failed == 0))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "fib-benchmark: FAILED (failed operations or a selfcheck out of bounds, see above)"
            );
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("fib-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
