//! `vsbench run --workload <hot-turns|cold-scan|refine> --seed N --seconds S
//! --trace 0|1 --program <viewseeker binary> --work <scratch dir>`
//!
//! Runs one workload and prints its operation counts and, as the last line
//! of standard output, one JSON result. `vsbench/run.py` builds the program
//! and this harness and calls it.

use std::path::PathBuf;

use viewseeker_vsbench::workloads::{run_http, run_refine, Env, Name, Spec};

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<(Name, Env), String> {
        let workload = arg(&args, "--workload").ok_or("--workload is required")?;
        let name = match workload.as_str() {
            "hot-turns" => Name::HotTurns,
            "cold-scan" => Name::ColdScan,
            "refine" => Name::Refine,
            other => return Err(format!("unknown workload {other:?}")),
        };
        let num = |flag: &str, default: u64| -> Result<u64, String> {
            arg(&args, flag).map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("bad {flag} {v:?}"))
            })
        };
        Ok((
            name,
            Env {
                program: PathBuf::from(arg(&args, "--program").ok_or("--program is required")?),
                work: PathBuf::from(arg(&args, "--work").ok_or("--work is required")?),
                seed: num("--seed", 1)?,
                seconds: num("--seconds", 10)?.max(1),
                trace: num("--trace", 0)? == 1,
            },
        ))
    })();
    let (name, env) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vsbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = Spec::of(name);
    let result = match name {
        Name::Refine => run_refine(&spec, &env),
        _ => run_http(&spec, &env),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("vsbench: {e}");
            std::process::exit(1);
        }
    }
}
