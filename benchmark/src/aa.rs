//! Child runs and the A/A tool.
//!
//! Every workload runs in a process of its own, so `peak_rss_mib` is
//! per workload. `stackbench aa` runs interleaved sets of the *same*
//! binary (A B A B …) and holds them to the benchmark's own bounds: if
//! identical code cannot pass, neither can any later comparison.

use crate::catalogue::{Better, Kind, END_TO_END};
use crate::json::Json;
use crate::run::RunSpec;
use crate::stats::median;
use crate::workloads::Workload;
use std::process::{Command, Stdio};

/// What a child run reported.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
    pub sim_fingerprint: String,
    pub noisy: bool,
}

/// Runs one workload in a child process of this same binary, passing
/// its report through to our standard output.
///
/// # Errors
///
/// The child could not be started, exited without a result line, or
/// printed one that is not the contract's JSON.
pub fn child_run(spec: &RunSpec, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if spec.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before it returns.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", spec.workload.name()))?;
    let result = Json::parse(result)?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("run_info "))
        .map(Json::parse)
        .transpose()?
        .unwrap_or(Json::Null);
    let metrics = result
        .get("metrics")
        .map_or(&[][..], Json::members)
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        correct: out.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        metrics,
        sim_fingerprint: info
            .get("sim_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        noisy: info.get("noisy") == Some(&Json::Bool(true)),
    })
}

/// Runs all four workloads, one child each. Returns whether every one
/// was correct.
///
/// # Errors
///
/// As [`child_run`].
pub fn all_workloads(seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let spec = RunSpec {
            workload,
            seed,
            seconds,
            smoke: false,
        };
        ok &= child_run(&spec, trace)?.correct;
        println!();
    }
    Ok(ok)
}

/// `stackbench aa`: `sets` interleaved sets of `runs` untraced runs of
/// every workload. Passes when, per workload, every host metric's set
/// medians are within its bound of each other (either direction — the
/// sets are the same code) and every simulated metric and fingerprint
/// is identical across all runs.
///
/// # Errors
///
/// As [`child_run`].
pub fn aa(sets: usize, runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    // results[workload][set] = that set's runs.
    let mut results: Vec<Vec<Vec<ChildRun>>> = vec![vec![Vec::new(); sets]; Workload::ALL.len()];
    for run in 0..runs {
        for set in 0..sets {
            for (workload, by_set) in Workload::ALL.into_iter().zip(&mut results) {
                eprintln!(
                    "aa: run {} of set {} — {}",
                    run + 1,
                    set_name(set),
                    workload.name()
                );
                let spec = RunSpec {
                    workload,
                    seed,
                    seconds,
                    smoke: false,
                };
                by_set[set].push(child_run(&spec, false)?);
            }
        }
    }

    let mut pass = true;
    println!("\nA/A verdict ({sets} interleaved sets × {runs} runs, seed {seed}, {seconds} s)");
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B*", "diff", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let all_runs: Vec<&ChildRun> = results[w].iter().flatten().collect();
        for metric in &END_TO_END {
            let values = |runs: &[ChildRun]| -> Vec<f64> {
                runs.iter()
                    .flat_map(|r| r.metrics.iter())
                    .filter(|(n, _)| n == metric.name)
                    .map(|&(_, v)| v)
                    .collect()
            };
            let medians: Vec<f64> = results[w]
                .iter()
                .map(|set| median(&mut values(set)))
                .collect();
            // B* is the set furthest from A.
            let a = medians[0];
            let b = medians[1..]
                .iter()
                .copied()
                .max_by(|x, y| (x - a).abs().total_cmp(&(y - a).abs()))
                .unwrap_or(a);
            let diff = if a == 0.0 {
                0.0
            } else {
                (b - a).abs() / a.abs()
            };
            let ok = match metric.kind {
                Kind::Host => diff <= metric.bound,
                Kind::Sim => results[w].iter().all(|set| {
                    let v = values(set);
                    v.len() == runs && v.iter().all(|x| *x == a)
                }),
            };
            pass &= ok;
            println!(
                "{:<22} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>7}  {}",
                workload.name(),
                metric.name,
                a,
                b,
                diff * 100.0,
                match metric.kind {
                    Kind::Host => format!("{:.0}%", metric.bound * 100.0),
                    Kind::Sim => "exact".into(),
                },
                verdict(ok, metric.better)
            );
        }
        let fp = &all_runs[0].sim_fingerprint;
        let same = !fp.is_empty() && all_runs.iter().all(|r| &r.sim_fingerprint == fp);
        let correct = all_runs.iter().all(|r| r.correct);
        let noisy = all_runs.iter().filter(|r| r.noisy).count();
        pass &= same && correct;
        println!(
            "{:<22} sim_fingerprint {}; answers {}; {noisy} of {} runs marked noisy",
            workload.name(),
            if same { "identical" } else { "DIFFERS" },
            if correct { "all correct" } else { "WRONG" },
            all_runs.len()
        );
    }
    println!("A/A {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn set_name(set: usize) -> char {
    (b'A' + (set % 26) as u8) as char
}

fn verdict(ok: bool, better: Better) -> String {
    if ok {
        "ok".into()
    } else {
        format!("FAIL ({} is better)", better.as_str())
    }
}
