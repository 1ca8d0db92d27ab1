//! Command line, report printing and the smoke mode.

use crate::aa;
use crate::catalogue::{unit_of, Kind, END_TO_END};
use crate::json::{num, obj, s, Json};
use crate::manifest::{self, package_dir};
use crate::meter::Span;
use crate::run::{self, RunOutput, RunSpec};
use crate::workloads::{nproc, workers, Workload};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: stackbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       stackbench run   [--seed N] [--seconds S]     all four workloads, untraced
       stackbench trace [--seed N] [--seconds S]     all four workloads, traced
       stackbench aa    [--sets 2] [--runs 3] [--seed N] [--seconds S]
       stackbench --smoke
workloads: wave_1e5 adhoc_mix_1e4 fleet_standing_1e4 provenance_lossy_1e4";

#[derive(Debug)]
struct Options {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        command: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 3,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => opts.seed = number(&arg, value("a number")?)?,
            "--seconds" => {
                opts.seconds = number(&arg, value("a number")?)?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: 0 or 1, not {other:?}")),
                }
            }
            "--sets" => opts.sets = number::<usize>(&arg, value("a number")?)?.max(2),
            "--runs" => opts.runs = number::<usize>(&arg, value("a number")?)?.max(1),
            "--smoke" => opts.smoke = true,
            "run" | "trace" | "aa" if opts.command.is_none() => opts.command = Some(arg),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(opts)
}

/// Entry point of the `stackbench` binary.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = parse(args).and_then(|opts| match (opts.command.as_deref(), opts.workload) {
        (Some("aa"), _) => aa::aa(opts.sets, opts.runs, opts.seed, opts.seconds),
        (Some(all), _) => aa::all_workloads(opts.seed, opts.seconds, all == "trace"),
        (None, Some(workload)) => single(
            &RunSpec {
                workload,
                seed: opts.seed,
                seconds: if opts.smoke { 1.0 } else { opts.seconds },
                smoke: opts.smoke,
            },
            opts.trace,
        )
        .map(|out| out.failed == 0),
        (None, None) if opts.smoke => smoke().map(|()| true),
        (None, None) => Err(USAGE.into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("stackbench: {why}");
            ExitCode::from(2)
        }
    }
}

/// The commit the checkout is at, read from `.git` without starting a
/// process; `unknown` where there is no repository (the driver's
/// checkouts are plain directories).
fn git_sha() -> String {
    let git = package_dir().join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in this process and prints its report: a line per
/// metric, the provenance line, then the contract's result line.
fn single(spec: &RunSpec, trace: bool) -> Result<RunOutput, String> {
    let mut spans = Vec::new();
    let out = if trace {
        run::traced(spec, &mut spans)?
    } else {
        run::end_to_end(spec)?
    };

    let info = obj([
        ("workload", s(spec.workload.name())),
        ("seed", num(spec.seed as f64)),
        ("seconds", num(spec.seconds)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(spec.smoke)),
        (
            "sim_fingerprint",
            s(format!("{:016x}", out.sim_fingerprint)),
        ),
        ("git_sha", s(git_sha())),
        ("nproc", num(nproc() as f64)),
        ("workers", num(workers() as f64)),
        ("rustc", s(env!("STACKBENCH_RUSTC"))),
        (
            "profile",
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("counts", out.info.clone()),
    ]);
    if trace {
        write_trace(spec, &info, &spans)?;
    }

    println!(
        "# stackbench {} seed={} seconds={} trace={}",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(trace)
    );
    for (name, value) in &out.metrics {
        let kind = END_TO_END.iter().find(|m| m.name == *name).map(|m| m.kind);
        println!(
            "{name:<52} {value:>18.6} {:<7}{}",
            unit_of(name).unwrap_or("?"),
            match kind {
                Some(Kind::Host) => " host",
                Some(Kind::Sim) => " sim",
                None => "",
            }
        );
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("run_info {}", info.render());

    let metrics = out.metrics.iter().map(|&(name, value)| {
        (
            name,
            obj([
                ("value", num(value)),
                ("unit", s(unit_of(name).unwrap_or("?"))),
            ]),
        )
    });
    let result = obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", num(out.attempted.max(1) as f64)),
        ("failed", num(out.failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(out)
}

/// Writes the traced pass's spans to `benchmark/out/trace_<workload>.json`.
fn write_trace(spec: &RunSpec, info: &Json, spans: &[Span]) -> Result<(), String> {
    let dir = package_dir().join("out");
    let path = dir.join(format!("trace_{}.json", spec.workload.name()));
    let doc = obj([
        ("run_info", info.clone()),
        (
            "spans",
            Json::Arr(spans.iter().map(Span::to_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut file| {
            file.write_all(doc.render().as_bytes())?;
            file.write_all(b"\n")
        })
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--smoke`: every workload at N = 1024 for a few rounds — untraced
/// pass, traced pass, kernels and verifier — and a self-check that
/// each pass emitted exactly the metrics `BENCHMARK.json` declares.
pub fn smoke() -> Result<(), String> {
    let manifest = manifest::load()?;
    let problems = manifest::disagreements(&manifest);
    if !problems.is_empty() {
        return Err(format!(
            "BENCHMARK.json and the code disagree:\n{}",
            problems.join("\n")
        ));
    }
    for workload in Workload::ALL {
        let spec = RunSpec {
            workload,
            seed: 1,
            seconds: 1.0,
            smoke: true,
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = single(&spec, trace)?;
            manifest::check_emitted(&manifest, key, &out.metrics)?;
            if out.failed > 0 {
                return Err(format!("{} gave wrong answers", workload.name()));
            }
            if out.metrics.iter().any(|(_, v)| !v.is_finite()) {
                return Err(format!("{} emitted a non-finite value", workload.name()));
            }
        }
    }
    println!("smoke ok: 4 workloads × (end-to-end, traced) emitted every declared metric once");
    Ok(())
}
