//! `BENCHMARK.json` at the repository root declares the benchmark to
//! its driver; this module reads it back so the package can check
//! that what it declares is what the code emits.

use crate::catalogue::{unit_of, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};

/// The package directory (`benchmark/`), fixed when it was built: the
/// benchmark is always built in the checkout it runs in.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn manifest_path() -> PathBuf {
    package_dir().join("../BENCHMARK.json")
}

/// Parses `BENCHMARK.json`.
///
/// # Errors
///
/// The file is missing or is not JSON.
pub fn load() -> Result<Json, String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Everything in which the manifest and the code's own catalogue
/// disagree: workload names, metric names, units, directions, bounds.
pub fn disagreements(manifest: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let list = |key: &str| manifest.get(key).map_or(&[][..], Json::as_array);

    let declared: Vec<&str> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared != ours {
        problems.push(format!("workloads: manifest {declared:?}, code {ours:?}"));
    }

    let e2e = list("end_to_end");
    if e2e.len() != END_TO_END.len() {
        problems.push(format!(
            "end_to_end: manifest has {}, code {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    for (entry, ours) in e2e.iter().zip(&END_TO_END) {
        let bound = entry.get("bound").and_then(Json::as_f64);
        if (
            field(entry, "name"),
            field(entry, "unit"),
            field(entry, "better"),
        ) != (ours.name, ours.unit, ours.better.as_str())
            || bound != Some(ours.bound)
        {
            problems.push(format!(
                "end_to_end: manifest {}, code {ours:?}",
                entry.render()
            ));
        }
    }

    let layers = list("per_layer");
    if layers.len() != PER_LAYER.len() {
        problems.push(format!(
            "per_layer: manifest has {}, code {}",
            layers.len(),
            PER_LAYER.len()
        ));
    }
    for (entry, ours) in layers.iter().zip(&PER_LAYER) {
        if (
            field(entry, "name"),
            field(entry, "unit"),
            field(entry, "better"),
        ) != (ours.name, ours.unit, ours.better.as_str())
        {
            problems.push(format!(
                "per_layer: manifest {}, code {ours:?}",
                entry.render()
            ));
        }
    }
    problems
}

/// Checks that a run emitted every metric the manifest declares under
/// `key` (`end_to_end` or `per_layer`) exactly once, nothing else, and
/// that each name's unit in the code is the declared one.
///
/// # Errors
///
/// The first name that is missing, repeated, undeclared or mis-united.
pub fn check_emitted(manifest: &Json, key: &str, emitted: &[(&str, f64)]) -> Result<(), String> {
    let declared = manifest.get(key).map_or(&[][..], Json::as_array);
    for entry in declared {
        let name = field(entry, "name");
        let times = emitted.iter().filter(|(n, _)| *n == name).count();
        if times != 1 {
            return Err(format!("{key} metric {name} was emitted {times} times"));
        }
        if unit_of(name) != Some(field(entry, "unit")) {
            return Err(format!("{key} metric {name} has the wrong unit"));
        }
    }
    match emitted
        .iter()
        .find(|(n, _)| declared.iter().all(|d| field(d, "name") != *n))
    {
        Some((name, _)) => Err(format!(
            "{name} was emitted but is not declared under {key}"
        )),
        None => Ok(()),
    }
}
