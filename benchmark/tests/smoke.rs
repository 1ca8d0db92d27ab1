//! The package's end-to-end tests: the smoke mode (all four workloads,
//! both passes, kernels, verifier, emitted-metric self-check), the
//! manifest/catalogue agreement, and determinism per seed.

use stackbench::run::{end_to_end, RunSpec};
use stackbench::workloads::Workload;
use stackbench::{cli, manifest};

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let manifest = manifest::load().expect("BENCHMARK.json at the repository root");
    let problems = manifest::disagreements(&manifest);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn smoke_mode_passes() {
    cli::smoke().expect("smoke mode");
}

#[test]
fn simulated_figures_repeat_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let run = |seed| {
            let out = end_to_end(&RunSpec {
                workload,
                seed,
                seconds: 1.0,
                smoke: true,
            })
            .expect("run");
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            let sim: Vec<(&str, f64)> = out
                .metrics
                .into_iter()
                .filter(|(name, _)| {
                    !["rounds_per_s", "round_ms_p50", "setup_s", "peak_rss_mib"].contains(name)
                })
                .collect();
            (out.sim_fingerprint, sim)
        };
        let (a, b, other) = (run(1), run(1), run(2));
        assert_eq!(a, b, "{}: same seed, same simulation", workload.name());
        assert_ne!(
            a.0,
            other.0,
            "{}: another seed, another run",
            workload.name()
        );
    }
}
