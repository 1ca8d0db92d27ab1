//! `stackbench` — see `benchmark/README.md`.

fn main() -> std::process::ExitCode {
    stackbench::cli::main(std::env::args().skip(1).collect())
}
