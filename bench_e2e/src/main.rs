//! See the library docs and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(isasgd_bench_e2e::cli::main(&args));
}
