//! `atc-benchmark`: see `README.md` and `atc_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(atc_benchmark::cli::main(&args));
}
