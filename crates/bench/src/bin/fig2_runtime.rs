//! **Figure 2** — run time vs sent packets, uniform vs burst traffic. Prints the table, writes `results/fig2_runtime.csv` and
//! checks the paper's claims ([`nocem_bench::figure`]).

fn main() -> std::process::ExitCode {
    nocem_bench::figure::run(env!("CARGO_BIN_NAME"))
}
