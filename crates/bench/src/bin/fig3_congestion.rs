//! **Figure 3** — hot-link congestion vs burst length. Prints the table, writes `results/fig3_congestion.csv` and
//! checks the paper's claims ([`nocem_bench::figure`]).

fn main() -> std::process::ExitCode {
    nocem_bench::figure::run(env!("CARGO_BIN_NAME"))
}
