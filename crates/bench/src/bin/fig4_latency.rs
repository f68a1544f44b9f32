//! **Figure 4** — average latency vs packets per burst. Prints the table, writes `results/fig4_latency.csv` and
//! checks the paper's claims ([`nocem_bench::figure`]).

fn main() -> std::process::ExitCode {
    nocem_bench::figure::run(env!("CARGO_BIN_NAME"))
}
