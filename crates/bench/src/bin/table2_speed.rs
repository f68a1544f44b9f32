//! **Table 2** — engine speeds in on-CPU time. Prints the table, writes `results/table2_speed.csv` and
//! checks the paper's claims ([`nocem_bench::figure`]).

fn main() -> std::process::ExitCode {
    nocem_bench::figure::run(env!("CARGO_BIN_NAME"))
}
