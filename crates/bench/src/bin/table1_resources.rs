//! **Table 1** — FPGA slices per device. Prints the table, writes `results/table1_resources.csv` and
//! checks the paper's claims ([`nocem_bench::figure`]).

fn main() -> std::process::ExitCode {
    nocem_bench::figure::run(env!("CARGO_BIN_NAME"))
}
