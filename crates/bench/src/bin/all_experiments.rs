//! Runs every experiment harness in sequence — the one-command
//! regeneration of the paper's full evaluation. `--runs N` is forwarded
//! to the statistical harnesses (default 200 here; use 1000 for the
//! paper's exact protocol).

use std::process::Command;

fn main() {
    let runs = csod_bench::runs_arg(200).to_string();
    let me = std::env::current_exe().expect("current exe path");
    let bindir = me.parent().expect("bin dir");
    let with_runs = [
        "table2",
        "evidence",
        "ablation_sampling",
        "ablation_registers",
        "baselines",
    ];
    let bins = [
        "table1",
        "table2",
        "table3",
        "fig6",
        "evidence",
        "fig7",
        "table4",
        "table5",
        "baselines",
        "limitations",
        "ablation_sampling",
        "ablation_keys",
        "ablation_backend",
        "ablation_registers",
    ];
    for bin in bins {
        let path = bindir.join(bin);
        let mut cmd = Command::new(&path);
        if with_runs.contains(&bin) {
            cmd.args(["--runs", &runs]);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to run {bin} ({}): {e}", path.display()));
        assert!(status.success(), "{bin} exited with {status}");
    }
    println!("\nall experiments completed; see EXPERIMENTS.md for the paper comparison");
}
