//! Table I: applications used for effectiveness evaluation.

use csod_bench::{header, row};
use workloads::BuggyApp;

fn main() {
    header("Table I: Applications used for effectiveness evaluation");
    let widths = [18, 10, 16];
    println!(
        "{}",
        row(
            &[
                "Application".into(),
                "Vulnerability".into(),
                "Reference".into()
            ],
            &widths
        )
    );
    for app in BuggyApp::all() {
        println!(
            "{}",
            row(
                &[
                    app.name.into(),
                    app.vulnerability.to_string(),
                    app.reference.into()
                ],
                &widths
            )
        );
    }
}
