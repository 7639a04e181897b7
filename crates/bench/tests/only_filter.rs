//! `neummu_experiments --only` argument validation: an id that matches no
//! experiment family must fail loudly instead of writing zero artifacts; and
//! `--list` prints exactly the ids `--only` accepts.

use std::process::Command;

/// Runs the experiments binary with `--only <list>` (quick scale, into a
/// throwaway directory) and returns its exit status and stderr.
fn run_only(list: &str, tag: &str) -> (bool, String, std::path::PathBuf) {
    let out = std::env::temp_dir().join(format!("neummu_only_{tag}_{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_experiments"))
        .args(["--quick", "--threads", "1", "--only", list, "--out"])
        .arg(&out)
        .output()
        .expect("spawn neummu_experiments");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        out,
    )
}

#[test]
fn unknown_only_id_exits_nonzero_and_names_the_id() {
    for (list, bad) in [("bogus", "bogus"), ("table1,fig99", "fig99")] {
        let (ok, stderr, out) = run_only(list, bad);
        assert!(!ok, "`--only {list}` should fail but exited 0");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(&format!("`{bad}`")),
            "error must name the unknown id `{bad}`: {stderr}"
        );
        assert!(
            !out.exists(),
            "`--only {list}` must fail before writing anything"
        );
    }
}

#[test]
fn known_only_id_still_runs_its_family() {
    let (ok, stderr, out) = run_only("table1", "table1");
    assert!(ok, "`--only table1` failed: {stderr}");
    let written = std::fs::read_dir(&out).expect("artifact dir").count();
    assert!(written > 0, "`--only table1` wrote no artifacts");
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn list_prints_exactly_the_ids_only_accepts() {
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_experiments"))
        .arg("--list")
        .output()
        .expect("spawn neummu_experiments");
    assert!(output.status.success(), "`--list` exited nonzero");
    let listed: Vec<String> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    // The rejection of an unknown id names every id `--only` accepts.
    let (ok, stderr, _) = run_only("bogus", "list");
    assert!(!ok);
    let known: Vec<String> = stderr
        .split("(known: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("the error lists the known ids")
        .split(", ")
        .map(str::to_string)
        .collect();
    assert_eq!(listed, known);
    assert!(listed.iter().any(|id| id == "resilience"));
}
