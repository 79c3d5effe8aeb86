//! `repro all`'s stdout is a function of the scale and seed alone: the
//! same bytes at every worker count, with no wall-clock line in them.

use std::process::Command;

/// The stdout of `repro all --scale 20000` under `JOUPPI_THREADS=threads`.
fn repro_all(threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "20000"])
        .env("JOUPPI_THREADS", threads)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro all with JOUPPI_THREADS={threads}: {out:?}"
    );
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

#[test]
fn repro_all_prints_the_same_report_at_every_worker_count() {
    let one = repro_all("1");
    assert!(one.contains("## ext-write-bandwidth"), "{one}");
    if let Some(line) = one.lines().find(|line| line.contains("took")) {
        panic!("a timing line on stdout: {line}");
    }
    let two = repro_all("2");
    if let Some((a, b)) = one.lines().zip(two.lines()).find(|(a, b)| a != b) {
        panic!("stdout differs between 1 and 2 workers:\n{a}\n{b}");
    }
    assert!(
        one == two,
        "stdout differs between 1 and 2 workers in length"
    );
}
