//! The check the body pins share: computed text against a committed
//! file in `crates/serve/tests/`.

/// Fails unless `actual` equals `pinned`, the committed text of
/// `crates/serve/tests/{file}`. On a difference it writes `actual` to
/// `target/tmp/{file}`, to diff against and copy over, and names the
/// first line that differs and the `cp` that accepts the new text.
pub fn check(file: &str, pinned: &str, actual: &str) {
    if actual == pinned {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, actual).expect("write the computed text");
    let (pinned, computed): (Vec<&str>, Vec<&str>) =
        (pinned.lines().collect(), actual.lines().collect());
    let differs = (0..pinned.len().max(computed.len())).find(|&i| pinned.get(i) != computed.get(i));
    let report = match differs {
        Some(i) => format!(
            "{file} line {}:\n  pinned: {}\n  actual: {}",
            i + 1,
            pinned.get(i).unwrap_or(&"(none)"),
            computed.get(i).unwrap_or(&"(none)")
        ),
        None => format!("{file} differs only in line endings"),
    };
    panic!(
        "{report}\nthe computed text is in {0}; to accept it, run\n  cp {0} crates/serve/tests/{file}",
        path.display()
    );
}
