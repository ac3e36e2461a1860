//! Helpers shared by the integration suites.

use std::path::PathBuf;

/// `tests/golden/`, where every fixture lives.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `tests/golden/quick_<name>.txt`.
pub fn fixture_path(name: &str) -> PathBuf {
    golden_dir().join(format!("quick_{name}.txt"))
}

/// Pins `rendered` byte-for-byte against the `quick_<name>` fixture, or
/// rewrites the fixture when `UPDATE_GOLDEN` is set. `regen` is the
/// cargo command (without the variable) that regenerates it.
pub fn assert_golden(name: &str, rendered: &str, regen: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with UPDATE_GOLDEN=1 {regen}",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name} artifact drifted against {}",
        path.display()
    );
}
