//! The tooling guard: the benchmark measures only a release build of
//! itself and a `pobp` binary built from the tree as it is now.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Where results, traces and scratch state go, relative to the
/// repository root.
pub const OUT_DIR: &str = ".bench_run";

/// What the `pobp` binary is built from.
const SOURCES: [&str; 5] = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"];

/// Refuses a debug build, a missing `pobp` binary, or one older than any
/// file it is built from. Returns the binary's path.
pub fn check() -> Result<PathBuf, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build of perfbench; build it with --release (run.sh does)".into(),
        );
    }
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the repository root: no Cargo.toml and crates/ here".into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let pobp = target.join("release").join("pobp");
    let built = mtime(&pobp).map_err(|e| {
        format!(
            "{}: {e}; build it with `cargo build --release --bin pobp`",
            pobp.display()
        )
    })?;
    if let Some((newest, path)) = newest_source(Path::new("."), &SOURCES) {
        if newest > built {
            return Err(format!(
                "{} is stale: {} changed after it was built; rebuild with `cargo build --release --bin pobp`",
                pobp.display(),
                path.display()
            ));
        }
    }
    Ok(pobp)
}

fn mtime(path: &Path) -> std::io::Result<SystemTime> {
    std::fs::metadata(path)?.modified()
}

/// The most recently modified file under `root/<each of names>`.
fn newest_source(root: &Path, names: &[&str]) -> Option<(SystemTime, PathBuf)> {
    let mut stack: Vec<PathBuf> = names.iter().map(|n| root.join(n)).collect();
    let mut newest: Option<(SystemTime, PathBuf)> = None;
    while let Some(path) = stack.pop() {
        let Ok(meta) = std::fs::symlink_metadata(&path) else {
            continue;
        };
        if meta.is_dir() {
            if let Ok(entries) = std::fs::read_dir(&path) {
                stack.extend(entries.filter_map(|e| e.ok()).map(|e| e.path()));
            }
        } else if let Ok(t) = meta.modified() {
            if newest.as_ref().is_none_or(|(n, _)| t > *n) {
                newest = Some((t, path));
            }
        }
    }
    newest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_newest_source_file_is_found() {
        let root = std::env::temp_dir().join(format!("perfbench-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src/deep")).unwrap();
        std::fs::write(root.join("src/a.rs"), "a").unwrap();
        let binary = root.join("pobp");
        std::fs::write(&binary, "bin").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(root.join("src/deep/b.rs"), "b").unwrap();
        let (t, path) = newest_source(&root, &["src", "missing"]).unwrap();
        assert_eq!(path, root.join("src/deep/b.rs"));
        assert!(
            t > mtime(&binary).unwrap(),
            "an edit after the build makes the binary stale"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
