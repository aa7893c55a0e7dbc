//! The workspace builds from this repository alone (DESIGN.md §6): every
//! package in both lock files — the root workspace's and the benchmark's
//! own workspace's — is a path dependency. A `source =` entry would mean a
//! registry or git dependency crept in.

use std::path::Path;

#[test]
fn lock_files_name_no_external_source() {
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(lock);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(
            text.contains("[[package]]"),
            "{lock} lists no packages — not a lock file?"
        );
        let external: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("source ="))
            .collect();
        assert!(
            external.is_empty(),
            "{lock} names external sources: {external:?}"
        );
    }
}
