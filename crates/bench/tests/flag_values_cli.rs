//! A bench bin refuses an argument it does not name, and a value-taking
//! flag that has no value, is followed by another `--flag`, or has a value
//! that does not parse: it exits 1 naming the flag, before any work and
//! without writing a file, instead of running its default.

use std::process::Command;

#[test]
fn unknown_flags_and_bad_flag_values_are_usage_errors() {
    let (campaign, fig10) = (env!("CARGO_BIN_EXE_campaign"), env!("CARGO_BIN_EXE_fig10"));
    let analysis = env!("CARGO_BIN_EXE_analysis");
    let cases: [(&str, &[&str], &str); 8] = [
        (campaign, &["--stride=abc"], "`--stride`"),
        (campaign, &["--k=x"], "`--k`"),
        (campaign, &["--json", "--stride", "97"], "`--json`"),
        (campaign, &["--strid=97"], "unknown argument `--strid`"),
        (campaign, &["--basline"], "unknown argument `--basline`"),
        (fig10, &["--bogus"], "unknown argument `--bogus`"),
        (fig10, &["--scale", "tiny"], "unknown argument `--scale`"),
        (analysis, &["--stride", "3"], "unknown argument `--stride`"),
    ];
    for (i, (bin, args, flag)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("talft-flags-{}-{i}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bin runs");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("list scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work: {out:?}");
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
