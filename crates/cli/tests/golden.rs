//! Golden report bytes: the committed `tests/golden/*.json` files are
//! the `--json` artifacts of the `jobs=1` reference runs of `iris
//! campaign` and `iris guided`, on both registered backends. Every
//! configuration that promises byte-identical reports — more workers,
//! finer chunks, a tight forest cap that keeps eviction hot — must
//! reproduce them exactly, so a refactor that drifts a reproduced
//! result fails here instead of passing silently.
//!
//! Re-blessing after a deliberate change to the report bytes is the
//! CLI command listed in `tests/golden/README.md`.

use std::path::PathBuf;

const CAMPAIGN: &str = "campaign os_boot --exits 150 --mutants 30";
const GUIDED: &str = "guided os_boot --exits 150 --budget 600";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Run `iris <cmd> <extra> --json <tmp>` in-process and return the
/// JSON artifact's bytes.
fn report_bytes(cmd: &str, extra: &str, tag: &str) -> String {
    let json = std::env::temp_dir().join(format!("iris-golden-{}-{tag}.json", std::process::id()));
    let line = format!("{cmd} {extra} --json {}", json.display());
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    iris_cli::run(&args).unwrap_or_else(|e| panic!("`iris {line}` failed: {e}"));
    let bytes = std::fs::read_to_string(&json).expect("the run wrote its --json artifact");
    std::fs::remove_file(&json).ok();
    bytes
}

/// Byte-compare every `(extra flags)` arm against `golden`.
fn assert_matches_golden(cmd: &str, golden: &str, arms: &[&str]) {
    let path = golden_dir().join(golden);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    for (i, extra) in arms.iter().enumerate() {
        let got = report_bytes(cmd, extra, &format!("{golden}-{i}"));
        assert!(
            got == expected,
            "`iris {cmd} {extra} --json` drifted from {golden} \
             (tests/golden/README.md says how to re-bless a deliberate change)"
        );
    }
}

#[test]
fn campaign_goldens_match_across_jobs_chunks_and_forest() {
    for (target, golden) in [
        ("iris", "campaign_os_boot.json"),
        ("faulty", "campaign_os_boot_faulty.json"),
    ] {
        assert_matches_golden(
            CAMPAIGN,
            golden,
            &[
                &format!("--target {target} --jobs 1"),
                &format!("--target {target} --jobs 2 --chunk 7"),
                &format!("--target {target} --jobs 2 --forest-cap 2"),
            ],
        );
    }
}

#[test]
fn guided_goldens_match_across_jobs_and_forest() {
    for (target, golden) in [
        ("iris", "guided_os_boot.json"),
        ("faulty", "guided_os_boot_faulty.json"),
    ] {
        assert_matches_golden(
            GUIDED,
            golden,
            &[
                &format!("--target {target} --jobs 1"),
                &format!("--target {target} --jobs 2"),
                &format!("--target {target} --jobs 2 --forest-cap 2"),
            ],
        );
    }
}
