//! A `--resume` checkpoint that passes the version and fingerprint
//! checks but is malformed inside must make `iris guided|campaign`
//! return an error — never panic, never run on with a silently
//! different result. Each test runs a command with `--checkpoint`,
//! corrupts one structural field of the file it wrote, and resumes.

use iris_cli::{run, CliError};
use iris_fuzzer::checkpoint::{CampaignCheckpoint, GuidedCheckpoint};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// Run `cmd --checkpoint F` to completion, rewrite the checkpoint in
/// F through `tamper` (keeping its version and fingerprint, so only
/// the structural check can catch it), then run `cmd --resume F`.
fn resume_tampered<T>(
    cmd: &str,
    tag: &str,
    load: impl FnOnce(&std::path::Path) -> T,
    tamper: impl FnOnce(&mut T),
    save: impl FnOnce(&T, &std::path::Path),
) -> Result<String, CliError> {
    let name = format!("iris-cli-tampered-{}-{tag}.json", std::process::id());
    let ckpt = std::env::temp_dir().join(name);
    std::fs::remove_file(&ckpt).ok();
    run(&args(&format!("{cmd} --checkpoint {}", ckpt.display()))).unwrap();
    let mut cp = load(&ckpt);
    tamper(&mut cp);
    save(&cp, &ckpt);
    let resumed = run(&args(&format!("{cmd} --resume {}", ckpt.display())));
    std::fs::remove_file(&ckpt).ok();
    resumed
}

fn resume_tampered_guided(
    tag: &str,
    tamper: impl FnOnce(&mut GuidedCheckpoint),
) -> Result<String, CliError> {
    resume_tampered(
        "guided os_boot --exits 150 --budget 300 --gen 64 --jobs 1",
        tag,
        |p| serde_json::from_slice(&std::fs::read(p).unwrap()).unwrap(),
        tamper,
        |cp: &GuidedCheckpoint, p| cp.save(p).unwrap(),
    )
}

fn resume_tampered_campaign(
    tag: &str,
    tamper: impl FnOnce(&mut CampaignCheckpoint),
) -> Result<String, CliError> {
    resume_tampered(
        "campaign os_boot --exits 120 --mutants 25 --jobs 1",
        tag,
        |p| serde_json::from_slice(&std::fs::read(p).unwrap()).unwrap(),
        tamper,
        |cp: &CampaignCheckpoint, p| cp.save(p).unwrap(),
    )
}

/// The resume failed with a structural `InvalidData` error whose
/// message contains `needle`.
fn assert_malformed(resumed: Result<String, CliError>, needle: &str) {
    match resumed {
        Err(CliError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        }
        other => panic!("a malformed checkpoint must be an error, got {other:?}"),
    }
}

#[test]
fn resume_rejects_a_guided_checkpoint_past_the_budget() {
    let resumed = resume_tampered_guided("guided-past-budget", |cp| cp.next_slot = 1_000_000);
    assert_malformed(resumed, "past the budget");
}

#[test]
fn resume_rejects_a_guided_checkpoint_off_a_generation_boundary() {
    let resumed = resume_tampered_guided("guided-off-barrier", |cp| cp.next_slot = 65);
    assert_malformed(resumed, "not a generation boundary");
}

#[test]
fn resume_rejects_a_guided_checkpoint_whose_lineage_misses_promotions() {
    let resumed = resume_tampered_guided("guided-short-lineage", |cp| {
        assert!(cp.lineage.pop().is_some(), "the run must promote");
    });
    assert_malformed(resumed, "does not match its promotions");
}

#[test]
fn resume_rejects_a_guided_lineage_naming_a_later_base() {
    let resumed = resume_tampered_guided("guided-later-base", |cp| {
        let first = cp.lineage.first_mut().expect("the run must promote");
        first.0 = 10_000;
    });
    assert_malformed(resumed, "earlier corpus entry");
}

#[test]
fn resume_rejects_a_campaign_checkpoint_folded_past_the_plan() {
    let resumed = resume_tampered_campaign("campaign-past-plan", |cp| cp.folded = 1_000);
    assert_malformed(resumed, "campaign checkpoint is malformed");
}

#[test]
fn resume_rejects_a_campaign_checkpoint_missing_folded_results() {
    let resumed = resume_tampered_campaign("campaign-missing-results", |cp| {
        assert!(cp.report.results.pop().is_some());
    });
    assert_malformed(resumed, "campaign checkpoint is malformed");
}

#[test]
fn resume_rejects_a_campaign_result_that_is_not_its_plan_test_case() {
    let resumed = resume_tampered_campaign("campaign-wrong-testcase", |cp| {
        cp.report.results[0].testcase.rng_seed ^= 1;
    });
    assert_malformed(resumed, "does not match the plan prefix");
}
