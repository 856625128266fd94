//! The law-grounded rules and the allowlist mechanism.
//!
//! Each rule machine-checks one of the workspace's determinism /
//! safety laws (see `ANALYSIS.md` at the repository root for the law →
//! rule mapping and the allowlist policy). Rules are scoped per file
//! by [`scoped_rules`]; a violation on a specific line can be waived
//! with an allowlist comment **carrying a mandatory reason**:
//!
//! ```text
//! // lint:allow(<rule-id>) -- why this site is exempt
//! ```
//!
//! (An angle-bracketed `<rule-id>` is a documentation placeholder and
//! is ignored by the parser, so this very file lints clean.)
//!
//! placed either at the end of the offending line or on a
//! comment-only line directly above it. A malformed allow (unknown
//! rule, missing ` -- reason`) and an allow that suppresses nothing
//! are themselves diagnostics (`lint-allow`), so waivers cannot rot
//! silently.

use crate::report::Diagnostic;
use crate::scan::{has_token, index_expr_col, LineInfo};

/// The machine-checked rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Law 1: no ambient nondeterminism (wall clocks, OS entropy) in
    /// the deterministic core.
    AmbientNondeterminism,
    /// Law 2: all fuzzer randomness flows through
    /// `mutation::mutant_rng` — no other RNG construction.
    RngLaw,
    /// Law 3: no iteration-order-nondeterministic containers in
    /// aggregation / merge modules.
    UnorderedMerge,
    /// Law 4: every `unsafe` carries a `SAFETY:` comment (the
    /// crate-level `#![forbid(unsafe_code)]` half is checked by the
    /// workspace driver).
    UnsafeAudit,
    /// Law 5: panic paths in executor/slot/range code burn the
    /// restart budget and must be explicitly waived.
    PanicPath,
    /// Law 6: slot/range execution resets its target unconditionally —
    /// the PR-5 bug class (reset only on crash) made slot outcomes
    /// partition-dependent.
    SlotResetLaw,
}

impl Rule {
    /// Every rule, in severity-stable report order.
    pub const ALL: [Rule; 6] = [
        Rule::AmbientNondeterminism,
        Rule::RngLaw,
        Rule::UnorderedMerge,
        Rule::UnsafeAudit,
        Rule::PanicPath,
        Rule::SlotResetLaw,
    ];

    /// The stable diagnostic / allowlist identifier.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::AmbientNondeterminism => "no-ambient-nondeterminism",
            Rule::RngLaw => "rng-law",
            Rule::UnorderedMerge => "no-unordered-merge",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::PanicPath => "panic-path-audit",
            Rule::SlotResetLaw => "slot-reset-law",
        }
    }

    /// Parse an allowlist identifier back into a rule.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

/// Diagnostic id for problems with the allowlist comments themselves.
pub const ALLOW_RULE_ID: &str = "lint-allow";

/// The deterministic core: modules whose outputs must be a pure
/// function of their inputs for the jobs × chunk byte-identity
/// guarantee to hold.
const DET_CORE_FILES: [&str; 7] = [
    "crates/fuzzer/src/campaign.rs",
    "crates/fuzzer/src/guided.rs",
    "crates/fuzzer/src/executor.rs",
    "crates/fuzzer/src/mutation.rs",
    "crates/fuzzer/src/strategies.rs",
    "crates/fuzzer/src/parallel.rs",
    "crates/fuzzer/src/checkpoint.rs",
];

/// Aggregation / merge modules: anywhere worker outputs are folded
/// into a report, iteration order is part of the byte-identity law.
const MERGE_FILES: [&str; 15] = [
    "crates/fuzzer/src/parallel.rs",
    "crates/fuzzer/src/executor.rs",
    "crates/fuzzer/src/guided.rs",
    "crates/fuzzer/src/campaign.rs",
    "crates/fuzzer/src/checkpoint.rs",
    "crates/fuzzer/src/corpus.rs",
    "crates/fuzzer/src/failure.rs",
    "crates/hv/src/coverage.rs",
    // The distributed coordinator folds worker results arriving in
    // arbitrary network order; its fold and lease bookkeeping carry the
    // same ordered-iteration obligation as the in-process merge.
    "crates/dist/src/coordinator.rs",
    "crates/dist/src/lease.rs",
    // Workers execute the ranges the fold consumes, the client relays
    // the folded report, and the chaos proxy sits on the wire between
    // them — unordered iteration in any of these can scramble what
    // reaches the merge.
    "crates/dist/src/worker.rs",
    "crates/dist/src/client.rs",
    "crates/dist/src/chaos.rs",
    // The snapshot forest merges evicted nodes into their children and
    // the dirty tracker folds page sets into deltas — both iterate maps
    // whose order reaches restored state, so the byte-identity law
    // applies exactly as it does to report merges.
    "crates/core/src/forest.rs",
    "crates/hv/src/mm.rs",
];

/// Executor worker closures and slot/range run functions: the modules
/// where a panic silently burns the worker-restart budget.
const PANIC_SCOPE_FILES: [&str; 14] = [
    "crates/fuzzer/src/executor.rs",
    "crates/fuzzer/src/guided.rs",
    "crates/fuzzer/src/campaign.rs",
    "crates/fuzzer/src/parallel.rs",
    "crates/fuzzer/src/checkpoint.rs",
    // A panic in the coordinator's fold/lease path poisons the daemon's
    // shared state and strands every connected worker — malformed
    // remote input must surface as typed protocol errors instead.
    "crates/dist/src/coordinator.rs",
    "crates/dist/src/lease.rs",
    // Hostile bytes reach the worker and client loops straight off the
    // network, and the chaos proxy's relay handles deliberately mangled
    // streams — all three must turn bad input into typed errors, never
    // panics.
    "crates/dist/src/worker.rs",
    "crates/dist/src/client.rs",
    "crates/dist/src/chaos.rs",
    // Every lease's compute and every adjudicating re-execution runs
    // through `execute_range`: a panic there kills a worker or the
    // coordinator's handler on a range it was asked to verify.
    "crates/dist/src/verify.rs",
    // Forest restores and page-level dirty tracking run inside every
    // worker's reset path: an index panic there burns the restart
    // budget on every mutant that reuses the poisoned node.
    "crates/core/src/forest.rs",
    "crates/hv/src/mm.rs",
    // EPT lookups run on every EPT exit and in every restore's
    // equality walk: a panic there poisons every mutant of the cell.
    "crates/vtx/src/ept.rs",
];

/// Slot/range execution modules for the unconditional-reset law.
const RESET_SCOPE_FILES: [&str; 2] = [
    "crates/fuzzer/src/guided.rs",
    "crates/fuzzer/src/executor.rs",
];

/// Which rules apply to a workspace-relative path (forward slashes).
#[must_use]
pub fn scoped_rules(rel: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    if DET_CORE_FILES.contains(&rel)
        || rel.starts_with("crates/hv/src/")
        || rel.starts_with("crates/core/src/")
    {
        rules.push(Rule::AmbientNondeterminism);
    }
    if rel.starts_with("crates/fuzzer/src/") {
        rules.push(Rule::RngLaw);
    }
    if MERGE_FILES.contains(&rel) {
        rules.push(Rule::UnorderedMerge);
    }
    // The SAFETY-comment audit applies to every Rust source in the
    // workspace, vendored crates included.
    rules.push(Rule::UnsafeAudit);
    if PANIC_SCOPE_FILES.contains(&rel) {
        rules.push(Rule::PanicPath);
    }
    if RESET_SCOPE_FILES.contains(&rel) {
        rules.push(Rule::SlotResetLaw);
    }
    rules
}

/// Ambient-nondeterminism entry points. `Date`-like APIs are listed
/// even though `chrono` is not vendored — the rule is about the law,
/// not the current dependency set.
const AMBIENT_TOKENS: [&str; 7] = [
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "Utc::now",
    "Local::now",
    "OsRng",
];

/// RNG construction surfaces (beyond the ambient ones above).
const RNG_CONSTRUCT_TOKENS: [&str; 5] = [
    "seed_from_u64(",
    "from_seed(",
    "from_rng(",
    "from_entropy(",
    "SeedableRng::",
];

/// Unordered-container types.
const UNORDERED_TOKENS: [&str; 4] = ["HashMap", "HashSet", "hash_map", "hash_set"];

/// Panic-family call surfaces.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// One parsed allowlist comment.
#[derive(Debug)]
struct Allow {
    /// 0-based line the comment sits on.
    comment_line: usize,
    /// 0-based line whose findings it suppresses (same line for
    /// trailing comments, next code line for comment-only lines).
    target_line: Option<usize>,
    rule: Option<Rule>,
    /// Parse error, if the annotation is malformed.
    error: Option<String>,
    used: bool,
}

/// Extract every `lint:allow` annotation from the scanned lines.
fn collect_allows(lines: &[LineInfo]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut from = 0;
        // Only the marker immediately followed by an open paren is an
        // annotation attempt; prose that merely mentions lint:allow
        // is not.
        while let Some(pos) = line.comment[from..].find("lint:allow(") {
            let at = from + pos;
            let rest = &line.comment[at + "lint:allow".len()..];
            from = at + 1;
            // `lint:allow(<…>)` is a documentation placeholder (as in
            // the module docs above), not a live annotation.
            if rest.trim_start().starts_with("(<") {
                continue;
            }
            let (rule, error) = parse_allow_body(rest);
            let target_line = if line.code.trim().is_empty() {
                lines[idx + 1..]
                    .iter()
                    .position(|l| !l.code.trim().is_empty())
                    .map(|off| idx + 1 + off)
            } else {
                Some(idx)
            };
            allows.push(Allow {
                comment_line: idx,
                target_line,
                rule,
                error,
                used: false,
            });
        }
    }
    allows
}

/// Parse the `(<rule-id>) -- <reason>` tail of an allow annotation.
fn parse_allow_body(rest: &str) -> (Option<Rule>, Option<String>) {
    let Some(open) = rest.find('(') else {
        return (None, Some("missing `(<rule-id>)`".into()));
    };
    if rest[..open].trim() != "" {
        return (None, Some("missing `(<rule-id>)`".into()));
    }
    let Some(close) = rest.find(')') else {
        return (None, Some("unterminated `(<rule-id>)`".into()));
    };
    let id = rest[open + 1..close].trim();
    let Some(rule) = Rule::from_id(id) else {
        return (None, Some(format!("unknown rule `{id}`")));
    };
    let tail = &rest[close + 1..];
    let Some(dashes) = tail.find("--") else {
        return (
            Some(rule),
            Some("missing mandatory reason (` -- <reason>`)".into()),
        );
    };
    if tail[dashes + 2..].trim().is_empty() {
        return (
            Some(rule),
            Some("missing mandatory reason (` -- <reason>`)".into()),
        );
    }
    (Some(rule), None)
}

/// Does line `idx` carry (or sit under) a `SAFETY:` comment?
fn has_safety_comment(lines: &[LineInfo], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY") {
        return true;
    }
    // Walk up through contiguous comment-only / blank-with-comment
    // lines directly above.
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if !lines[j].code.trim().is_empty() {
            return false;
        }
        if lines[j].comment.contains("SAFETY") {
            return true;
        }
        if lines[j].comment.is_empty() {
            return false;
        }
    }
    false
}

/// Run `rules` over scanned `lines` of the file `rel`, applying and
/// policing allowlist annotations. Lines are reported 1-based.
#[must_use]
pub fn lint_lines(rel: &str, lines: &[LineInfo], rules: &[Rule]) -> Vec<Diagnostic> {
    let mut allows = collect_allows(lines);
    let mut diags = Vec::new();

    let mut emit = |allows: &mut Vec<Allow>, line_idx: usize, rule: Rule, message: String| {
        for a in allows.iter_mut() {
            if a.error.is_none() && a.rule == Some(rule) && a.target_line == Some(line_idx) {
                a.used = true;
                return;
            }
        }
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: line_idx + 1,
            rule: rule.id().to_string(),
            message,
        });
    };

    let in_mutant_rng = |line: &LineInfo| {
        rel.ends_with("src/mutation.rs") && line.fns.iter().any(|f| f == "mutant_rng")
    };

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        let is_use = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");

        for &rule in rules {
            match rule {
                Rule::AmbientNondeterminism => {
                    for pat in AMBIENT_TOKENS {
                        if has_token(code, pat) {
                            emit(
                                &mut allows,
                                idx,
                                rule,
                                format!(
                                    "`{pat}` is ambient nondeterminism; the deterministic core \
                                     must derive all entropy and time from its inputs"
                                ),
                            );
                        }
                    }
                }
                Rule::RngLaw => {
                    if line.in_test || is_use || in_mutant_rng(line) {
                        continue;
                    }
                    for pat in RNG_CONSTRUCT_TOKENS {
                        if has_token(code, pat) {
                            emit(
                                &mut allows,
                                idx,
                                rule,
                                format!(
                                    "RNG construction (`{pat}`) outside `mutation::mutant_rng`; \
                                     all fuzzer randomness must flow through the per-index RNG law"
                                ),
                            );
                        }
                    }
                }
                Rule::UnorderedMerge => {
                    if line.in_test {
                        continue;
                    }
                    for pat in UNORDERED_TOKENS {
                        if has_token(code, pat) {
                            emit(
                                &mut allows,
                                idx,
                                rule,
                                format!(
                                    "`{pat}` in an aggregation/merge module: iteration order is \
                                     nondeterministic; use BTreeMap/BTreeSet or index-ordered vecs"
                                ),
                            );
                        }
                    }
                }
                Rule::UnsafeAudit => {
                    if line.has_unsafe && !has_safety_comment(lines, idx) {
                        emit(
                            &mut allows,
                            idx,
                            rule,
                            "`unsafe` without a `// SAFETY:` comment on or directly above the line"
                                .to_string(),
                        );
                    }
                }
                Rule::PanicPath => {
                    if line.in_test {
                        continue;
                    }
                    for pat in PANIC_TOKENS {
                        if has_token(code, pat) {
                            emit(
                                &mut allows,
                                idx,
                                rule,
                                format!(
                                    "`{pat}` on an executor/slot/range path: a panic here burns \
                                     the worker-restart budget; handle the error or allowlist \
                                     with a reason"
                                ),
                            );
                        }
                    }
                    if index_expr_col(code).is_some() {
                        emit(
                            &mut allows,
                            idx,
                            rule,
                            "indexing without `get` on an executor/slot/range path: \
                             out-of-bounds panics here burn the worker-restart budget"
                                .to_string(),
                        );
                    }
                }
                Rule::SlotResetLaw => {
                    if line.in_test {
                        continue;
                    }
                    if line.in_conditional && has_token(code, ".reset(") {
                        emit(
                            &mut allows,
                            idx,
                            rule,
                            "conditional `reset()` in slot/range execution: the PR-5 bug class — \
                             resets must be unconditional or slot outcomes become \
                             partition-dependent"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }

    // Police the allowlist itself: malformed annotations and waivers
    // that no longer suppress anything are both findings.
    for a in &allows {
        if let Some(err) = &a.error {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: a.comment_line + 1,
                rule: ALLOW_RULE_ID.to_string(),
                message: format!("malformed `lint:allow` annotation: {err}"),
            });
        } else if !a.used {
            let id = a.rule.map_or("?", Rule::id);
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: a.comment_line + 1,
                rule: ALLOW_RULE_ID.to_string(),
                message: format!(
                    "unused `lint:allow({id})`: nothing to suppress on its target line — \
                     remove the stale waiver"
                ),
            });
        }
    }

    diags.sort();
    diags
}
