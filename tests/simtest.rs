//! Simulation-harness contract at the workspace level: a range of
//! scheduler seeds holds the shard-count-invariance and
//! replay-determinism invariants, the committed golden corpus matches a
//! fresh derivation, and the drift gate demonstrably fails when pinned
//! bytes change without a version bump.

use std::path::PathBuf;

use chameleon_simtest::{check_seed, derive_corpus, diff, golden, parse, sweep, Schedule};

/// Seeds the in-test sweep covers. The CI soak job drives 200+ seeds
/// through the release binary (`chameleon simtest --seeds 200`); here a
/// smaller default keeps `cargo test` snappy. Raise it via
/// `CHAM_SIMTEST_SEEDS` for a deeper local run.
fn seeds_to_sweep() -> u64 {
    std::env::var("CHAM_SIMTEST_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

fn committed_golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn a_seed_range_holds_the_simulation_invariants() {
    let scenario = golden::golden_scenario();
    let seeds = seeds_to_sweep();
    let report = sweep(&scenario, Schedule::Lifecycle, 0, seeds, None);
    assert_eq!(report.checked, seeds);
    assert!(
        report.all_passed(),
        "seeds violated invariants: {:#?}",
        report.failures
    );
    // The sweep must exercise both the clean and the fault-injected
    // halves of the seed space.
    assert!(report.faulted > 0, "no faulted seeds in the sweep");
    assert!(
        report.faulted < report.checked,
        "no clean seeds in the sweep"
    );
}

#[test]
fn a_seed_reproduces_its_outcome_bit_for_bit() {
    let scenario = golden::golden_scenario();
    let first = check_seed(&scenario, 5).expect("invariants hold");
    let second = check_seed(&scenario, 5).expect("invariants hold");
    assert_eq!(first, second, "same seed, different outcome");
}

#[test]
fn committed_golden_corpus_matches_a_fresh_derivation() {
    let dir = committed_golden_dir();
    for derived in derive_corpus() {
        let path = dir.join(derived.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} unreadable ({e}) — regenerate with \
                 `cargo run -p chameleon-cli -- simtest --regen-golden` and commit it",
                path.display()
            )
        });
        let committed = parse(derived.file, &text).expect("committed corpus parses");
        let findings = diff(&committed, &derived);
        assert!(findings.is_empty(), "golden drift: {findings:#?}");
    }
}

/// The acceptance property of the drift gate itself: flipping one byte
/// of a pinned CHAMWIRE frame or CHAMFLT1 checkpoint without bumping
/// the format version must produce a failure finding.
#[test]
fn drift_gate_fails_on_unbumped_wire_and_checkpoint_byte_changes() {
    let dir = committed_golden_dir();
    for file in ["wire_frames.golden", "checkpoints.golden"] {
        let derived = derive_corpus()
            .into_iter()
            .find(|f| f.file == file)
            .expect("family derived");
        let text = std::fs::read_to_string(dir.join(file)).expect("committed corpus");
        // Tamper: flip the last hex nibble of the first pinned value.
        let tampered = {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let line = lines
                .iter_mut()
                .find(|l| l.contains(" = "))
                .expect("an entry line");
            let last = line.pop().expect("non-empty value");
            line.push(if last == '0' { '1' } else { '0' });
            lines.join("\n")
        };
        let committed = parse(derived.file, &tampered).expect("tampered corpus still parses");
        let findings = diff(&committed, &derived);
        assert!(
            findings
                .iter()
                .any(|f| f.contains("WITHOUT a version bump")),
            "{file}: unbumped byte change not flagged: {findings:#?}"
        );
    }
}

/// A deliberate format change (bumped version line) is reported as
/// "regenerate", not as silent drift.
#[test]
fn drift_gate_asks_for_regeneration_on_a_version_bump() {
    let derived = derive_corpus().into_iter().next().expect("wire family");
    let mut committed = derived.clone();
    committed.version = format!("{}-old", derived.version);
    let findings = diff(&committed, &derived);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].contains("regenerate"), "{findings:#?}");
}
