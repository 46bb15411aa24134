//! Drives the committed lint corpus through `Router::warm_restart`: a
//! spool seeded with every hand-corrupted corpus image *newer* than one
//! honest checkpoint must quarantine each corrupt file with its typed
//! reason and serve the newest honest image — recovery never trusts
//! file freshness over structural integrity.

use std::fs;
use std::path::PathBuf;

use fibcomp::core::lint::lint_bytes;
use fibcomp::core::SerializedDag;
use fibcomp::router::{scan_spool, Router, RouterConfig, StdFs};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::traces;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// `(file, expected lint code)` pairs from the corpus MANIFEST.
fn manifest() -> Vec<(String, String)> {
    fs::read_to_string(corpus_dir().join("MANIFEST"))
        .expect("corpus MANIFEST")
        .lines()
        .filter_map(|line| {
            let (name, code) = line.split_once(' ')?;
            Some((name.to_string(), code.to_string()))
        })
        .collect()
}

fn epoch_name(epoch: u64) -> String {
    format!("epoch-{epoch:016x}.img")
}

#[test]
fn warm_restart_quarantines_the_whole_corrupt_corpus_and_serves_the_honest_image() {
    let spool = std::env::temp_dir().join(format!("fib-quarantine-{}", std::process::id()));
    let _ = fs::remove_dir_all(&spool);
    fs::create_dir_all(&spool).expect("spool dir");

    // Stage: every clean corpus image below the honest serialized
    // checkpoint (epoch 100), every corrupt image above it — so a naive
    // newest-first recovery would serve garbage 12 different ways.
    const HONEST_EPOCH: u64 = 100;
    let mut corrupt = Vec::new();
    let mut staged_older = 0u64;
    for (name, code) in manifest() {
        let bytes = fs::read(corpus_dir().join(&name)).expect("corpus file");
        if code == "clean" {
            if name == "clean-serialized.img" {
                fs::write(spool.join(epoch_name(HONEST_EPOCH)), &bytes).expect("stage honest");
            } else {
                staged_older += 1;
                fs::write(spool.join(epoch_name(staged_older)), &bytes).expect("stage clean");
            }
        } else {
            let epoch = 200 + corrupt.len() as u64;
            fs::write(spool.join(epoch_name(epoch)), &bytes).expect("stage corrupt");
            corrupt.push((epoch_name(epoch), name, code, bytes));
        }
    }
    assert!(corrupt.len() >= 10, "corpus shrank to {}", corrupt.len());

    let recovered =
        Router::<u32, SerializedDag<u32>>::warm_restart(&spool, RouterConfig::default())
            .expect("the honest image must still serve");

    // The newest *honest* image won, not the newest file.
    assert_eq!(recovered.epoch(), HONEST_EPOCH);
    assert_eq!(recovered.control().len(), 600);
    assert_eq!(recovered.stats().quarantined, corrupt.len() as u64);
    let snapshot = recovered.snapshot();
    let trace = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(9), 256);
    for &addr in &trace {
        assert_eq!(
            snapshot.lookup(addr),
            recovered.control().lookup(addr),
            "image-backed snapshot diverges at {addr:#010x}"
        );
    }

    // Every corrupt image moved to quarantine with a reason file whose
    // typed code matches what lint says about those exact bytes — and
    // the corpus MANIFEST's expected code is among the lint findings.
    let qdir = spool.join("quarantine");
    for (staged, original, expected_code, bytes) in &corrupt {
        assert!(
            !spool.join(staged).exists(),
            "{original}: corrupt image must leave the spool"
        );
        assert!(
            qdir.join(staged).exists(),
            "{original}: corrupt image must land in quarantine"
        );
        let reason = fs::read_to_string(qdir.join(format!("{staged}.reason")))
            .unwrap_or_else(|e| panic!("{original}: typed reason file: {e}"));
        let issues = lint_bytes(bytes);
        assert!(
            issues.iter().any(|i| i.code == expected_code),
            "{original}: MANIFEST code {expected_code} missing from lint: {issues:?}"
        );
        let first = &issues.first().expect("corrupt image lints dirty").code;
        assert!(
            reason.starts_with(&format!("{first}:")),
            "{original}: reason {reason:?} must carry the lint code {first}"
        );
    }

    // The offline scanner agrees with what recovery left behind.
    let status = scan_spool(StdFs::shared().as_ref(), &spool).expect("scan");
    assert_eq!(status.quarantined, corrupt.len());
    assert_eq!(status.newest_valid_epoch, Some(HONEST_EPOCH));
    assert_eq!(status.quarantine_reasons.len(), corrupt.len());

    let _ = fs::remove_dir_all(&spool);
}
