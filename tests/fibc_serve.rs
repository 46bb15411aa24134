//! What `fibc serve` answers, driven through the built binary: every
//! single-table engine's image answers stdin addresses as its routes
//! section does, `--probe` is one budget the forwarding workers share,
//! and an image compiled with `--heat` serves through its slab.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

use fibcomp::core::FibImage;
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::traces;

/// Every single-table `--engine`, plus `vsdag` compiled with `--heat`.
const IMAGES: [(&str, &[&str]); 6] = [
    ("xbw", &[]),
    ("pdag", &[]),
    ("serialized", &[]),
    ("lctrie", &[]),
    ("vsdag", &[]),
    ("vsdag-hot", &["--heat"]),
];

fn fibc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fibc"))
        .args(args)
        .output()
        .expect("fibc runs")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "fibc failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The taz 0.02 images, compiled once per test binary.
fn images() -> &'static [(&'static str, PathBuf)] {
    static IMAGES_BUILT: OnceLock<Vec<(&'static str, PathBuf)>> = OnceLock::new();
    IMAGES_BUILT.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fibc_serve");
        std::fs::create_dir_all(&dir).expect("image dir");
        IMAGES
            .iter()
            .map(|&(name, extra)| {
                let path = dir.join(format!("{name}.img"));
                let engine = name.trim_end_matches("-hot");
                let out = path.to_str().expect("utf-8 path");
                let mut args = vec!["compile", "--engine", engine, "--instance", "taz"];
                args.extend(["--scale", "0.02", "--out", out]);
                args.extend(extra);
                stdout_of(&fibc(&args));
                (name, path)
            })
            .collect()
    })
}

/// `fibc serve IMG` with `input` on stdin.
fn serve_stdin(image: &Path, input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fibc"))
        .arg("serve")
        .arg(image)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fibc runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("stdin accepts the addresses");
    child.wait_with_output().expect("fibc exits")
}

#[test]
fn stdin_answers_match_the_routes_section_for_every_engine() {
    let addrs = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(28), 2_000);
    let input: String = addrs
        .iter()
        .map(|&a| format!("{}\n", std::net::Ipv4Addr::from(a)))
        .collect();
    for (name, path) in images() {
        let oracle = FibImage::load(path)
            .expect("compiled image loads")
            .routes::<u32>()
            .expect("fibc compile keeps the routes section");
        let want: Vec<String> = addrs
            .iter()
            .map(|&a| {
                let text = std::net::Ipv4Addr::from(a);
                match oracle.lookup(a) {
                    Some(nh) => format!("{text} -> {nh}"),
                    None => format!("{text} -> no route"),
                }
            })
            .collect();
        let stdout = stdout_of(&serve_stdin(path, &input));
        let got: Vec<&str> = stdout.lines().collect();
        assert_eq!(got, want, "{name}: stdin answers diverge from the routes");
    }
}

#[test]
fn probe_is_one_budget_the_workers_share() {
    const PROBES: u64 = 20_000;
    const BATCH: u64 = 256;
    for (name, path) in images() {
        let path = path.to_str().expect("utf-8 path");
        let stdout = stdout_of(&fibc(&[
            "serve",
            path,
            "--probe",
            "20000",
            "--threads",
            "2",
        ]));
        let workers = stdout.lines().filter(|l| l.starts_with("worker ")).count();
        assert_eq!(workers, 2, "{name}: one line per worker\n{stdout}");
        let totals: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("total via "))
            .collect();
        assert_eq!(totals.len(), 1, "{name}: one total line\n{stdout}");
        let packets: u64 = totals[0]
            .split_once(": ")
            .and_then(|(_, rest)| rest.split_once(' '))
            .and_then(|(n, _)| n.parse().ok())
            .unwrap_or_else(|| panic!("{name}: no packet count in {:?}", totals[0]));
        assert!(
            (PROBES..PROBES + 2 * BATCH).contains(&packets),
            "{name}: {packets} lookups for a budget of {PROBES}"
        );
    }
}

#[test]
fn a_heat_compiled_image_serves_through_its_slab() {
    for (name, path) in images() {
        let path = path.to_str().expect("utf-8 path");
        let stdout = stdout_of(&fibc(&["serve", path, "--probe", "2000", "--keys", "zipf"]));
        let slab = stdout.lines().any(|l| l.starts_with("hot slab: "));
        assert_eq!(slab, *name == "vsdag-hot", "{name}\n{stdout}");
    }
}
