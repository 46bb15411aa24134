//! What `fibc serve` answers, driven through the built binary: every
//! single-table engine's image answers stdin addresses as its routes
//! section does, `--probe` is one budget the forwarding workers share,
//! an image compiled with `--heat` serves through its slab, a vrfset
//! image runs the same forwarding runtime and reports, both kinds read
//! stdin by one rule, and a reader that closes `fibc`'s stdout ends it
//! quietly. Beside them, `fibc compile --routes`
//! refuses a routes line it cannot read whole, every command refuses
//! a flag it does not read, and a hostile image is refused by name, not
//! served into a panic.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

use fibcomp::core::{CompiledVrfSet, FibImage};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::traces;

/// Every single-table `--engine`, plus `vsdag` compiled with `--heat`.
const IMAGES: [(&str, &[&str]); 5] = [
    ("xbw", &[]),
    ("pdag", &[]),
    ("serialized", &[]),
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
        let packets = total_packets(&stdout, name);
        assert!(
            (PROBES..PROBES + 2 * BATCH).contains(&packets),
            "{name}: {packets} lookups for a budget of {PROBES}"
        );
    }
}

/// The packet count of `stdout`'s one `total via` line.
fn total_packets(stdout: &str, name: &str) -> u64 {
    let totals: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("total via "))
        .collect();
    assert_eq!(totals.len(), 1, "{name}: one total line\n{stdout}");
    totals[0]
        .split_once(": ")
        .and_then(|(_, rest)| rest.split_once(' '))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("{name}: no packet count in {:?}", totals[0]))
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

/// A fleet image of four taz 0.02 tables, compiled once per test binary.
fn fleet_image() -> &'static Path {
    static FLEET_BUILT: OnceLock<PathBuf> = OnceLock::new();
    FLEET_BUILT.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fibc_serve");
        std::fs::create_dir_all(&dir).expect("image dir");
        let path = dir.join("fleet.img");
        let img = path.to_str().expect("utf-8 path");
        let args = [
            "compile",
            "--vrfs",
            "4",
            "--instance",
            "taz",
            "--scale",
            "0.02",
        ];
        stdout_of(&fibc(&[&args[..], &["--out", img]].concat()));
        path
    })
}

/// A vrfset image runs the forwarding runtime as a single-table image
/// does — the same flags, one line per worker and a `total via` line —
/// and answers `VRF ADDR` lines on stdin as its set does.
#[test]
fn a_vrfset_image_serves_through_the_forwarding_runtime() {
    let path = fleet_image();
    let img = path.to_str().expect("utf-8 path");

    let timed = ["serve", img, "--duration", "0.2", "--threads", "2"];
    let stdout = stdout_of(&fibc(&timed));
    let workers = stdout.lines().filter(|l| l.starts_with("worker ")).count();
    assert_eq!(workers, 2, "one line per worker\n{stdout}");
    assert!(total_packets(&stdout, "vrfset") > 0, "{stdout}");

    let probed = [
        "serve",
        img,
        "--probe",
        "1000",
        "--threads",
        "2",
        "--keys",
        "zipf",
    ];
    let stdout = stdout_of(&fibc(&probed));
    assert!(
        stdout.contains("total via vrfset (zipf, 2 thr, batch 256): "),
        "{stdout}"
    );
    let packets = total_packets(&stdout, "vrfset");
    assert!(packets >= 1_000, "{packets} lookups for a budget of 1000");

    let image = FibImage::load(path).expect("compiled image loads");
    let set = CompiledVrfSet::<u32>::from_image(&image).expect("a vrfset image");
    let addrs = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(29), 64);
    let mut input = String::new();
    let mut want = Vec::new();
    for (i, &addr) in addrs.iter().enumerate() {
        let vrf = set.tables[i % set.tables.len()].id;
        let text = format!("{vrf} {}", std::net::Ipv4Addr::from(addr));
        want.push(match set.lookup(vrf, addr) {
            Some(nh) => format!("{text} -> {nh}"),
            None => format!("{text} -> no route"),
        });
        input.push_str(&text);
        input.push('\n');
    }
    let stdout = stdout_of(&serve_stdin(path, &input));
    assert_eq!(stdout.lines().collect::<Vec<_>>(), want);
}

/// Both image kinds read stdin by one rule: blank lines and `#` comments
/// are skipped, a line that does not parse is named on stderr, and every
/// other line is answered on stdout in input order.
#[test]
fn stdin_skips_blanks_and_comments_and_names_bad_lines() {
    let serialized = images().iter().find(|(name, _)| *name == "serialized");
    let serialized = &serialized.expect("a serialized image").1;
    let table = FibImage::load(serialized).expect("compiled image loads");
    let oracle = table.routes::<u32>().expect("the routes section");
    let fleet = FibImage::load(fleet_image()).expect("compiled image loads");
    let set = CompiledVrfSet::<u32>::from_image(&fleet).expect("a vrfset image");
    let answer = |text: &str, hop: Option<_>| match hop {
        Some(nh) => format!("{text} -> {nh}"),
        None => format!("{text} -> no route"),
    };
    let (a, b) = (0x0808_0808u32, 0x0A01_0203u32);
    let (first, last) = (set.tables[0].id, set.tables[set.tables.len() - 1].id);
    let cases = [
        (
            &**serialized,
            "8.8.8.8\n\n# a comment\n10.1.2.3  # trailing\n8.8.8\n   \n10.1.2.3\n".to_string(),
            vec![
                answer("8.8.8.8", oracle.lookup(a)),
                answer("10.1.2.3", oracle.lookup(b)),
                answer("10.1.2.3", oracle.lookup(b)),
            ],
            vec!["8.8.8: ".to_string()],
        ),
        (
            fleet_image(),
            format!(
                "{first} 8.8.8.8\n\n# a comment\n{last} 10.1.2.3 # trailing\n8.8.8.8\n\
                 x 8.8.8.8\n{first} 8.8.8\n{last} 8.8.8.8\n"
            ),
            vec![
                answer(&format!("{first} 8.8.8.8"), set.lookup(first, a)),
                answer(&format!("{last} 10.1.2.3"), set.lookup(last, b)),
                answer(&format!("{last} 8.8.8.8"), set.lookup(last, a)),
            ],
            vec![
                "8.8.8.8: want 'VRF ADDR'".to_string(),
                "x 8.8.8.8: bad VRF id".to_string(),
                format!("{first} 8.8.8: "),
            ],
        ),
    ];
    for (path, input, want, errors) in cases {
        let output = serve_stdin(path, &input);
        let stdout = stdout_of(&output);
        assert_eq!(stdout.lines().collect::<Vec<_>>(), want, "{path:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let named: Vec<&str> = stderr.lines().filter(|l| !l.contains("slab")).collect();
        assert_eq!(named.len(), errors.len(), "{path:?}: {stderr}");
        for (line, error) in named.iter().zip(&errors) {
            assert!(
                line.starts_with(error),
                "{path:?}: {line:?} is not {error:?}"
            );
        }
    }
}

/// A reader that goes away before `fibc serve` answers (`fibc serve IMG |
/// true`) ends it quietly with status 0, for a single-table image and a
/// fleet alike, instead of a panic on the broken pipe.
#[test]
fn a_closed_stdout_ends_serve_quietly() {
    let serialized = images().iter().find(|(name, _)| *name == "serialized");
    let serialized = &serialized.expect("a serialized image").1;
    for (path, line) in [(&**serialized, "8.8.8.8\n"), (fleet_image(), "1 8.8.8.8\n")] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fibc"))
            .arg("serve")
            .arg(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("fibc runs");
        drop(child.stdout.take());
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin
            .write_all(line.as_bytes())
            .expect("stdin takes the line");
        drop(stdin);
        let output = child.wait_with_output().expect("fibc exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{path:?}: {:?}\n{stderr}",
            output.status
        );
        assert!(!stderr.contains("panicked"), "{path:?}: {stderr}");
    }
}

/// `fibc compile --routes` reads a routes file line by line, and a line
/// with a column too many is refused by file and line — not compiled as
/// its first two columns.
#[test]
fn compile_refuses_a_routes_line_with_a_third_column() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fibc_serve");
    std::fs::create_dir_all(&dir).expect("image dir");
    let routes = dir.join("three-columns.txt");
    std::fs::write(&routes, "0.0.0.0/0 1\n10.0.0.0/8 3 7\n").expect("routes file");
    let routes = routes.to_str().expect("utf-8 path");
    let out = dir.join("three-columns.img");
    let output = fibc(&[
        "compile",
        "--engine",
        "serialized",
        "--routes",
        routes,
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "a third column compiled: {stderr}"
    );
    assert!(
        stderr.contains(&format!("{routes}: line 2:")),
        "the error names the file and line: {stderr}"
    );
}

/// `fibc` refuses, by name and before any work, a flag the command does
/// not read: `--routes` beside `compile --vrfs` (a fleet's tables come
/// from an instance), and a typo such as `--thread`.
#[test]
fn flags_a_command_does_not_read_are_refused() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fibc_serve");
    std::fs::create_dir_all(&dir).expect("image dir");
    let out = dir.join("refused-fleet.img");
    let (_, single) = &images()[0];
    let fleet = [
        "compile",
        "--vrfs",
        "4",
        "--instance",
        "taz",
        "--scale",
        "0.02",
        "--routes",
        "/nonexistent",
        "--out",
        out.to_str().expect("utf-8 path"),
    ];
    let typo = [
        "serve",
        single.to_str().expect("utf-8 path"),
        "--thread",
        "2",
    ];
    for (argv, refused) in [(&fleet[..], "--routes"), (&typo, "--thread")] {
        let output = fibc(argv);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{argv:?} exited 0");
        assert!(
            stderr.starts_with(&format!("fibc: {refused}: ")),
            "{argv:?}: {stderr}"
        );
    }
    assert!(!out.exists(), "the refused compile wrote an image");
}

/// A hostile XBW-b image of the lint corpus, whose first packed `S_α`
/// symbol indexes past its three labels, is refused at its view with the
/// typed error — `fibc serve` exits non-zero and does not panic.
#[test]
fn serve_refuses_an_image_whose_symbols_leave_the_label_map() {
    let image = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/xbw-symbol-range.img");
    let output = fibc(&[
        "serve",
        image.to_str().expect("utf-8 path"),
        "--probe",
        "1000",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a hostile image served: {stderr}");
    assert_eq!(
        stderr.trim(),
        "fibc: malformed image: S_α symbol past the label map"
    );
}
