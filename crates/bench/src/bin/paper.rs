//! `paper` — the paper's evaluation (Section 5), every artifact checked
//! as it prints.
//!
//! ```sh
//! # Any of table1 table2 fig5 fig6 fig7 ablation, in one run; --scale
//! # (0 < S ≤ 1, default 1) shrinks every instance for a quick pass.
//! cargo run --release -p fib-bench --bin paper -- table1 fig6 --scale 0.05
//!
//! # A Table 1 row and every representation's size for any FIB.
//! cargo run --release -p fib-bench --bin paper -- report --instance taz
//! cargo run --release -p fib-bench --bin paper -- report routes.txt
//! ```
//!
//! * `table1` — storage sizes (I, E, XBW-b, pDAG, ν, η) of all 11 FIBs;
//! * `table2` — the lookup benchmark on the taz stand-in;
//! * `fig5` — update time against memory as λ sweeps 0…32;
//! * `fig6` — size and efficiency against Bernoulli next-hop entropy;
//! * `fig7` — the same in the string model;
//! * `ablation` — the λ formula, XBW-b's two storage modes and multibit
//!   strides (not in the paper; they back §4's design choices);
//! * `report` — a Table 1 row and every representation's size for one
//!   FIB, a paper instance (`--instance NAME`) or a routes file.
//!
//! Each table prints with the published numbers alongside and goes to
//! `out/<name>.tsv` with its deterministic columns only: sizes, E, I, δ,
//! H0, λ, depths, simulated misses and the FPGA cycle model. Timing
//! columns are printed, never written and never gated. `pinned/` holds
//! every TSV of a scale-1.0 run (with `report --instance taz`), and CI
//! `cmp`s them.
//!
//! Every claim an artifact makes is an assertion over those columns,
//! shaped so it holds at any scale: the paper's shape where the stand-ins
//! reproduce it, and where they do not, what they measure instead and
//! why. A claim that moved fails the run (exit 1) and is named. A claim
//! that holds only at full scale is printed as pinned: the scale-1.0 TSVs
//! hold it. A bad or unread argument is refused (exit 2), never replaced
//! by a default.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use fib_core::{
    lambda, FibEntropy, FibLookup, FoldedString, MultibitDag, PrefixDag, SerializedDag,
    VarStrideDag, VsParams, XbwFib, XbwStorage,
};
use fib_hwsim::{CacheSim, SramModel};
use fib_succinct::shannon_entropy;
use fib_trie::stats::{next_hop_count, route_label_histogram, PrefixLenHistogram};
use fib_trie::{io, BinaryTrie, LcTrie};
use fib_workload::instances::{self, PaperInstance};
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::{uniform, ZipfTrace};
use fib_workload::updates::{bgp_sequence, random_sequence, UpdateOp};
use fib_workload::{FibSpec, LabelModel};

type Trie = BinaryTrie<u32>;

const USAGE: &str = "\
usage: paper ARTIFACT... [--scale S] [--instance NAME | ROUTES]
  artifacts: table1 table2 fig5 fig6 fig7 ablation report
  --scale S        0 < S ≤ 1 of each instance's prefixes (default 1)
  --instance NAME  report's FIB: a paper instance (taz, hbone, …)
  ROUTES           report's FIB: a routes file ('prefix next_hop' lines)
Tables go to out/<artifact>.tsv; a claim that moved exits 1.";

/// One artifact: runs it at the options, checking its claims.
type Artifact = fn(&Opts, &mut Claims) -> Result<(), String>;

/// Every artifact, by its subcommand name.
const ARTIFACTS: [(&str, Artifact); 7] = [
    ("table1", table1),
    ("table2", table2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablation", ablation),
    ("report", report),
];

/// The seed every paper instance is built from.
const SEED: u64 = 0xF1B;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut claims = Claims::default();
    for run in &opts.artifacts {
        if let Err(e) = run(&opts, &mut claims) {
            eprintln!("paper: {e}");
            return ExitCode::FAILURE;
        }
    }
    if claims.moved.is_empty() {
        println!("\n{} claims hold.", claims.held);
        return ExitCode::SUCCESS;
    }
    eprintln!("paper: {} claims moved:", claims.moved.len());
    for claim in &claims.moved {
        eprintln!("  {claim}");
    }
    ExitCode::FAILURE
}

/// Where `report` reads its FIB from.
#[derive(Debug, PartialEq)]
enum Source {
    Instance(String),
    Routes(String),
}

/// The parsed command line: every argument read, or refused.
#[derive(Debug)]
struct Opts {
    artifacts: Vec<Artifact>,
    scale: f64,
    source: Option<Source>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut artifacts, mut names) = (Vec::new(), Vec::new());
        let (mut scale, mut source) = (None, None);
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                if let Some(&(name, run)) = ARTIFACTS.iter().find(|(name, _)| name == arg) {
                    if names.contains(&name) {
                        return Err(format!("{name}: named twice"));
                    }
                    names.push(name);
                    artifacts.push(run);
                } else if source.replace(Source::Routes(arg.clone())).is_some() {
                    return Err(format!("{arg}: a second FIB for report"));
                }
                continue;
            };
            let (key, inline) = match flag.split_once('=') {
                Some((key, value)) => (key, Some(value)),
                None => (flag, None),
            };
            if !["scale", "instance"].contains(&key) {
                return Err(format!("--{key}: not read by paper"));
            }
            let value = match inline {
                Some(value) => value,
                None => args.next().ok_or(format!("--{key}: wants a value"))?,
            };
            if key == "scale" {
                let s: f64 = value.parse().map_err(|e| format!("--scale {value}: {e}"))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(format!("--scale {value}: want 0 < S ≤ 1"));
                }
                if scale.replace(s).is_some() {
                    return Err("--scale: given twice".into());
                }
            } else if instances::by_name(value).is_none() {
                return Err(format!("--instance {value}: not a paper instance"));
            } else if source.replace(Source::Instance(value.into())).is_some() {
                return Err(format!("--instance {value}: a second FIB for report"));
            }
        }
        match (&source, names.contains(&"report")) {
            (None, true) => return Err("report: wants --instance NAME or a routes file".into()),
            (Some(Source::Instance(_)), false) => {
                return Err("--instance: read by report only".into())
            }
            (Some(Source::Routes(path)), false) => return Err(format!("{path}: not an artifact")),
            (Some(Source::Routes(_)), true) if scale.is_some() && names.len() == 1 => {
                return Err("--scale: not read with a routes file".into())
            }
            _ if names.is_empty() => return Err("no artifact named".into()),
            _ => {}
        }
        let scale = scale.unwrap_or(1.0);
        Ok(Self {
            artifacts,
            scale,
            source,
        })
    }
}

/// The one loader: a paper instance at a scale, or a routes file.
fn load(source: &Source, scale: f64) -> Result<Trie, String> {
    match source {
        Source::Instance(name) => {
            instances::scaled(name, scale, SEED).ok_or(format!("{name}: not a paper instance"))
        }
        Source::Routes(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let routes = io::parse_routes::<u32>(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(routes.into_iter().collect())
        }
    }
}

fn taz(scale: f64) -> Trie {
    instances::scaled("taz", scale, SEED).expect("taz is a paper instance")
}

/// The claims of one run: each printed as it is checked.
#[derive(Default)]
struct Claims {
    held: usize,
    moved: Vec<String>,
}

impl Claims {
    fn check(&mut self, claim: &str, holds: bool) {
        println!("  {} {claim}", if holds { "ok    " } else { "MOVED " });
        if holds {
            self.held += 1;
        } else {
            self.moved.push(claim.to_string());
        }
    }
}

/// Prints a claim the scale-1.0 pins hold and no assertion does: it
/// needs the full-size instances.
fn pinned(claim: &str) {
    println!("  pinned {claim}");
}

/// One artifact table: printed aligned, written as `out/<name>.tsv`.
struct Table {
    name: &'static str,
    title: String,
    /// The column names, `|`-separated.
    header: &'static str,
    /// How many trailing columns are timings: printed, never written.
    timed: usize,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(name: &'static str, title: impl Into<String>, header: &'static str) -> Self {
        let title = title.into();
        Self {
            name,
            title,
            header,
            timed: 0,
            rows: Vec::new(),
        }
    }

    fn timed(mut self, columns: usize) -> Self {
        self.timed = columns;
        self
    }

    fn emit(&self) -> Result<(), String> {
        println!("\n== {} ==", self.title);
        let header: Vec<&str> = self.header.split('|').collect();
        let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let padded: Vec<String> = cells
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            println!("{}", padded.join("  "));
        };
        line(&mut header.iter().copied());
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            line(&mut row.iter().map(String::as_str));
        }
        let kept = header.len() - self.timed;
        let mut tsv = header[..kept].join("\t") + "\n";
        for row in &self.rows {
            tsv += &(row[..kept].join("\t") + "\n");
        }
        let path = std::path::Path::new("out").join(format!("{}.tsv", self.name));
        std::fs::create_dir_all("out")
            .and_then(|()| std::fs::write(&path, tsv))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Times a closure, returning (result, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Formats a byte count as KBytes with one decimal.
fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats a float with the given precision.
fn f(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

/// Whether `values` strictly increase.
fn rising(values: impl IntoIterator<Item = f64>) -> bool {
    let values: Vec<f64> = values.into_iter().collect();
    values.windows(2).all(|w| w[0] < w[1])
}

/// One Table 1 row: what Section 2 measures of a FIB and what its
/// compressed forms cost, the prefix DAG at barrier `lambda`.
struct Storage {
    n: usize,
    delta: usize,
    route_h0: f64,
    entropy: FibEntropy,
    xbw: XbwFib<u32>,
    dag: PrefixDag<u32>,
    serialized: SerializedDag<u32>,
}

impl Storage {
    fn of(trie: &Trie, lambda: u8) -> Self {
        let counts: Vec<u64> = route_label_histogram(trie).values().copied().collect();
        let dag = PrefixDag::from_trie(trie, lambda);
        Self {
            n: trie.len(),
            delta: next_hop_count(trie),
            route_h0: shannon_entropy(&counts),
            entropy: FibEntropy::of_trie(trie),
            xbw: XbwFib::build(trie, XbwStorage::Entropy),
            serialized: SerializedDag::from_dag(&dag),
            dag,
        }
    }

    fn xbw_bits(&self) -> f64 {
        self.xbw.size_report().total_bits() as f64
    }

    fn pdag_bits(&self) -> f64 {
        self.serialized.size_bytes() as f64 * 8.0
    }
}

fn table1(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    let mut table = Table::new(
        "table1",
        format!(
            "Table 1: storage sizes, measured/paper, KB (λ = 11, scale = {})",
            opts.scale
        ),
        "FIB|N|δ m/p|H0 m/p|I m/p|E m/p|XBW-b m/p|pDAG m/p|ν m/p|ηXBW m/p|ηpDAG m/p|model ν",
    );
    let mut rows: Vec<(PaperInstance, Storage)> = Vec::new();
    for inst in instances::all() {
        let s = Storage::of(&load(&Source::Instance(inst.name.into()), opts.scale)?, 11);
        let (p, e_bits) = (&inst.paper, s.entropy.entropy_bits());
        let pair = |m: String, p: f64, precision| format!("{m}/{}", f(p, precision));
        table.rows.push(vec![
            inst.name.to_string(),
            s.n.to_string(),
            format!("{}/{}", s.delta, inst.delta),
            pair(f(s.route_h0, 2), inst.h0, 2),
            pair(kb((s.entropy.info_bound_bits() / 8.0) as usize), p.i_kb, 0),
            pair(kb((e_bits / 8.0) as usize), p.e_kb, 0),
            pair(kb((s.xbw_bits() / 8.0) as usize), p.xbw_kb, 0),
            pair(kb(s.serialized.size_bytes()), p.pdag_kb, 0),
            pair(f(s.pdag_bits() / e_bits, 2), p.nu, 2),
            pair(f(s.xbw_bits() / s.n as f64, 2), p.eta_xbw, 2),
            pair(f(s.pdag_bits() / s.n as f64, 2), p.eta_pdag, 2),
            f(s.dag.model_size_bits() as f64 / e_bits, 2),
        ]);
        rows.push((inst, s));
    }
    table.emit()?;
    println!("Claims:");
    let large = |inst: &PaperInstance| inst.n_prefixes >= 100_000;
    let scaled_n = |inst: &PaperInstance| {
        ((inst.n_prefixes as f64 * opts.scale) as usize).max(64) + usize::from(inst.default_route)
    };
    claims.check(
        "N is the paper's at the scale (plus the default route where the FIB has one)",
        rows.iter().all(|(inst, s)| s.n == scaled_n(inst)),
    );
    claims.check(
        "route H0 is the paper's within 0.03 on the nine FIBs past 100k prefixes",
        rows.iter()
            .filter(|(i, _)| large(i))
            .all(|(i, s)| (s.route_h0 - i.h0).abs() <= 0.03),
    );
    const SHORT: [&str; 4] = ["hbone", "access(d)", "mobile", "as6730"];
    claims.check(
        "δ is the paper's on taz, access(v), as1221, as4637, as6447, fib_600k and fib_1m",
        rows.iter()
            .filter(|(i, _)| !SHORT.contains(&i.name))
            .all(|(i, s)| s.delta == i.delta as usize),
    );
    claims.check(
        "not reproduced: δ falls short on hbone, access(d), mobile and as6730 (17/195, 9/28, \
         8/16, 33/186 at scale 1). The H0-calibrated geometric label model almost never draws \
         the tail labels (ROADMAP N8 (b))",
        rows.iter()
            .filter(|(i, _)| SHORT.contains(&i.name))
            .all(|(i, s)| s.delta < i.delta as usize),
    );
    claims.check(
        "not reproduced: ν exceeds the paper's on every FIB (4.33–5.84 on the nine large ones at \
         scale 1, paper 2.60–4.10). The pDAG column is the serialized λ = 11 image as deployed in \
         §5.3, 8 B an interior record plus the 2^11-entry root array, not the §4.2 model (N1)",
        rows.iter()
            .all(|(i, s)| s.pdag_bits() / s.entropy.entropy_bits() > i.paper.nu),
    );
    claims.check(
        "the §4.2 model is smaller than the serialized image on every FIB",
        rows.iter()
            .all(|(_, s)| s.dag.model_size_bits() as f64 <= s.pdag_bits()),
    );
    pinned("XBW-b ≈ E: within 5 % of E on the nine large FIBs (0.93–1.05 × E)");
    pinned("the §4.2 model reads 2.67 × E on taz (paper's ν 3.17)");
    Ok(())
}

/// The paper's CPU clock, which turns ns a lookup into cycles.
const PAPER_CLOCK_GHZ: f64 = 2.5;

/// Mean LLC misses and word reads a lookup over `addrs` on the Core i5
/// model, the first fifth warming the hierarchy.
fn simulate(addrs: &[u32], traced: impl Fn(u32, &mut dyn FnMut(u64, u32))) -> (f64, f64) {
    let mut sim = CacheSim::core_i5();
    let warm = addrs.len() / 5;
    for &a in &addrs[..warm] {
        traced(a, &mut |off, sz| sim.access(off, sz));
    }
    let (warm_misses, mut reads) = (sim.llc_misses(), 0u64);
    for &a in &addrs[warm..] {
        traced(a, &mut |off, sz| {
            reads += 1;
            sim.access(off, sz);
        });
    }
    let n = (addrs.len() - warm) as f64;
    (
        (sim.llc_misses() - warm_misses) as f64 / n,
        reads as f64 / n,
    )
}

/// Mlookups/s and cycles a lookup over 300k lookups after a warm-up.
fn speed(engine: &dyn FibLookup<u32>, addrs: &[u32]) -> (f64, f64) {
    for &a in addrs.iter().take(1000) {
        std::hint::black_box(engine.lookup(a));
    }
    let calls = addrs.len().min(300_000);
    let ((), secs) = timed(|| {
        for &a in addrs.iter().cycle().take(calls) {
            std::hint::black_box(engine.lookup(std::hint::black_box(a)));
        }
    });
    let ns = secs * 1e9 / calls as f64;
    (1000.0 / ns, ns * PAPER_CLOCK_GHZ)
}

fn table2(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    let trie = taz(opts.scale);
    let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
    let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
    let lc = LcTrie::from_trie(&trie);
    let mut rng = Xoshiro256::seed_from_u64(0x7AB2);
    let rand: Vec<u32> = uniform(&mut rng, 200_000);
    let trace: Vec<u32> = ZipfTrace::new(&trie, 1.1).generate(&mut rng, 200_000);
    let (pdag_depth, pdag_max) = ser.depth_stats(rand.iter().copied());
    let (lc_depth, lc_max) = lc.depth_stats();
    let fpga = SramModel::default().replay(&ser, rand.iter().copied());

    let mut table = Table::new(
        "table2",
        format!(
            "Table 2: lookup benchmark on the taz stand-in (scale = {})",
            opts.scale
        ),
        "engine|size KB|avg depth|max depth|rand words/pkt|rand miss/pkt|trace miss/pkt|\
         model cycles|model Mlps|rand Mlps|rand cycles|trace Mlps|trace cycles",
    )
    .timed(4);
    let engines: [(&dyn FibLookup<u32>, String, String); 3] = [
        (&xbw, "-".into(), "-".into()),
        (&ser, f(pdag_depth, 2), pdag_max.to_string()),
        (&lc, f(lc_depth, 2), lc_max.to_string()),
    ];
    let mut sims = Vec::new();
    for (engine, depth, max) in engines {
        // fib_trie's cache behaviour is modeled on the kernel's 40-byte
        // node layout, not the packed arena.
        let sim = |keys: &[u32]| match engine.name() {
            "fib_trie" => simulate(keys, |a, sink| {
                lc.lookup_traced_kernel(a, sink);
            }),
            _ => simulate(keys, |a, sink| {
                engine.lookup_traced(a, sink);
            }),
        };
        let ((rand_miss, rand_reads), (trace_miss, _)) = (sim(&rand), sim(&trace));
        let ((rand_mlps, rand_cycles), (trace_mlps, trace_cycles)) =
            (speed(engine, &rand), speed(engine, &trace));
        table.rows.push(vec![
            engine.name().to_string(),
            kb(engine.size_bytes()),
            depth,
            max,
            f(rand_reads, 2),
            f(rand_miss, 3),
            f(trace_miss, 3),
            "-".into(),
            "-".into(),
            f(rand_mlps, 2),
            f(rand_cycles, 0),
            f(trace_mlps, 2),
            f(trace_cycles, 0),
        ]);
        sims.push((engine.size_bytes(), rand_reads, rand_miss));
    }
    let mut fpga_row = vec!["FPGA (model)".to_string(), kb(ser.size_bytes())];
    fpga_row.extend([f(pdag_depth, 2), pdag_max.to_string()]);
    fpga_row.extend(["-", "-", "-"].map(String::from));
    fpga_row.extend([f(fpga.avg_cycles, 2), f(fpga.mlps, 2)]);
    fpga_row.extend(["-"; 4].map(String::from));
    table.rows.push(fpga_row);
    table.emit()?;
    println!("Paper (410K-prefix taz, 2.5 GHz i5 / Virtex-II Pro):");
    println!("  size:  XBW-b 106 KB | pDAG 178 KB | fib_trie 26,698 KB | FPGA 178 KB");
    println!(
        "  rand:  0.033 / 12.8 / 3.23 Mlps; cycles 73940 / 194 / 771; miss 0.016 / 0.003 / 3.17"
    );
    println!(
        "  trace: 0.037 / 13.8 / 5.68 Mlps; cycles 67200 / 180 / 438; miss 0.016 / 0.003 / 0.29"
    );
    println!("  FPGA:  6.9 Mlps at 7.1 cycles a lookup (100 MHz)");
    println!("Claims (timing columns are printed, never gated):");
    let [(xbw_size, xbw_reads, _), (pdag_size, pdag_reads, pdag_miss), (lc_size, _, lc_miss)] =
        sims[..]
    else {
        unreachable!("three engines")
    };
    claims.check(
        "sizes rank as the paper's: XBW-b < pDAG < fib_trie",
        xbw_size < pdag_size && pdag_size < lc_size,
    );
    claims.check(
        "pDAG ≫ XBW-b in speed: XBW-b's walk reads twice pDAG's words a lookup or more, each \
         behind a rank (the speed gap itself is a timing column)",
        xbw_reads >= 2.0 * pdag_reads,
    );
    claims.check(
        "pDAG misses ≈ 0: at most 0.01 LLC misses a packet (paper 0.003)",
        pdag_miss <= 0.01,
    );
    claims.check(
        "not reproduced: the paper's fib_trie misses 3.17 times a packet on rand keys, the kernel-\
         layout model here under one (0.112 at scale 1), so pDAG and fib_trie run close instead of \
         pDAG ≈ 4× faster. The model's LC-trie is flatter than Linux's (11.8 MB at depth 1.69 \
         against 26.7 MB; ROADMAP N8 (c))",
        lc_miss < 1.0 && lc_miss > pdag_miss,
    );
    claims.check(
        "the FPGA model spends 2 pipeline cycles, 1 for the root array and 1 a pDAG level, under \
         the paper's 7.1 a lookup on the stand-in's shallower pDAG",
        (fpga.avg_cycles - (3.0 + pdag_depth)).abs() < 1e-9 && fpga.avg_cycles < 7.1,
    );
    Ok(())
}

fn fig5(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    // The paper runs 15 × 7,500 updates a λ; 3 × 7,500 keep the sweep short.
    let (runs, per_run) = (3, 7_500);
    let trie = taz(opts.scale);
    let mut rng = Xoshiro256::seed_from_u64(0x516);
    let random: Vec<_> = (0..runs)
        .map(|_| random_sequence(&mut rng, per_run, 4))
        .collect();
    let bgp: Vec<_> = (0..runs)
        .map(|_| bgp_sequence(&mut rng, &trie, per_run))
        .collect();
    let mean_us = |dag: &PrefixDag<u32>, seqs: &[Vec<UpdateOp<u32>>]| {
        let total: f64 = seqs
            .iter()
            .map(|seq| {
                let mut dag = dag.clone();
                timed(|| {
                    for op in seq {
                        match *op {
                            UpdateOp::Announce(p, nh) => {
                                dag.insert(p, nh);
                            }
                            UpdateOp::Withdraw(p) => {
                                dag.remove(p);
                            }
                        }
                    }
                })
                .1
            })
            .sum();
        total * 1e6 / (runs * per_run) as f64
    };
    let mut table = Table::new(
        "fig5",
        format!(
            "Fig. 5: update time against memory on taz (scale = {})",
            opts.scale
        ),
        "λ|memory [B]|random [µs/upd]|BGP [µs/upd]|random [Mupd/s]|BGP [Mupd/s]",
    )
    .timed(4);
    let mut memory = Vec::new();
    for lambda in (0..=32u8).step_by(2) {
        let dag = PrefixDag::from_trie(&trie, lambda);
        let mem = dag.model_size_bits() / 8;
        let (rand_us, bgp_us) = (mean_us(&dag, &random), mean_us(&dag, &bgp));
        table.rows.push(vec![
            lambda.to_string(),
            mem.to_string(),
            f(rand_us, 3),
            f(bgp_us, 3),
            f(1.0 / rand_us, 3),
            f(1.0 / bgp_us, 3),
        ]);
        memory.push((lambda, mem as f64));
    }
    table.emit()?;
    println!("Claims (timing columns are printed, never gated):");
    let floor = memory[0].1;
    claims.check(
        "memory falls ≈ 10× from λ = 32 to λ = 0 (at least 9×)",
        memory[16].1 >= 9.0 * floor,
    );
    // The plateau ends where 2^λ nears the table's size: λ ≈ 12 on taz.
    let edge = 12.0 + opts.scale.log2();
    claims.check(
        "memory is flat (within 1 %) below λ ≈ 12, scaled with the table: λ ≤ 12 + lg scale",
        memory
            .iter()
            .filter(|&&(l, _)| f64::from(l) <= edge)
            .all(|&(_, m)| m <= 1.01 * floor),
    );
    pinned("memory is not monotone in λ: λ = 10 is 132 B under λ = 8 at scale 1");
    println!("  timing random-update cost explodes below λ ≈ 5 and flattens above");
    println!("  timing BGP-update cost stays nearly flat across the sweep");
    println!("  timing the λ ∈ [5, 12] plateau sustains ≥ 0.1 Mupd/s (paper ≈ 100 K/s)");
    Ok(())
}

/// Fig. 6 and Fig. 7's Bernoulli parameters.
const BERNOULLI_P: [f64; 7] = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5];

/// Checks the ν claims Figs. 6 and 7 share, `nu` one value a p.
fn check_nu(claims: &mut Claims, nu: &[f64]) {
    claims.check(
        "ν stays around 3 (within 1.5 of it) for moderate H0 (p ≥ 0.1)",
        nu[4..].iter().all(|v| (v - 3.0).abs() <= 1.5),
    );
    claims.check(
        "ν spikes as p → 0: p = 0.005 gives the sweep's largest ν",
        nu[1..].iter().all(|&v| v < nu[0]),
    );
}

fn fig6(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    // One access(d)-shaped prefix set; only the labels change a point,
    // the paper's setup ("we regenerated the next-hops").
    let n_prefixes = ((444_513.0 * opts.scale) as usize).max(64);
    let skeleton: Trie = FibSpec {
        n_prefixes,
        max_len: 25,
        depth_bias: 0.35,
        labels: LabelModel::Uniform { delta: 2 },
        spatial_correlation: 0.0,
        default_route: true,
    }
    .generate(&mut Xoshiro256::seed_from_u64(0xF16));
    let mut table = Table::new(
        "fig6",
        format!("Fig. 6: size and efficiency against Bernoulli p (access(d) shape, N = {n_prefixes}, λ = 11)"),
        "p|H0 model|H0 leaves|E [KB]|pDAG [KB]|serial [KB]|XBW-b [KB]|ν",
    );
    let mut points = Vec::new();
    for p in BERNOULLI_P {
        let model = LabelModel::Bernoulli { p };
        let sampler = model.sampler();
        let mut rng = Xoshiro256::seed_from_u64((p * 1e6) as u64);
        let trie: Trie = skeleton
            .iter()
            .map(|(pre, _)| (pre, sampler.sample(&mut rng)))
            .collect();
        let metrics = FibEntropy::of_trie(&trie);
        let dag = PrefixDag::from_trie(&trie, 11);
        let ser = SerializedDag::from_dag(&dag);
        let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
        // ν on the §4.2 pointer model, which Theorems 1–2 bound.
        let (model_bits, e_bits) = (dag.model_size_bits() as f64, metrics.entropy_bits());
        table.rows.push(vec![
            f(p, 3),
            f(model.h0(), 3),
            f(metrics.h0, 3),
            kb((e_bits / 8.0) as usize),
            kb((model_bits / 8.0) as usize),
            kb(ser.size_bytes()),
            kb(xbw.size_bytes()),
            f(model_bits / e_bits, 2),
        ]);
        let sizes = [
            e_bits,
            model_bits,
            ser.size_bytes() as f64,
            xbw.size_bytes() as f64,
        ];
        points.push((sizes, model_bits / e_bits));
    }
    table.emit()?;
    println!("Claims:");
    claims.check(
        "storage grows with H0: E, pDAG, serialized and XBW-b all rise with p",
        (0..4).all(|k| rising(points.iter().map(|(sizes, _)| sizes[k]))),
    );
    check_nu(
        claims,
        &points.iter().map(|&(_, nu)| nu).collect::<Vec<_>>(),
    );
    pinned("the pDAG model reads 18.5 → 304.9 KB across the sweep at scale 1 (paper ≈ 50 → ≈ 200)");
    Ok(())
}

fn fig7(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    // 2^17 symbols at scale 1, the scale's share of them rounded up to a
    // power of two below (a complete trie needs one).
    let n = (((1u64 << 17) as f64 * opts.scale) as usize).next_power_of_two();
    let mut table = Table::new(
        "fig7",
        format!("Fig. 7: string-model size and efficiency against p (n = {n} Bernoulli symbols)"),
        "p|H0|λ (Eq.3)|size [KB]|nH0 [KB]|ν",
    );
    let (mut sizes, mut nus, mut round_trips) = (Vec::new(), Vec::new(), true);
    for p in BERNOULLI_P {
        let sampler = LabelModel::Bernoulli { p }.sampler();
        let mut rng = Xoshiro256::seed_from_u64((p * 1e6) as u64 ^ 0xF17);
        let symbols: Vec<u16> = (0..n)
            .map(|_| sampler.sample(&mut rng).index() as u16)
            .collect();
        let ones = symbols.iter().filter(|&&s| s == 1).count() as u64;
        let h0 = shannon_entropy(&[ones, n as u64 - ones]);
        let folded = FoldedString::with_entropy_barrier(&symbols);
        round_trips &= symbols.iter().enumerate().all(|(i, &s)| folded.get(i) == s);
        let (size_bits, entropy_bits) = (folded.model_size_bits() as f64, h0 * n as f64);
        table.rows.push(vec![
            f(p, 3),
            f(h0, 3),
            folded.lambda().to_string(),
            kb((size_bits / 8.0) as usize),
            kb((entropy_bits / 8.0) as usize),
            f(size_bits / entropy_bits, 2),
        ]);
        sizes.push(size_bits);
        nus.push(size_bits / entropy_bits);
    }
    table.emit()?;
    println!("Claims:");
    claims.check("size grows with H0", rising(sizes));
    check_nu(claims, &nus);
    claims.check(
        "every symbol of every point reads back from the folded form",
        round_trips,
    );
    pinned("size reads 3.4 → 42.5 KB across the sweep at scale 1 (paper ≈ 10 → ≈ 50)");
    Ok(())
}

fn ablation(opts: &Opts, claims: &mut Claims) -> Result<(), String> {
    // A1: the λ of Eq. (2)/(3) against an exhaustive sweep.
    let mut a1 = Table::new(
        "ablation_a1",
        "A1: barrier formula against a sweep (100K-prefix FIBs)",
        "FIB|leaf H0|λ Eq.(2)|λ Eq.(3)|λ best|size@Eq3|size@best|ratio",
    );
    let mut a1_points = Vec::new();
    for (name, h0) in [("low-H0", 0.3), ("mid-H0", 1.5), ("high-H0", 3.5)] {
        let trie: Trie = FibSpec {
            n_prefixes: 100_000,
            max_len: 25,
            depth_bias: 0.35,
            labels: LabelModel::geometric_for_h0(16, h0),
            spatial_correlation: 0.0,
            default_route: false,
        }
        .generate(&mut Xoshiro256::seed_from_u64(0xAB1));
        let metrics = FibEntropy::of_trie(&trie);
        let l2 = lambda::barrier_info(metrics.n_leaves, metrics.delta, 32);
        let l3 = lambda::barrier_entropy(metrics.n_leaves, metrics.h0, 32);
        let size_at = |l: u8| SerializedDag::from_dag(&PrefixDag::from_trie(&trie, l)).size_bytes();
        let (best, best_size) = (0..=25u8)
            .map(|l| (l, size_at(l)))
            .min_by_key(|&(_, s)| s)
            .expect("λ 0…25");
        let ratio = size_at(l3) as f64 / best_size as f64;
        a1.rows.push(vec![
            name.to_string(),
            f(metrics.h0, 2),
            l2.to_string(),
            l3.to_string(),
            best.to_string(),
            kb(size_at(l3)),
            kb(best_size),
            f(ratio, 2),
        ]);
        a1_points.push((best, ratio));
    }
    a1.emit()?;
    println!("Claims:");
    claims.check(
        "not reproduced: Eq. (3) lands within ~2 of the sweep's optimum at a few percent more \
         space. The smallest image is always fully folded (λ = 0): leaf-pushing above the barrier \
         only un-shares nodes (Fig. 5's memory floor is λ = 0 too), and Eq. (3)'s λ buys cheap \
         updates, Fig. 5's other axis, for at most a third more space (1.10–1.30 measured)",
        a1_points
            .iter()
            .all(|&(best, ratio)| best == 0 && ratio > 1.0 && ratio <= 4.0 / 3.0),
    );

    // A2: XBW-b's two storage modes.
    let trie = taz(opts.scale);
    let metrics = FibEntropy::of_trie(&trie);
    let ctx = FibEntropy::contextual_entropy_bits(&fib_trie::ProperTrie::from_trie(&trie));
    println!(
        "\nnormal form: n = {}, E = {} KB, I = {} KB, depth-conditioned E = {} KB",
        metrics.n_leaves,
        kb((metrics.entropy_bits() / 8.0) as usize),
        kb((metrics.info_bound_bits() / 8.0) as usize),
        kb((ctx / 8.0) as usize),
    );
    let keys: Vec<u32> = (0..20_000u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut a2 = Table::new(
        "ablation_a2",
        format!(
            "A2: XBW-b storage modes (taz stand-in, scale = {})",
            opts.scale
        ),
        "mode|S_I|S_α|S_I KB|S_α KB|root B|total KB|vs E|ns/lookup",
    )
    .timed(1);
    let mut reports = Vec::new();
    for (mode, si, sa, storage) in [
        ("succinct", "plain", "packed", XbwStorage::Succinct),
        ("entropy", "RRR", "WT-huff+RRR", XbwStorage::Entropy),
    ] {
        let xbw = XbwFib::build(&trie, storage);
        let (report, view) = (xbw.size_report(), xbw.view());
        let ((), secs) = timed(|| {
            for &a in &keys {
                std::hint::black_box(view.lookup(std::hint::black_box(a)));
            }
        });
        a2.rows.push(vec![
            mode.to_string(),
            si.to_string(),
            sa.to_string(),
            kb(report.si_bits / 8),
            kb(report.sa_bits / 8),
            (report.root_bits / 8).to_string(),
            kb(report.total_bytes()),
            f(report.total_bits() as f64 / metrics.entropy_bits(), 2),
            f(secs * 1e9 / keys.len() as f64, 0),
        ]);
        reports.push(report);
    }
    a2.emit()?;
    println!("Claims (ns/lookup is printed, never gated):");
    let (succinct, entropy) = (&reports[0], &reports[1]);
    claims.check(
        "the entropy mode is the smaller: RRR shrinks S_I and the Huffman+RRR tree S_α",
        entropy.si_bits < succinct.si_bits && entropy.sa_bits < succinct.sa_bits,
    );
    let n_h0 = metrics.n_leaves as f64 * metrics.h0;
    claims.check(
        "the Huffman+RRR tree takes S_α to ≈ nH0 of the leaf labels (within [1, 1.25] × nH0)",
        (n_h0..=1.25 * n_h0).contains(&(entropy.sa_bits as f64)),
    );
    println!("  timing the entropy mode pays several × the succinct mode's lookup latency");

    // A3: multibit strides against the binary pDAG.
    let mut a3 = Table::new(
        "ablation_a3",
        format!(
            "A3: stride against size and lookup reads (taz stand-in, scale = {})",
            opts.scale
        ),
        "structure|size KB|avg reads|max reads",
    );
    let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
    let (avg, max) = ser.depth_stats(keys.iter().copied());
    // +1: the root-array read.
    a3.rows.push(vec![
        "pDAG λ=11".into(),
        kb(ser.size_bytes()),
        f(avg + 1.0, 2),
        (max + 1).to_string(),
    ]);
    const STRIDES: [u8; 6] = [1, 2, 4, 6, 8, 12];
    let mut strides = Vec::new();
    for stride in STRIDES {
        let mb = MultibitDag::from_trie(&trie, stride);
        let (avg, max) = mb.depth_stats();
        a3.rows.push(vec![
            format!("multibit s={stride}"),
            kb(mb.size_bytes()),
            f(avg, 2),
            max.to_string(),
        ]);
        strides.push((mb.size_bytes(), avg, max));
    }
    a3.emit()?;
    println!("Claims:");
    let longest = strides[0].2;
    claims.check(
        "reads fall with the stride: the mean strictly, the worst to ⌈(s=1's worst) / s⌉",
        rising(strides.iter().rev().map(|s| s.1))
            && STRIDES
                .iter()
                .zip(&strides)
                .all(|(&s, m)| m.2 == longest.div_ceil(u32::from(s))),
    );
    let smallest = (0..strides.len())
        .min_by_key(|&k| strides[k].0)
        .expect("six strides");
    let sizes: Vec<f64> = strides.iter().map(|s| s.0 as f64).collect();
    claims.check(
        "size is U-shaped in the stride, smallest at s = 6 (not at 2–4: sharing survives up to \
         6-bit strides before duplicated slots outgrow the hops they save)",
        STRIDES[smallest] == 6
            && rising(sizes[..=smallest].iter().rev().copied())
            && rising(sizes[smallest..].iter().copied()),
    );
    Ok(())
}

fn report(opts: &Opts, _: &mut Claims) -> Result<(), String> {
    let source = opts.source.as_ref().expect("the parser gives report a FIB");
    let trie = load(source, opts.scale)?;
    let metrics = FibEntropy::of_trie(&trie);
    let l2 = lambda::barrier_info(metrics.n_leaves, metrics.delta, 32);
    let l3 = lambda::barrier_entropy(metrics.n_leaves, metrics.h0, 32);
    let lam = l3.min(25);
    let s = Storage::of(&trie, lam);
    println!("\n-- normal form (Section 2) --");
    println!("routes:            {}", s.n);
    println!("next-hops (δ):     {}", s.delta);
    println!("route H0:          {:.3} bits", s.route_h0);
    println!(
        "mean prefix len:   {:.2}",
        PrefixLenHistogram::from_trie(&trie).mean()
    );
    println!("leaves n:          {}", metrics.n_leaves);
    println!("leaf H0:           {:.3} bits", metrics.h0);
    println!(
        "info bound I:      {} KB",
        f(metrics.info_bound_kbytes(), 1)
    );
    println!("entropy E:         {} KB", f(metrics.entropy_kbytes(), 1));
    println!("λ (Eq. 2):         {l2}");
    println!("λ (Eq. 3):         {l3}");

    let vs = VarStrideDag::from_trie(&trie, VsParams::default());
    let mut table = Table::new("report", "representations", "engine|size KB|ν (vs E)");
    let e_bits = metrics.entropy_bits();
    for (name, bytes) in [
        ("binary trie".to_string(), trie.size_bytes()),
        (
            "fib_trie (kernel model)".into(),
            LcTrie::from_trie(&trie).kernel_model_bytes(),
        ),
        (
            "XBW-b succinct".into(),
            FibLookup::<u32>::size_bytes(&XbwFib::build(&trie, XbwStorage::Succinct)),
        ),
        ("XBW-b entropy".into(), FibLookup::<u32>::size_bytes(&s.xbw)),
        (
            format!("prefix DAG (λ={lam}, model)"),
            s.dag.model_size_bits() / 8,
        ),
        (
            format!("pDAG serialized (λ={lam})"),
            s.serialized.size_bytes(),
        ),
        (
            "multibit DAG (stride 4)".into(),
            MultibitDag::from_trie(&trie, 4).size_bytes(),
        ),
        ("vsdag (DP strides, uniform)".into(), vs.size_bytes()),
    ] {
        table
            .rows
            .push(vec![name, kb(bytes), f(bytes as f64 * 8.0 / e_bits, 2)]);
    }
    table.emit()?;
    println!("\nfold: {:?}", s.dag.stats());
    println!(
        "vsdag: {} runs / {} slots in {} nodes, {}-bit runs",
        vs.run_count(),
        vs.slot_count(),
        vs.node_count(),
        vs.run_width()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Opts, String> {
        Opts::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048), "2.0");
        assert_eq!(f(1.23456, 2), "1.23");
        assert!(rising([1.0, 2.0, 3.0]) && !rising([1.0, 1.0]));
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn both_scale_syntaxes_are_read() {
        for line in [
            "table1 --scale 0.05",
            "table1 --scale=0.05",
            "--scale 0.05 table1",
        ] {
            let opts = parse(line).unwrap();
            assert_eq!((opts.scale, opts.artifacts.len()), (0.05, 1), "{line}");
        }
        let opts = parse("table1 fig7 report --instance taz").unwrap();
        assert_eq!((opts.scale, opts.artifacts.len()), (1.0, 3));
        assert_eq!(opts.source, Some(Source::Instance("taz".into())));
        let opts = parse("report routes.txt").unwrap();
        assert_eq!(opts.source, Some(Source::Routes("routes.txt".into())));
    }

    #[test]
    fn bad_or_unread_arguments_are_refused() {
        for (line, refusal) in [
            ("", "no artifact named"),
            ("table1 --scale=2", "--scale 2: want 0 < S ≤ 1"),
            ("table1 --scale 0", "--scale 0: want 0 < S ≤ 1"),
            ("table1 --scale NaN", "--scale NaN: want 0 < S ≤ 1"),
            ("table1 --scale x", "--scale x: invalid float literal"),
            ("table1 --scale", "--scale: wants a value"),
            ("table1 --scale 0.1 --scale 0.2", "--scale: given twice"),
            ("table1 --seed 3", "--seed: not read by paper"),
            ("table1 --verbose", "--verbose: not read by paper"),
            ("table1 table1", "table1: named twice"),
            ("table3", "table3: not an artifact"),
            ("table1 --instance taz", "--instance: read by report only"),
            ("report", "report: wants --instance NAME or a routes file"),
            (
                "report --instance nowhere",
                "--instance nowhere: not a paper instance",
            ),
            (
                "report --instance taz a.txt",
                "a.txt: a second FIB for report",
            ),
            (
                "report a.txt --scale 0.5",
                "--scale: not read with a routes file",
            ),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(refusal), "{line}");
        }
    }
}
