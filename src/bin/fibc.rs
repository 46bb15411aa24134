//! `fibc` — the FIB image compiler/inspector/server.
//!
//! Drives the whole `fibimage/v1` pipeline from the shell:
//!
//! ```sh
//! # Compile a routes file into an image
//! # (engine: xbw|pdag|serialized|vsdag).
//! fibc compile --engine serialized --routes routes.txt --out fib.img
//!
//! # Or compile a synthetic paper instance (taz, hbone, …) at a scale.
//! fibc compile --engine xbw --instance taz --scale 0.1 --out taz.img
//!
//! # What is in an image?
//! fibc inspect fib.img
//!
//! # Serve lookups from the image (zero-copy view; no rebuild).
//! echo 8.8.8.8 | fibc serve fib.img
//! fibc serve fib.img --probe 100000        # deterministic benchmark probes
//! ```
//!
//! `fibc serve` runs the product's serving path, not one of its own: a
//! single-table image becomes an image-backed `EpochSnapshot`
//! (`EpochSnapshot::from_image`, what a warm restart serves too), a
//! vrfset image a `VrfSnapshot` (`VrfSnapshot::from_image`), published in
//! a `SnapCell` and driven by the forwarding runtime's `Forwarder::run`;
//! what it prints is read off the runtime's `WorkerReport`s, one format
//! for both. Each image kind supplies only its snapshot, its per-worker
//! key stream and its stdin key syntax. Compile and serve pick the engine
//! an image or `--engine` names through `EngineKind::visit`, the one
//! dispatch the engine table generates.
//!
//! Routes files are plain text: one `prefix next_hop_index` pair per line
//! (`10.0.0.0/8 3`, `2001:db8::/32 1`), `#` comments allowed. The address
//! family is inferred from the first route (or forced with `--v6`).

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fibcomp::core::image::sections;
use fibcomp::core::lint as image_lint;
use fibcomp::core::{
    compile_vrf_set, write_image, write_image_hot, write_vrf_image, BuildConfig, CompiledVrfSet,
    EngineKind, EngineVisitor, FibBuild, FibImage, HotConfig, HotSlab, ImageCodec, ImageError,
    RootArray, VarStrideDag, VrfPolicy, VrfTable, XbwStorage,
};
use fibcomp::router::{
    scan_spool, AddressSource, EpochSnapshot, Forwarder, ForwarderConfig, PacingMode, Serve,
    SnapCell, StdFs, VrfSnapshot, WorkerReport,
};
use fibcomp::trie::io::parse_routes;
use fibcomp::trie::{Address, BinaryTrie, ParsePrefixError, Prefix};
use fibcomp::workload::loadgen::{AddrStream, KeyModel};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::vrf::{fleet_weights, instance_fleet, MixedKeys};
use fibcomp::workload::{instances, traces, HeatSummary};

/// `fibc`'s `println!`, shadowing the standard one (which panics once
/// stdout is closed): every line goes through [`emit`].
macro_rules! println {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `fibc`'s one stdout writer. A reader that went away (`fibc inspect
/// IMG | head`) ends the command quietly with status 0, as it ends `cat`;
/// any other stdout error is reported and exits with status 1.
fn emit(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("fibc: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => compile(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("spool-status") => spool_status(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fibc: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  fibc compile --engine <xbw|pdag|serialized|vsdag> \\
               (--routes FILE | --instance NAME [--scale S] [--seed N]) \\
               --out IMG [--v6] [--xbw-mode succinct|entropy] [--lambda N] \\
               [--vs-budget F] [--vs-max-stride N] \\
               [--epoch N] [--no-routes] [--heat [--heat-samples N]]
  fibc compile --vrfs N [--instance NAME] [--scale S] [--overlap F] \\
               [--vrf-policy shared|auto] [--vrf-skew S] [--seed N] \\
               --out IMG    (multi-tenant set: one shared dedup arena)
  fibc inspect IMG
  fibc lint IMG
  fibc serve IMG [--probe N] [--duration S] [--threads N] \\
                 [--keys uniform|zipf|bursty] [--batch N] [--seed N]
                 (--probe: N lookups across all threads, rounded up to
                  whole batches; --duration: S seconds; neither: keys on
                  stdin, batched, one per line: ADDR, or 'VRF ADDR' on a
                  vrfset image, whose --keys skew picks tables)
  fibc serve --spool DIR [--health-every S] [serve options]
                 (newest valid spool image; health one-liner on stderr)
  fibc spool-status DIR
Every command refuses a flag it does not read.";

/// The flags `fibc compile` reads for one table, and with `--vrfs` for a
/// fleet (whose dedicated XBW tables always use entropy storage).
const COMPILE_FLAGS: &str = "--engine --routes --instance --scale --seed --out --v6 --xbw-mode \
    --lambda --vs-budget --vs-max-stride --epoch --no-routes --heat --heat-samples";
const COMPILE_VRFS_FLAGS: &str = "--vrfs --instance --scale --overlap --vrf-policy --vrf-skew \
    --seed --out --epoch --lambda --vs-budget --vs-max-stride";
/// The flags `fibc serve` reads on any image, and with `--spool`.
const SERVE_FLAGS: &str = "--probe --duration --threads --batch --keys --seed";
const SPOOL_FLAGS: &str = "--spool --health-every";

/// Refuses any `--…` argument the space-separated `reads` does not name:
/// a flag `fibc` would not read — a typo, or one of another form of the
/// command — is an error, never silently ignored. `what` names the form.
fn refuse_unread(args: &[String], reads: &str, what: &str) -> Result<(), String> {
    let read = |arg: &String| reads.split_whitespace().any(|f| f == arg);
    match args.iter().find(|a| a.starts_with("--") && !read(a)) {
        Some(unread) => Err(format!("{unread}: not read by {what}")),
        None => Ok(()),
    }
}

/// `--key value` argument lookup.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `--key value` parsed as a `T`; `None` when the flag is absent.
fn parsed<T: FromStr>(args: &[String], key: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let value = opt(args, key).map(str::parse::<T>).transpose();
    value.map_err(|e| format!("{key}: {e}"))
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Reads a routes file in the tabular format `fib_trie::io` parses.
fn read_routes<A: Address>(path: &str) -> Result<BinaryTrie<A>, String>
where
    Prefix<A>: std::str::FromStr<Err = ParsePrefixError>,
{
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let routes = parse_routes::<A>(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(routes.into_iter().collect())
}

fn build_config(args: &[String]) -> Result<BuildConfig, String> {
    let mut config = BuildConfig::default();
    config.lambda = parsed(args, "--lambda")?.or(config.lambda);
    if let Some(budget) = parsed::<f64>(args, "--vs-budget")? {
        // `inf` is the documented "no budget"; NaN would silently mean it.
        if budget.is_nan() || budget <= 0.0 {
            return Err(format!(
                "--vs-budget: want a multiple > 0 or inf, got {budget}"
            ));
        }
        config.vs_budget = budget;
    }
    if let Some(max_stride) = parsed(args, "--vs-max-stride")? {
        if !(1..=16).contains(&max_stride) {
            return Err(format!("--vs-max-stride: want 1..=16, got {max_stride}"));
        }
        config.vs_max_stride = max_stride;
    }
    config.xbw_storage = match opt(args, "--xbw-mode").unwrap_or("entropy") {
        "succinct" => XbwStorage::Succinct,
        "entropy" => XbwStorage::Entropy,
        other => return Err(format!("--xbw-mode: unknown mode '{other}'")),
    };
    Ok(config)
}

fn compile(args: &[String]) -> Result<(), String> {
    if let Some(vrfs) = parsed(args, "--vrfs")? {
        refuse_unread(args, COMPILE_VRFS_FLAGS, "`fibc compile --vrfs`")?;
        return compile_vrfs(args, vrfs);
    }
    refuse_unread(args, COMPILE_FLAGS, "`fibc compile`")?;
    let engine = EngineKind::parse(opt(args, "--engine").ok_or("--engine is required")?)
        .ok_or("unknown engine (want xbw|pdag|serialized|vsdag)")?;
    if engine == EngineKind::VrfSet {
        return Err("vrfset images hold many tables; compile one with --vrfs N".into());
    }
    let out = opt(args, "--out").ok_or("--out is required")?;
    let epoch = parsed(args, "--epoch")?.unwrap_or(0);
    let config = build_config(args)?;
    let with_routes = !flag(args, "--no-routes");
    // --heat: sample a Zipf-skewed trace over the routes, compile a hot
    // slab from it, and embed it as the image's HOT_SLAB section (image
    // views then front every lookup with the slab for free).
    let samples = parsed(args, "--heat-samples")?.unwrap_or(65536);
    let heat = flag(args, "--heat").then_some(samples);

    if flag(args, "--v6") {
        let routes = opt(args, "--routes").ok_or("--routes is required with --v6")?;
        let trie = read_routes::<u128>(routes)?;
        compile_trie(&trie, engine, &config, epoch, with_routes, heat, out)
    } else if let Some(routes) = opt(args, "--routes") {
        let trie = read_routes::<u32>(routes)?;
        compile_trie(&trie, engine, &config, epoch, with_routes, heat, out)
    } else if let Some(name) = opt(args, "--instance") {
        let scale = parsed(args, "--scale")?.unwrap_or(1.0);
        let seed = parsed(args, "--seed")?.unwrap_or(3851);
        let trie = instances::scaled(name, scale, seed)
            .ok_or_else(|| format!("unknown paper instance '{name}'"))?;
        compile_trie(&trie, engine, &config, epoch, with_routes, heat, out)
    } else {
        Err("need --routes FILE or --instance NAME".into())
    }
}

fn compile_trie<A: Address + Send + Sync + 'static>(
    trie: &BinaryTrie<A>,
    engine: EngineKind,
    config: &BuildConfig,
    epoch: u64,
    with_routes: bool,
    heat: Option<usize>,
    out: &str,
) -> Result<(), String> {
    let routes = with_routes.then_some(trie);
    // --heat drives two things off the same sampled trace: the HOT_SLAB
    // section every engine can front lookups with, and — for heat-aware
    // engines like vsdag — the per-node traffic weights its stride DP
    // lays the table out around (via `FibBuild::build_weighted`).
    let sampled = match heat {
        None => None,
        Some(samples) => {
            let hot_config = HotConfig::for_width(A::WIDTH);
            let zipf = traces::ZipfTrace::new(trie, 1.0);
            let addrs = zipf.generate(&mut Xoshiro256::seed_from_u64(0x4EA7), samples);
            let summary = HeatSummary::sample_addrs(hot_config.depth, addrs.iter().copied());
            let (slab, stats) = HotSlab::compile(trie, summary.entries(), &hot_config);
            println!(
                "hot slab: depth {} promoted {} ({} impure, {} dropped), \
                 coverage {:.3} of {} sampled packets",
                slab.depth(),
                stats.promoted,
                stats.impure,
                stats.dropped,
                stats.coverage,
                samples
            );
            Some((slab, summary))
        }
    };
    let slab = sampled.as_ref().map(|(slab, _)| slab);
    let weights = sampled
        .as_ref()
        .map(|(_, summary)| (summary.entries(), summary.depth()));
    let encode = Encode {
        trie,
        config,
        routes,
        epoch,
        slab,
        weights,
    };
    let bytes = engine
        .visit(encode)
        .and_then(|encoded| encoded)
        .map_err(|e| e.to_string())?;
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "compiled {} routes -> {} ({} engine, {} bytes)",
        trie.len(),
        out,
        engine.name(),
        bytes.len()
    );
    if engine == EngineKind::VsDag {
        // What the run collapse bought, read back from the image itself.
        let image = FibImage::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let shape = <VarStrideDag<A> as ImageCodec<A>>::view(&image)
            .map_err(|e| e.to_string())?
            .shape();
        println!(
            "vsdag: {} runs / {} slots, {}-bit runs",
            shape.runs, shape.slots, shape.run_width
        );
    }
    Ok(())
}

/// `fibc compile`'s work for the engine `--engine` names: build it over
/// the trie (heat-weighted when `--heat` sampled a profile) and encode it,
/// with the slab section when there is one.
struct Encode<'a, A: Address> {
    trie: &'a BinaryTrie<A>,
    config: &'a BuildConfig,
    routes: Option<&'a BinaryTrie<A>>,
    epoch: u64,
    slab: Option<&'a HotSlab>,
    weights: Option<(&'a [(u64, u64)], u8)>,
}

impl<A: Address> EngineVisitor<A> for Encode<'_, A> {
    type Output = Result<Vec<u8>, ImageError>;

    fn visit<E>(self) -> Self::Output
    where
        E: ImageCodec<A> + FibBuild<A> + Send + Sync + 'static,
    {
        let engine = E::build_weighted(self.trie, self.config, self.weights);
        match self.slab {
            Some(slab) => write_image_hot(&engine, self.routes, self.epoch, slab),
            None => write_image(&engine, self.routes, self.epoch),
        }
    }
}

/// `fibc compile --vrfs N`: derives a multi-tenant fleet from a paper
/// instance (90% shared base / 10% per-VRF churn by default), compiles
/// it into one shared dedup arena under the chosen placement policy, and
/// reports the sharing ratio against independent compilation.
fn compile_vrfs(args: &[String], vrfs: usize) -> Result<(), String> {
    if vrfs == 0 {
        return Err("--vrfs: need at least one table".into());
    }
    let out = opt(args, "--out").ok_or("--out is required")?;
    let epoch = parsed(args, "--epoch")?.unwrap_or(0);
    let config = build_config(args)?;
    let instance = opt(args, "--instance").unwrap_or("taz");
    let scale = parsed(args, "--scale")?.unwrap_or(1.0);
    let overlap = parsed(args, "--overlap")?.unwrap_or(0.9);
    if !(0.0..=1.0).contains(&overlap) {
        return Err(format!("--overlap: want 0.0..=1.0, got {overlap}"));
    }
    let skew = parsed(args, "--vrf-skew")?.unwrap_or(1.0);
    let seed = parsed(args, "--seed")?.unwrap_or(3851);
    let policy = match opt(args, "--vrf-policy").unwrap_or("shared") {
        "shared" => VrfPolicy::Shared,
        // Keyed by the ids the tables get below, 0..N.
        "auto" => VrfPolicy::Auto {
            weights: (0..).zip(fleet_weights(vrfs, skew)).collect(),
        },
        other => return Err(format!("--vrf-policy: unknown policy '{other}'")),
    };
    let fleet = instance_fleet(instance, scale, vrfs, overlap, seed)
        .ok_or_else(|| format!("unknown paper instance '{instance}'"))?;
    let tables: Vec<VrfTable<'_, u32>> = fleet
        .iter()
        .enumerate()
        .map(|(i, trie)| VrfTable { id: i as u32, trie })
        .collect();
    let set = compile_vrf_set(&tables, &config, &policy);
    let bytes = write_vrf_image(&set, epoch).map_err(|e| e.to_string())?;
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    let stats = &set.stats;
    println!(
        "compiled {vrfs} VRFs from {instance} (overlap {overlap}) -> {out} ({} bytes)",
        bytes.len()
    );
    println!(
        "  shared arena   {} unique nodes for {} reachable ({:.2}x sharing, {} tables)",
        stats.unique_nodes,
        stats.total_nodes,
        stats.sharing_ratio(),
        stats.shared_tables
    );
    println!(
        "  resident       {} B vs {} B independent ({:.1}% saved)",
        stats.resident_bytes(),
        stats.independent_bytes,
        stats.bytes_saved() as f64 / stats.independent_bytes.max(1) as f64 * 100.0
    );
    Ok(())
}

/// A section's name: an engine section's from its codec's `SECTIONS`,
/// the rest from here.
fn section_name(id: u32) -> &'static str {
    match id {
        sections::ROUTES => "routes",
        sections::HOT_SLAB => "hot.slab",
        sections::VRF_DIR => "vrf.dir",
        sections::VRF_PDAG => "vrf.pdag",
        _ if id >= sections::VRF_TABLE_BASE => "vrf.table",
        _ => EngineKind::ALL
            .iter()
            .flat_map(|kind| kind.sections())
            .find(|&&(section, _)| section == id)
            .map_or("unknown", |&(_, name)| name),
    }
}

fn inspect(args: &[String]) -> Result<(), String> {
    refuse_unread(args, "", "`fibc inspect`")?;
    let path = args.first().ok_or("usage: fibc inspect IMG")?;
    let image = FibImage::load(path).map_err(|e| e.to_string())?;
    let engine = image.engine().map(EngineKind::name).unwrap_or("<unknown>");
    println!("fibimage v{}", image.version());
    println!("  engine        {engine} (id {})", image.engine_id());
    println!("  family        IPv{}", image.family());
    println!("  routes        {}", image.route_count());
    if image.prefix_count() > 0 {
        println!("  leaves        {}", image.prefix_count());
    }
    println!("  epoch         {}", image.epoch());
    println!("  file size     {} bytes", image.words().len() * 8);
    println!("  sections      {}", image.section_table().len());
    let mut engine_payload = 0usize;
    for entry in image.section_table() {
        let bytes = entry.len * 8;
        if entry.id != sections::ROUTES && entry.id != sections::PARAMS {
            engine_payload += bytes;
        }
        println!(
            "    {:<20} id {:#04x}  offset {:>10} B  size {:>10} B",
            section_name(entry.id),
            entry.id,
            entry.offset * 8,
            bytes
        );
    }
    let claimed = image.claimed_size_bytes();
    println!("  engine payload  {engine_payload} bytes");
    println!("  claimed size    {claimed} bytes (engine's own size_bytes at compile time)");
    if claimed > 0 {
        let drift = (engine_payload as f64 - claimed as f64) / claimed as f64 * 100.0;
        println!("  accounting drift {drift:+.2}%");
    }
    if image.engine() == Ok(EngineKind::VrfSet) {
        match image.family() {
            4 => inspect_vrfs::<u32>(&image)?,
            6 => inspect_vrfs::<u128>(&image)?,
            other => return Err(format!("unknown address family {other}")),
        }
    }
    Ok(())
}

/// The vrfset half of `inspect`: aggregate dedup stats, then one row per
/// VRF (placement, routes, and its share of the arena).
fn inspect_vrfs<A: Address>(image: &FibImage) -> Result<(), String> {
    let set = CompiledVrfSet::<A>::from_image(image).map_err(|e| e.to_string())?;
    let stats = &set.stats;
    println!("  vrf set");
    println!(
        "    tables        {} ({} on the shared arena)",
        stats.tables, stats.shared_tables
    );
    println!(
        "    shared arena  {} unique nodes for {} reachable ({:.2}x sharing)",
        stats.unique_nodes,
        stats.total_nodes,
        stats.sharing_ratio()
    );
    let array_bytes = std::mem::size_of::<RootArray>() as u64;
    println!(
        "    root arrays   {} B ({} tables x {array_bytes} B, derived at load)",
        stats.root_bytes,
        stats.root_bytes / array_bytes
    );
    println!(
        "    resident      {} B vs {} B independent ({:.1}% saved)",
        stats.resident_bytes(),
        stats.independent_bytes,
        stats.bytes_saved() as f64 / stats.independent_bytes.max(1) as f64 * 100.0
    );
    for t in &set.tables {
        println!(
            "    vrf {:>5}  {:<12} {:>9} routes  {:>9} arena nodes ({:>9} solo)",
            t.id,
            t.choice().name(),
            t.routes,
            t.reachable_nodes,
            t.solo_nodes
        );
    }
    Ok(())
}

/// Deep structural analysis: every issue as `code: detail`, one per
/// line, non-zero exit when anything is wrong. Unlike `inspect`, this
/// re-derives the image's redundant structure (rank directories, DAG
/// shape, section layout) and cross-checks it — a file can pass the
/// checksum and still fail lint.
fn lint(args: &[String]) -> Result<(), String> {
    refuse_unread(args, "", "`fibc lint`")?;
    let path = args.first().ok_or("usage: fibc lint IMG")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let issues = image_lint::lint_bytes(&bytes);
    if issues.is_empty() {
        println!("lint: clean");
        return Ok(());
    }
    for i in &issues {
        println!("{i}");
    }
    Err(format!("{}: {} issue(s)", path, issues.len()))
}

fn serve(args: &[String]) -> Result<(), String> {
    if let Some(dir) = opt(args, "--spool") {
        return serve_spool(dir, args);
    }
    let path = args.first().ok_or(
        "usage: fibc serve IMG [--probe N] [--duration S] [--threads N] \
         [--keys uniform|zipf|bursty] [--batch N] [--seed N]",
    )?;
    serve_image(FibImage::load(path).map_err(|e| e.to_string())?, args)
}

/// `fibc serve --spool DIR`: serves the newest image in the spool that
/// lints clean (what a warm restart would pick), with a periodic
/// one-line health snapshot on stderr so an operator tailing the log
/// sees quarantine growth or a journal that stopped bridging.
fn serve_spool(dir: &str, args: &[String]) -> Result<(), String> {
    let fs = StdFs::shared();
    let spool_dir = Path::new(dir).to_path_buf();
    let status = scan_spool(fs.as_ref(), &spool_dir).map_err(|e| format!("{dir}: {e}"))?;
    eprintln!("{status}");
    let picked = status
        .images
        .iter()
        .find(|i| i.issues.is_empty())
        .ok_or_else(|| format!("{dir}: no image lints clean (verdict {})", status.verdict()))?;
    let every = parsed(args, "--health-every")?.unwrap_or(10.0);
    if every > 0.0 {
        let ticker_dir = spool_dir.clone();
        // Detached on purpose: the ticker lives exactly as long as the
        // serve loop's process and holds no state worth joining.
        std::thread::spawn(move || {
            let fs = StdFs::shared();
            loop {
                std::thread::sleep(Duration::from_secs_f64(every));
                match scan_spool(fs.as_ref(), &ticker_dir) {
                    Ok(s) => eprintln!("{s}"),
                    Err(e) => eprintln!("spool scan failed: {e}"),
                }
            }
        });
    }
    serve_image(
        FibImage::load(&picked.path).map_err(|e| e.to_string())?,
        args,
    )
}

fn serve_image(image: FibImage, args: &[String]) -> Result<(), String> {
    match image.family() {
        4 => serve_family::<u32>(image, args),
        6 => serve_family::<u128>(image, args),
        other => Err(format!("unknown address family {other}")),
    }
}

/// Offline spool report: the one-line verdict, then per-image lint and
/// quarantine detail. Exits non-zero when nothing in the spool could
/// serve a warm restart.
fn spool_status(args: &[String]) -> Result<(), String> {
    refuse_unread(args, "", "`fibc spool-status`")?;
    let dir = args.first().ok_or("usage: fibc spool-status DIR")?;
    let fs = StdFs::shared();
    let status = scan_spool(fs.as_ref(), Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    println!("{status}");
    for img in &status.images {
        let verdict = if img.issues.is_empty() {
            "clean"
        } else {
            "CORRUPT"
        };
        println!(
            "  epoch {:>20}  {:>10} B  {:<7}  {}",
            img.epoch,
            img.bytes,
            verdict,
            img.path.display()
        );
        for issue in &img.issues {
            println!("    {issue}");
        }
    }
    for reason in &status.quarantine_reasons {
        println!("  quarantined  {reason}");
    }
    if status.verdict() == "no-valid-image" {
        return Err(format!("{dir}: no valid image in spool"));
    }
    Ok(())
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    let seed_text = opt(args, "--seed").unwrap_or("31410");
    match seed_text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => seed_text.parse(),
    }
    .map_err(|e| format!("--seed: {e}"))
}

/// What `fibc serve` says about the image's hot slab: its pinned blocks
/// and what the gate in front of it currently decides.
fn slab_line<E>(snapshot: &EpochSnapshot<E>) -> String {
    let (Some(slab), Some(bypassed)) = (snapshot.hot_slab(), snapshot.hot_bypassed()) else {
        return "no hot slab".into();
    };
    let gate = if bypassed { "bypassed" } else { "probing" };
    format!("hot slab: {} blocks, gate {gate}", slab.occupied())
}

/// `fibc serve`'s forwarding-runtime run — `--probe N` or `--duration S`
/// and the flags that shape it — the same on every image kind.
struct ServeRun {
    /// `--probe`'s budget, which the workers share.
    probes: Option<usize>,
    config: ForwarderConfig,
    model: KeyModel,
    seed: u64,
}

impl ServeRun {
    /// The run `args` ask for; `None` (serve stdin) when they name
    /// neither `--probe` nor `--duration`.
    fn parse(args: &[String]) -> Result<Option<Self>, String> {
        let probes = parsed(args, "--probe")?;
        let duration: Option<f64> = parsed(args, "--duration")?;
        if probes.is_none() && duration.is_none() {
            return Ok(None);
        }
        let threads: usize = parsed(args, "--threads")?.unwrap_or(1);
        let batch: usize = parsed(args, "--batch")?.unwrap_or(256);
        let keys = opt(args, "--keys").unwrap_or("uniform");
        let model =
            KeyModel::parse(keys).ok_or_else(|| format!("--keys: unknown model '{keys}'"))?;
        let config = ForwarderConfig {
            threads: threads.max(1),
            batch: batch.max(1),
            duration: duration.map_or(Duration::MAX, Duration::from_secs_f64),
            pacing: PacingMode::Closed,
        };
        let seed = parse_seed(args)?;
        Ok(Some(Self {
            probes,
            config,
            model,
            seed,
        }))
    }

    /// Runs [`Forwarder::run`] over `snapshot`, worker `i` drawing its
    /// keys from `make_source(i)`, and prints one line per worker and the
    /// pool's total via `engine`, all read off the [`WorkerReport`]s.
    fn serve<K, T: Serve<K>, S: AddressSource<K>>(
        &self,
        snapshot: &Arc<T>,
        make_source: impl Fn(usize) -> S + Sync,
        engine: &str,
    ) {
        let cell = SnapCell::new(Arc::clone(snapshot));
        // --probe is a budget the pool shares: the source whose batch uses
        // it up stops the pool, so every worker finishes the batch it is
        // on and the total is N rounded up to whole batches (below
        // N + threads × batch).
        let forwarder = Forwarder::new();
        let claimed = AtomicUsize::new(0);
        let reports = forwarder.run(&cell, &self.config, |worker| {
            let mut source = make_source(worker);
            let (forwarder, claimed, probes) = (&forwarder, &claimed, self.probes);
            move |buf: &mut Vec<K>, n: usize| {
                source.fill(buf, n);
                let Some(total) = probes else { return };
                // ordering: Relaxed — a work counter: only its own total
                // is read, and the pool's join publishes everything else.
                if claimed.fetch_add(n, Ordering::Relaxed) + n >= total {
                    forwarder.stop();
                }
            }
        });
        let mut hist = reports[0].hist.clone();
        for r in &reports[1..] {
            hist.merge(&r.hist);
        }
        for r in &reports {
            println!(
                "worker {}: {} pkts ({} matched), {:.2} Mlps, p50 {:.1} ns, p99 {:.1} ns",
                r.worker,
                r.packets,
                r.matched,
                r.mlookups_per_s(),
                r.hist.p50(),
                r.hist.p99()
            );
        }
        let packets: u64 = reports.iter().map(|r| r.packets).sum();
        let matched: u64 = reports.iter().map(|r| r.matched).sum();
        let mlps: f64 = reports.iter().map(WorkerReport::mlookups_per_s).sum();
        let (keys, threads, batch) = (self.model.name(), self.config.threads, self.config.batch);
        println!(
            "total via {engine} ({keys}, {threads} thr, batch {batch}): {packets} pkts \
             ({matched} matched), {mlps:.2} Mlps, p50 {:.1} ns, p99 {:.1} ns",
            hist.p50(),
            hist.p99()
        );
    }
}

/// `fibc serve`'s work for the engine a single-table image encodes: an
/// image-backed [`EpochSnapshot`] of it, keyed by addresses (drawn from
/// the image's routes under `--keys zipf|bursty`).
struct ServeTable<'a> {
    image: FibImage,
    run: Option<&'a ServeRun>,
}

impl<A: Address + KeyText + Send + Sync + 'static> EngineVisitor<A> for ServeTable<'_> {
    type Output = Result<(), String>;

    fn visit<E>(self) -> Self::Output
    where
        E: ImageCodec<A> + FibBuild<A> + Send + Sync + 'static,
    {
        let ServeTable { image, run } = self;
        // Decode the routes section once, before the snapshot takes the
        // image; every worker shares it by reference (Zipf/bursty streams
        // build their own popularity model, but the trie decode is the
        // expensive part).
        let fib: Option<BinaryTrie<A>> = match run {
            Some(run) if run.model != KeyModel::Uniform => Some(image.routes().map_err(|e| {
                let keys = run.model.name();
                format!("--keys {keys} needs the image's routes section ({e}); use --keys uniform")
            })?),
            _ => None,
        };
        let snapshot = EpochSnapshot::<E>::from_image(image).map_err(|e| e.to_string())?;
        let Some(run) = run else {
            // Stdout carries only answers; the slab line goes where parse
            // errors go.
            eprintln!("{}", slab_line(&snapshot));
            return serve_stdin::<A, _>(&*snapshot);
        };
        let make_source = |worker| {
            let mut stream = match &fib {
                Some(fib) => AddrStream::new(run.model, fib, run.seed, worker as u64),
                None => AddrStream::uniform(run.seed, worker as u64),
            };
            move |buf: &mut Vec<A>, n: usize| stream.fill(buf, n)
        };
        run.serve(&snapshot, make_source, E::ENGINE.name());
        println!("{}", slab_line(&snapshot));
        Ok(())
    }
}

/// `fibc serve` on a vrfset image: a [`VrfSnapshot`] of the fleet, keyed
/// by `(vrf, addr)` pairs. `--keys zipf|bursty` skews table popularity;
/// addresses stay uniform (key locality inside a table is not modelled).
fn serve_fleet<A: Address + KeyText + Send + Sync + 'static>(
    image: &FibImage,
    run: Option<&ServeRun>,
) -> Result<(), String> {
    let snapshot = VrfSnapshot::<A>::from_image(image).map_err(|e| e.to_string())?;
    let Some(run) = run else {
        return serve_stdin::<(u32, A), _>(&*snapshot);
    };
    // Keys draw table slots (directory order), so skew lands on real ids
    // even when they are sparse.
    let ids: Vec<u32> = snapshot.set().tables.iter().map(|t| t.id).collect();
    if ids.is_empty() {
        return Err("vrf set holds no tables".into());
    }
    let weights = (run.model != KeyModel::Uniform).then(|| fleet_weights(ids.len(), 1.0));
    let (ids, weights) = (&ids, weights.as_deref());
    let make_source = |worker| {
        let seed = run.seed.wrapping_add(worker as u64);
        let mut keys = MixedKeys::<A>::new(ids.len(), weights, seed);
        move |buf: &mut Vec<(u32, A)>, n: usize| {
            buf.clear();
            buf.extend((keys.by_ref().take(n)).map(|(slot, addr)| (ids[slot as usize], addr)));
        }
    };
    run.serve(&snapshot, make_source, EngineKind::VrfSet.name());
    Ok(())
}

fn serve_family<A: Address + KeyText + Send + Sync + 'static>(
    image: FibImage,
    args: &[String],
) -> Result<(), String> {
    let spool = if flag(args, "--spool") {
        SPOOL_FLAGS
    } else {
        ""
    };
    refuse_unread(args, &format!("{SERVE_FLAGS} {spool}"), "`fibc serve`")?;
    let run = ServeRun::parse(args)?;
    match image.engine().map_err(|e| e.to_string())? {
        EngineKind::VrfSet => serve_fleet::<A>(&image, run.as_ref()),
        kind => (kind.visit::<A, _>(ServeTable {
            image,
            run: run.as_ref(),
        }))
        .map_err(|e| e.to_string())
        .and_then(|served| served),
    }
}

/// Interactive/pipe mode: one key per line on stdin (`#` starts a
/// comment; blank lines are skipped), resolved in batches through the
/// snapshot's batch path, answers on stdout in input order, unreadable
/// lines on stderr. Batching must never delay an answer a slow producer
/// is waiting for (a terminal, a lockstep coprocess, `tail -f`), so the
/// queue is flushed whenever the read buffer drains — a full pipe keeps
/// batching, a line-at-a-time producer gets a line-at-a-time echo.
fn serve_stdin<K: KeyText, T: Serve<K>>(snapshot: &T) -> Result<(), String> {
    const STDIN_BATCH: usize = 1024;
    let mut texts: Vec<String> = Vec::with_capacity(STDIN_BATCH);
    let mut keys: Vec<K> = Vec::with_capacity(STDIN_BATCH);
    let mut out = vec![None; STDIN_BATCH];
    let mut scratch = T::Scratch::default();
    let mut flush = |texts: &mut Vec<String>, keys: &mut Vec<K>| {
        snapshot.serve(keys, &mut out[..keys.len()], &mut scratch);
        for (text, nh) in texts.iter().zip(&out) {
            match nh {
                Some(nh) => println!("{text} -> {nh}"),
                None => println!("{text} -> no route"),
            }
        }
        texts.clear();
        keys.clear();
    };
    let stdin = std::io::stdin();
    let mut reader = std::io::BufReader::new(stdin.lock());
    let mut line = String::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut reader, &mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        let text = line.split('#').next().unwrap_or_default().trim();
        let drained = reader.buffer().is_empty();
        if text.is_empty() {
            if drained {
                flush(&mut texts, &mut keys);
            }
            continue;
        }
        match K::parse_key(text) {
            Ok(key) => {
                texts.push(text.to_string());
                keys.push(key);
                if drained || keys.len() == STDIN_BATCH {
                    flush(&mut texts, &mut keys);
                }
            }
            Err(e) => {
                // Keep output order: answer everything queued, then the
                // error.
                flush(&mut texts, &mut keys);
                eprintln!("{text}: {e}");
            }
        }
    }
    flush(&mut texts, &mut keys);
    Ok(())
}

/// A key's text on `fibc serve`'s stdin: an address per family (dotted
/// quad / RFC 5952), or `VRF ADDR` on a vrfset image.
trait KeyText: Sized {
    fn parse_key(text: &str) -> Result<Self, String>;
}

impl KeyText for u32 {
    fn parse_key(text: &str) -> Result<Self, String> {
        text.parse::<std::net::Ipv4Addr>()
            .map(u32::from)
            .map_err(|e| e.to_string())
    }
}

impl KeyText for u128 {
    fn parse_key(text: &str) -> Result<Self, String> {
        text.parse::<std::net::Ipv6Addr>()
            .map(u128::from)
            .map_err(|e| e.to_string())
    }
}

impl<A: KeyText> KeyText for (u32, A) {
    fn parse_key(text: &str) -> Result<Self, String> {
        let (vrf, addr) = text
            .split_once(char::is_whitespace)
            .ok_or("want 'VRF ADDR'")?;
        let vrf = vrf.parse().map_err(|e| format!("bad VRF id: {e}"))?;
        Ok((vrf, A::parse_key(addr.trim_start())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(args: &[&str]) -> Result<BuildConfig, String> {
        build_config(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn build_config_rejects_vs_knobs_the_compiler_cannot_take() {
        for bad in [
            ["--vs-max-stride", "0"],
            ["--vs-max-stride", "17"],
            ["--vs-budget", "nan"],
            ["--vs-budget", "-1"],
            ["--vs-budget", "0"],
        ] {
            let err = config_of(&bad).expect_err(bad[1]);
            assert!(err.starts_with(bad[0]) && !err.contains('\n'), "{err}");
        }
        let unbounded = config_of(&["--vs-budget", "inf", "--vs-max-stride", "16"]).unwrap();
        assert!(unbounded.vs_budget.is_infinite() && unbounded.vs_max_stride == 16);
    }
}
