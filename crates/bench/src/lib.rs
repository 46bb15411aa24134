//! Shared infrastructure for the table/figure harness binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! (Section 5) and prints it as an aligned text table with the published
//! numbers alongside, so shape-level agreement is visible at a glance:
//!
//! * `table1` — storage sizes (I, E, XBW-b, pDAG, ν, η) for all 11 FIBs,
//! * `table2` — the lookup benchmark (sizes, depths, Mlps, cycles, cache
//!   misses) on the taz stand-in,
//! * `fig5`   — update time vs. memory across λ = 0…32,
//! * `fig6`   — size and compression efficiency vs. Bernoulli entropy,
//! * `fig7`   — the same in the string model,
//! * `ablation` — λ-formula and storage-backend ablations (not in the
//!   paper; supports the design discussion of §4),
//! * `fibreport` — a Table 1 row for any FIB: entropy metrics, the
//!   Eq. (2)/(3) barriers and every representation's size.
//!
//! Per-engine lookup, update and build timings are `benchmark/`'s
//! per-layer rows; §5.3's multicore scaling claim is read with
//! `fibc serve IMG --threads T`, the product's forwarding runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Formats and prints an aligned table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    };
    fmt_row(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        fmt_row(row);
    }
}

/// Writes rows as tab-separated values to `out/<name>.tsv` (for plotting),
/// creating the directory if needed. Errors are reported, not fatal.
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.tsv"));
    let mut content = header.join("\t");
    content.push('\n');
    for row in rows {
        content.push_str(&row.join("\t"));
        content.push('\n');
    }
    match std::fs::write(&path, content) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Measures the mean nanoseconds per call of `f` over `iters` calls,
/// using a black box to keep the optimizer honest.
pub fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Formats a byte count as KBytes with one decimal.
#[must_use]
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats a float with the given precision.
#[must_use]
pub fn f(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

/// Builds a paper-instance stand-in FIB, optionally scaled down for quick
/// runs (`scale = 1.0` reproduces the published prefix count).
///
/// # Panics
/// Panics if the instance name is unknown.
#[must_use]
pub fn instance_fib(name: &str, scale: f64, seed: u64) -> fib_trie::BinaryTrie<u32> {
    fib_workload::instances::scaled(name, scale, seed)
        .unwrap_or_else(|| panic!("unknown paper instance '{name}'"))
}

/// Parses a `--scale=X` argument from the command line, defaulting to 1.0.
#[must_use]
pub fn scale_arg() -> f64 {
    for arg in std::env::args() {
        if let Some(v) = arg.strip_prefix("--scale=") {
            match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 1.0 => return s,
                _ => eprintln!("ignoring bad --scale value '{v}' (want 0 < s ≤ 1)"),
            }
        }
    }
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048), "2.0");
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
