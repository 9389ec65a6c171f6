//! The experiment bins' stdout as a committed contract: each bin other than
//! `perf_baseline` runs with its fixed seeds, and its stdout must match
//! `crates/bench/golden/<bin>.txt` byte for byte. A failure names the first
//! differing line.
//!
//! A bin whose output changes on purpose is regenerated by running it and
//! committing the new file, with the reason in CHANGES.md:
//!
//! ```text
//! cargo run --release -p anonet-bench --bin <bin> > crates/bench/golden/<bin>.txt
//! ```
//!
//! `solver_portfolio` names the JSON file it writes in its stdout, so it
//! runs with no argument, writing its default `BENCH_portfolio.json` into
//! the working directory — here a temporary one. That file must match the
//! `BENCH_portfolio.json` committed at the repository root, which is
//! regenerated by running the bin there:
//!
//! ```text
//! cargo run --release -p anonet-bench --bin solver_portfolio
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `exe` (in `dir` when given) and compares its stdout with the golden
/// file of `bin`.
fn check(bin: &str, exe: &str, dir: Option<&PathBuf>) {
    let mut cmd = Command::new(exe);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("{bin}: cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{bin}.txt"));
    let regen =
        format!("cargo run --release -p anonet-bench --bin {bin} > crates/bench/golden/{bin}.txt");
    assert_same(&format!("{bin}: stdout"), &out.stdout, &path, &regen);
}

/// Panics unless `got` equals the file at `path` byte for byte, naming the
/// first differing line and the command `regen` that rewrites the file.
fn assert_same(what: &str, got: &[u8], path: &Path, regen: &str) {
    let want = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    let mut line = 1;
    let (g, w) = loop {
        match (got_lines.next(), want_lines.next()) {
            (g, w) if g != w => break (g, w),
            (None, None) => break (Some("(line endings differ)"), None),
            _ => line += 1,
        }
    };
    panic!(
        "{what} differs from {} at line {line}\n  golden: {}\n  actual: {}\n\
         If the change is intended, regenerate the file:\n  {regen}",
        path.display(),
        w.unwrap_or("(end of output)"),
        g.unwrap_or("(end of output)"),
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), None);
        }
    )*};
}

golden!(
    ablation,
    fig1_trace,
    fig2_trace,
    fig_broadcast_vc,
    fig_rounds_sc,
    fig_rounds_vc,
    fig_symmetry,
    table1,
    tbl_approx,
    tbl_lower_bound,
    tbl_selfstab,
);

#[test]
fn solver_portfolio() {
    let dir = std::env::temp_dir().join(format!("anonet-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    check("solver_portfolio", env!("CARGO_BIN_EXE_solver_portfolio"), Some(&dir));
    let json = std::fs::read(dir.join("BENCH_portfolio.json")).expect("read the written JSON");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_portfolio.json");
    assert_same(
        "solver_portfolio: BENCH_portfolio.json",
        &json,
        &committed,
        "cargo run --release -p anonet-bench --bin solver_portfolio  # at the repository root",
    );
}
