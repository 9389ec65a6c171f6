//! Stamps the compiler version and the source revision into the bench
//! binaries, so `perf_baseline` can name the toolchain and the commit that
//! built the measured code — wherever the binary is later run from, and
//! without spawning `rustc` or `git` at run time.

use std::path::Path;
use std::process::Command;

/// Trimmed stdout of a successful command, if any.
fn stdout_of(cmd: &mut Command) -> Option<String> {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=ANONET_BENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");

    // The revision of the checkout this crate is built from ("unknown" in
    // an export without git metadata). Cargo re-runs this script when HEAD
    // moves (a checkout, or a commit advancing the branch it names) or the
    // index changes, and when a workspace source file changes, so the
    // `-dirty` mark follows edits too.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let git = |args: &[&str]| stdout_of(Command::new("git").args(args).current_dir(&manifest_dir));
    let rev = git(&["describe", "--always", "--dirty", "--abbrev=12"]);
    println!("cargo:rustc-env=ANONET_BENCH_GIT_REV={}", rev.as_deref().unwrap_or("unknown"));
    let (Some(git_dir), Some(top)) =
        (git(&["rev-parse", "--absolute-git-dir"]), git(&["rev-parse", "--show-toplevel"]))
    else {
        return;
    };
    // Only paths that exist: Cargo re-runs a script on every build while a
    // path it watches is missing.
    let watch = |path: &Path| {
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    };
    let git_dir = Path::new(&git_dir);
    let head = git_dir.join("HEAD");
    watch(&head);
    if let Some(branch) =
        std::fs::read_to_string(&head).ok().and_then(|h| h.strip_prefix("ref: ").map(str::to_owned))
    {
        // A packed ref has no file of its own; `packed-refs` holds it.
        watch(&git_dir.join(branch.trim()));
        watch(&git_dir.join("packed-refs"));
    }
    watch(&git_dir.join("index"));
    for entry in ["crates", "src", "Cargo.toml", "Cargo.lock"] {
        watch(&Path::new(&top).join(entry));
    }
}
