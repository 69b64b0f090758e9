//! The host and build a result was measured on.

use crate::digest::Digest;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The checkout this benchmark was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit checked out, from `.git` when the checkout has one.
#[must_use]
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().chars().take(12).collect();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.chars().take(12).collect())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "out" {
                source_files(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

/// A digest of every Rust source and manifest the build reads, so two
/// results can be matched to the same code without a commit.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "perfbench"] {
        source_files(&root.join(top), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    let mut d = Digest::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        d.words(rel.bytes().map(u64::from));
        d.words(
            bytes
                .chunks(8)
                .map(|c| c.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b))),
        );
    }
    format!("{:016x}", (d.finish() >> 64) as u64)
}

/// The fingerprint line printed with every result.
#[must_use]
pub fn line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let root = repo_root();
    let mut out = String::from("fingerprint");
    let _ = write!(
        out,
        " nproc={} simd={} rustc=\"{}\" commit={} source={} workload={workload} seed={seed} \
         seconds={seconds} trace={}",
        crate::inputs::nproc(),
        asmcap_metrics::kernels::simd_available(),
        env!("PERFBENCH_RUSTC"),
        commit(&root),
        source_digest(&root),
        u8::from(trace),
    );
    out
}
