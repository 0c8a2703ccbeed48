//! The host fingerprint stamped on every result, so that a number is only
//! ever compared with numbers from the same host and code.

use std::path::Path;

use crate::json_str;

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Logical processors listed by `/proc/cpuinfo` (falls back to
    /// `available_parallelism`).
    pub hw_threads: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// FNV-1a digest of the sources under `crates/`, which identifies the
    /// code also in a checkout without git metadata.
    pub source_digest: String,
    /// CPUs every live runtime of the run uses.
    pub runtime_cpus: usize,
}

impl Fingerprint {
    /// Fingerprints this host for a checkout rooted at `root`.
    pub fn collect(root: &Path) -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let available_parallelism = crate::cpus();
        let listed = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        Fingerprint {
            available_parallelism,
            hw_threads: if listed > 0 {
                listed
            } else {
                available_parallelism
            },
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(&root.join("crates")),
            runtime_cpus: crate::cpus(),
        }
    }

    /// Whether runtime CPUs exceed hardware threads.
    pub fn oversubscribed(&self) -> bool {
        self.runtime_cpus > self.hw_threads
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"hw_threads\": {}, \"cpu_model\": {}, \"kernel\": {}, \
             \"git_rev\": {}, \"source_digest\": {}, \"runtime_cpus\": {}, \"oversubscribed\": {}}}",
            self.available_parallelism,
            self.hw_threads,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.git_rev),
            json_str(&self.source_digest),
            self.runtime_cpus,
            self.oversubscribed()
        )
    }
}

/// Reads `HEAD` from `root/.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == refname).then(|| rev.to_string())
    })
}

/// FNV-1a over the relative paths and contents of every `.rs` and
/// `Cargo.toml` file under `dir`, in sorted order.
fn source_digest(dir: &Path) -> String {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(dir)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
            out.push(p);
        }
    }
}
