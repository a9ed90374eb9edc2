//! The process environment the benchmark controls: default-only child
//! environments, the host record printed with every run, the `archrel`
//! binary it builds, and memory readings.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Prefix of every variable that changes the program's defaults.
pub const ENV_PREFIX: &str = "ARCHREL_";

/// Names of the `ARCHREL_*` variables set in this process.
pub fn archrel_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    names.sort();
    names
}

/// Gives `cmd` this process's environment minus every `ARCHREL_*`
/// variable, so the child runs at the program's defaults.
pub fn scrub(cmd: &mut Command) -> &mut Command {
    let kept: Vec<(OsString, OsString)> = std::env::vars_os()
        .filter(|(k, _)| !k.to_string_lossy().starts_with(ENV_PREFIX))
        .collect();
    cmd.env_clear().envs(kept)
}

/// The repository root: the benchmark lives five levels below it.
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here.join("../../../../..");
    root.canonicalize().unwrap_or(root)
}

/// Builds the `archrel` binary from the repository's sources (a no-op
/// when it is up to date) and returns its path. Honours
/// `CARGO_TARGET_DIR`, resolved against the current directory as cargo
/// resolves it.
///
/// # Errors
///
/// A message when cargo cannot be run or the build fails.
pub fn build_archrel(root: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir()
                    .map_err(|e| format!("current directory: {e}"))?
                    .join(dir)
            }
        }
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "archrel-cli",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building archrel-cli failed ({status})"));
    }
    let bin = target.join("release").join("archrel");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// One line per host fact: CPU, parallelism, the ISA extensions this
/// process detects, the compiler, and the source revision.
pub fn host_record(root: &Path) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    vec![
        format!("host cpu: {cpu}"),
        format!("host nproc: {nproc}"),
        format!("host isa: {}", isa_flags().join(" ")),
        format!("host rustc: {rustc}"),
        format!("host commit: {commit}"),
    ]
}

#[cfg(target_arch = "x86_64")]
fn isa_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    if is_x86_feature_detected!("sse4.2") {
        flags.push("sse4.2");
    }
    if is_x86_feature_detected!("avx") {
        flags.push("avx");
    }
    if is_x86_feature_detected!("avx2") {
        flags.push("avx2");
    }
    if is_x86_feature_detected!("fma") {
        flags.push("fma");
    }
    if is_x86_feature_detected!("avx512f") {
        flags.push("avx512f");
    }
    if flags.is_empty() {
        flags.push("baseline");
    }
    flags
}

#[cfg(not(target_arch = "x86_64"))]
fn isa_flags() -> Vec<&'static str> {
    vec!["non-x86_64"]
}

/// A `kB` field of `/proc/<pid>/status` in MiB (`pid` may be `"self"`).
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set of the largest child this process has waited for,
/// in MiB (Linux reports `ru_maxrss` in KiB).
pub fn children_peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` on 64-bit Linux (two `timeval`s, then fourteen `long`s), and
    // `getrusage` writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.ru_maxrss > 0).then(|| usage.ru_maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbed_children_see_no_archrel_variables() {
        // A name no library code reads, so concurrent tests are unaffected.
        std::env::set_var("ARCHREL_BENCHMARK_PROBE", "1");
        assert!(archrel_vars().contains(&"ARCHREL_BENCHMARK_PROBE".to_string()));
        let out = scrub(&mut Command::new("env")).output().expect("env runs");
        std::env::remove_var("ARCHREL_BENCHMARK_PROBE");
        let seen = String::from_utf8_lossy(&out.stdout);
        assert!(seen.lines().any(|l| l.starts_with("PATH=")), "{seen}");
        assert!(!seen.lines().any(|l| l.starts_with(ENV_PREFIX)), "{seen}");
    }

    #[test]
    fn proc_status_reads_this_process() {
        let hwm = proc_status_mb("self", "VmHWM").expect("linux /proc");
        assert!(hwm > 0.0);
    }
}
