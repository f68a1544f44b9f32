//! **Same-process A/B** — times the compiled engine of a parent
//! revision against the working tree's in one process, where both sides
//! share the host's drift (neighbour load, frequency, cache pressure).
//!
//! ```text
//! cargo run --release -p nocem-bench --bin ab -- <parent-rev> \
//!     [--topology mesh|torus] [--side 8] [--load 0.4] [--gated] [--rounds 600]
//! ```
//!
//! It exports `<parent-rev>` with `git archive`, and the working tree
//! twice, under `target/ab/{parent,change,null}`; gives every `nocem*`
//! package there its side as a suffix, so the three trees link into one
//! binary; writes the harness crate `target/ab/harness` (its own
//! workspace, `codegen-units = 1`; the source is `harness.rs` beside
//! this file); then builds it offline and runs it in three processes,
//! one session each. A session warms every side up for 2 000 cycles,
//! then steps one 1 000-cycle slice per side each round, in an order
//! that rotates every round, and prints the median and quartiles of the
//! per-round speed ratio of the change over the parent, the same over
//! the second copy of the change (the two-copy null, which shows what
//! code and heap placement alone read), and the load average. If the
//! sides' ledgers differ at the end it prints no ratio and fails.
//!
//! Last it prints each session's two medians and the median of the
//! three. The null moves between processes, so one session cannot
//! resolve a 1 % change: a session whose null is off 1.0 by more than
//! 1 % leaves the verdict unresolved.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const SIDES: [&str; 3] = ["parent", "change", "null"];

/// Harness processes per run.
const SESSIONS: usize = 3;

/// How far off 1.0 a session's null may read for the verdict to stand.
const NULL_TOLERANCE: f64 = 0.01;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let mut rev = None;
    let (mut topology, mut side, mut load) = ("mesh".to_owned(), "8".to_owned(), "0.4".to_owned());
    let (mut clock, mut rounds) = ("every", "600".to_owned());
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} takes a value"));
        match arg.as_str() {
            "--topology" => topology = value()?,
            "--side" => side = value()?,
            "--load" => load = value()?,
            "--rounds" => rounds = value()?,
            "--gated" => clock = "gated",
            _ if rev.is_none() && !arg.starts_with("--") => rev = Some(arg),
            _ => return Err(format!("unexpected argument {arg}")),
        }
    }
    let rev = rev.ok_or("usage: ab <parent-rev> [--topology mesh|torus] [--side 8] [--load 0.4] [--gated] [--rounds 600]")?;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down");
    let ab = root.join("target/ab");
    for side in SIDES {
        let dir = ab.join(side);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        if side == "parent" {
            export_rev(root, &rev, &dir)?;
        } else {
            copy_worktree(root, &dir)?;
        }
        for manifest in manifests(&dir)? {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            std::fs::write(&manifest, rename_packages(&text, side)).map_err(|e| e.to_string())?;
        }
    }

    let harness = ab.join("harness");
    std::fs::create_dir_all(harness.join("src")).map_err(|e| e.to_string())?;
    std::fs::write(harness.join("Cargo.toml"), harness_manifest()).map_err(|e| e.to_string())?;
    std::fs::write(harness.join("src/main.rs"), include_str!("harness.rs"))
        .map_err(|e| e.to_string())?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(harness.join("Cargo.toml"))
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !built.success() {
        return Err("building the harness failed".into());
    }
    let binary = harness.join("target/release/nocem-ab-harness");
    let mut sessions = Vec::with_capacity(SESSIONS);
    for k in 1..=SESSIONS {
        println!("session {k} of {SESSIONS}:");
        let out = Command::new(&binary)
            .args([&topology, &side, &load, clock, &rounds])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {binary:?}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            println!("  {line}");
        }
        if !out.status.success() {
            return Ok(ExitCode::FAILURE);
        }
        sessions.push(Session::parse(&text).ok_or("the harness printed no ratios")?);
    }
    println!();
    print!("{}", report(&sessions));
    Ok(ExitCode::SUCCESS)
}

/// One harness process's medians: the change's speed over the parent's
/// and over the null's.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Session {
    parent: f64,
    null: f64,
}

impl Session {
    /// The two medians from a harness's output.
    fn parse(out: &str) -> Option<Session> {
        let median = |what: &str| {
            let line = out.lines().find(|l| l.starts_with(what))?;
            let rest = line.split_once("median ")?.1;
            rest.split_whitespace().next()?.parse().ok()
        };
        Some(Session {
            parent: median("speed change / parent")?,
            null: median("speed change / null")?,
        })
    }
}

/// The middle value of `v`, whose length ([`SESSIONS`]) is odd.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Each session's two medians, their medians, and the verdict: the
/// change's speed over the parent's, unless a session's null is off 1.0
/// by more than [`NULL_TOLERANCE`].
fn report(sessions: &[Session]) -> String {
    let mut out = String::new();
    for (k, s) in sessions.iter().enumerate() {
        out.push_str(&format!(
            "session {}: change / parent {:.4}, null {:.4}\n",
            k + 1,
            s.parent,
            s.null
        ));
    }
    let parent = median(sessions.iter().map(|s| s.parent).collect());
    let null = median(sessions.iter().map(|s| s.null).collect());
    out.push_str(&format!(
        "median of {}: change / parent {parent:.4}, null {null:.4}\n",
        sessions.len()
    ));
    let off: Vec<String> = (sessions.iter().enumerate())
        .filter(|(_, s)| (s.null - 1.0).abs() > NULL_TOLERANCE)
        .map(|(k, s)| format!("session {} null {:.4}", k + 1, s.null))
        .collect();
    let tolerance = NULL_TOLERANCE * 100.0;
    if !off.is_empty() {
        out.push_str(&format!(
            "verdict: unresolved, a null is off 1.0 by over {tolerance} %: {}\n",
            off.join(", ")
        ));
    } else if (parent - 1.0).abs() <= NULL_TOLERANCE {
        out.push_str(&format!(
            "verdict: the change steps within {tolerance} % of the parent\n"
        ));
    } else {
        let how = if parent > 1.0 { "faster" } else { "slower" };
        out.push_str(&format!(
            "verdict: the change steps {:.1} % {how} than the parent\n",
            (parent - 1.0).abs() * 100.0
        ));
    }
    out
}

/// Extracts revision `rev` of the repository at `root` into `dir`.
/// `tar -m` stamps the files now, so a build over an older export is
/// rebuilt.
fn export_rev(root: &Path, rev: &str, dir: &Path) -> Result<(), String> {
    let mut archive = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = Command::new("tar")
        .args(["-x", "-m", "-C"])
        .arg(dir)
        .stdin(archive.stdout.take().expect("piped"))
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let git = archive.wait().map_err(|e| e.to_string())?;
    if !(git.success() && tar.success()) {
        return Err(format!("exporting {rev} failed"));
    }
    Ok(())
}

/// Copies every file of the working tree at `root` that git tracks or
/// would track (not ignored) into `dir`.
fn copy_worktree(root: &Path, dir: &Path) -> Result<(), String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args([
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ])
        .output()
        .map_err(|e| format!("git ls-files: {e}"))?;
    for file in out.stdout.split(|&b| b == 0).filter(|f| !f.is_empty()) {
        let file = std::str::from_utf8(file).map_err(|e| e.to_string())?;
        let from = root.join(file);
        if !from.is_file() {
            continue; // deleted in the working tree
        }
        let to = dir.join(file);
        std::fs::create_dir_all(to.parent().expect("a file has a parent"))
            .map_err(|e| e.to_string())?;
        std::fs::copy(&from, &to).map_err(|e| format!("copying {file}: {e}"))?;
    }
    Ok(())
}

/// The workspace manifest of the tree at `dir` and its crates'.
fn manifests(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let crates = std::fs::read_dir(dir.join("crates")).map_err(|e| e.to_string())?;
    let mut all = vec![dir.join("Cargo.toml")];
    for entry in crates {
        let manifest = entry.map_err(|e| e.to_string())?.path().join("Cargo.toml");
        if manifest.is_file() {
            all.push(manifest);
        }
    }
    Ok(all)
}

/// `manifest` with every `nocem*` package named with `-suffix`: the
/// `[package]` name, and each `[workspace.dependencies]` entry gains a
/// `package` key, so the crates' code still names its dependencies as
/// before.
fn rename_packages(manifest: &str, suffix: &str) -> String {
    let mut section = "";
    let mut out = String::with_capacity(manifest.len() + 512);
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            section = trimmed;
        }
        let key = trimmed.split('=').next().unwrap_or("").trim();
        let renamed = match section {
            "[package]" if key == "name" => trimmed
                .strip_suffix('"')
                .filter(|l| l.contains("\"nocem"))
                .map(|l| format!("{l}-{suffix}\"")),
            "[workspace.dependencies]" if key.starts_with("nocem") => trimmed
                .strip_suffix('}')
                .map(|l| format!("{}, package = \"{key}-{suffix}\" }}", l.trim_end())),
            _ => None,
        };
        out.push_str(renamed.as_deref().unwrap_or(line));
        out.push('\n');
    }
    out
}

/// The harness crate's manifest: its own workspace, path dependencies
/// on each side's engine and scenario crates, one codegen unit.
fn harness_manifest() -> String {
    let mut deps = String::new();
    for side in SIDES {
        for (name, dir) in [("nocem", "core"), ("nocem_scenarios", "scenarios")] {
            let package = name.replace('_', "-");
            deps.push_str(&format!(
                "{name}_{side} = {{ package = \"{package}-{side}\", path = \"../{side}/crates/{dir}\" }}\n"
            ));
        }
    }
    format!(
        "[workspace]\n\n[package]\nname = \"nocem-ab-harness\"\nversion = \"0.1.0\"\n\
         edition = \"2021\"\npublish = false\n\n[dependencies]\n{deps}\n\
         [profile.release]\ncodegen-units = 1\n"
    )
}

#[cfg(test)]
mod tests {
    use super::{rename_packages, report, Session};

    const HARNESS_OUTPUT: &str = "mesh8x8 at load 0.4, every cycle: 600 rounds of one \
        1000-cycle slice per side after 2000 warm-up cycles; ledgers equal\n\
        speed change / parent: median 0.9940  [q1 0.9800, q3 1.0100]\n\
        speed change / null  : median 1.0030  [q1 0.9900, q3 1.0150]\n\
        load average: 0.50 0.40 0.30 1/200 1234\n";

    #[test]
    fn a_session_reads_both_medians() {
        assert_eq!(
            Session::parse(HARNESS_OUTPUT),
            Some(Session {
                parent: 0.994,
                null: 1.003
            })
        );
        assert_eq!(Session::parse("ledgers differ\n"), None);
    }

    #[test]
    fn the_verdict_takes_the_median_of_the_sessions() {
        let sessions = |parent: [f64; 3], null: [f64; 3]| {
            let s = parent
                .iter()
                .zip(null)
                .map(|(&parent, null)| Session { parent, null });
            report(&s.collect::<Vec<_>>())
        };
        let slower = sessions([0.97, 0.98, 0.95], [1.002, 0.995, 1.0]);
        assert!(
            slower.contains("median of 3: change / parent 0.9700, null 1.0000"),
            "{slower}"
        );
        assert!(slower.ends_with("verdict: the change steps 3.0 % slower than the parent\n"));
        let within = sessions([1.004, 0.998, 1.02], [1.0, 1.0, 1.0]);
        assert!(
            within.ends_with("verdict: the change steps within 1 % of the parent\n"),
            "{within}"
        );
    }

    #[test]
    fn one_null_off_by_over_1_percent_leaves_the_verdict_unresolved() {
        let s = |parent, null| Session { parent, null };
        let out = report(&[s(1.05, 1.0), s(1.06, 0.985), s(1.05, 1.009)]);
        assert!(
            out.ends_with(
                "verdict: unresolved, a null is off 1.0 by over 1 %: session 2 null 0.9850\n"
            ),
            "{out}"
        );
    }

    #[test]
    fn a_crate_manifest_renames_its_package_only() {
        let crate_manifest = "[package]\nname = \"nocem-stats\"\nversion.workspace = true\n\n\
                              [dependencies]\nnocem-common.workspace = true\n";
        assert_eq!(
            rename_packages(crate_manifest, "parent"),
            "[package]\nname = \"nocem-stats-parent\"\nversion.workspace = true\n\n\
             [dependencies]\nnocem-common.workspace = true\n"
        );
    }

    #[test]
    fn workspace_dependencies_name_the_renamed_packages() {
        let root = "[workspace]\nmembers = [\"crates/core\"]\n\n[workspace.dependencies]\n\
                    nocem = { path = \"crates/core\" }\n\
                    nocem-common = { path = \"crates/common\" }\n\n\
                    [package]\nname = \"nocem-suite\"\n\n[dependencies]\nnocem.workspace = true\n\
                    [profile.dev.package.nocem]\nopt-level = 1\n";
        assert_eq!(
            rename_packages(root, "null"),
            "[workspace]\nmembers = [\"crates/core\"]\n\n[workspace.dependencies]\n\
             nocem = { path = \"crates/core\", package = \"nocem-null\" }\n\
             nocem-common = { path = \"crates/common\", package = \"nocem-common-null\" }\n\n\
             [package]\nname = \"nocem-suite-null\"\n\n[dependencies]\nnocem.workspace = true\n\
             [profile.dev.package.nocem]\nopt-level = 1\n"
        );
    }

    #[test]
    fn other_packages_and_sections_are_left_alone() {
        let other =
            "[package]\nname = \"harness\"\n\n[workspace.dependencies]\nserde = { path = \"x\" }\n";
        assert_eq!(rename_packages(other, "change"), other);
    }
}
