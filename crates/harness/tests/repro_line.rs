//! Saved reports know their population, and every failure block names the
//! command that replays it.
//!
//! A `--save`d report records the `semint` flags that select its
//! population (profile and `--broken`), every failure block a sweep prints
//! ends with a `repro: semint run …` line, and running that line must
//! replay the saved failure as it is: same stage, same reason.  `semint
//! report` refuses to merge reports of different populations, and reads
//! what `semint check --save` writes as it reads a sweep's.  Every command
//! refuses, as a usage error, the options it would otherwise ignore.

use semint_core::stats::SweepReport;
use std::path::PathBuf;
use std::process::{Command, Output};

fn semint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_semint"))
        .args(args)
        .output()
        .expect("semint runs")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("semint-repro-{}-{name}.tsv", std::process::id()))
}

/// Sweeps with `args`, saving the report; returns the printed output and
/// the saved report.
fn saved_sweep(name: &str, args: &[&str]) -> (String, SweepReport) {
    let path = scratch(name);
    let path_arg = path.to_str().expect("UTF-8 temp path");
    let out = semint(&[&["sweep"], args, &["--jobs", "2", "--save", path_arg]].concat());
    assert_eq!(
        out.status.code(),
        Some(1),
        "a broken sweep finds failures\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report saved");
    let _ = std::fs::remove_file(&path);
    let report = SweepReport::from_tsv(&text).expect("saved report parses");
    (String::from_utf8_lossy(&out.stdout).into_owned(), report)
}

fn assert_repro_lines_replay(name: &str, args: &[&str], population: &str) {
    let (printed, report) = saved_sweep(name, args);
    assert_eq!(report.population.as_deref(), Some(population));
    let lines: Vec<&str> = printed
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("repro: semint "))
        .collect();
    let failures: Vec<_> = report
        .cases
        .iter()
        .flat_map(|case| case.failures.iter().map(move |f| (case.case.as_str(), f)))
        .collect();
    assert!(!failures.is_empty(), "the sweep must find failures");
    assert_eq!(
        lines.len(),
        failures.len(),
        "one repro line per failure block"
    );
    for ((case, failure), line) in failures.into_iter().zip(lines) {
        assert_eq!(
            line,
            format!("run --case {case} --seed {} {population}", failure.seed)
        );
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = semint(&args);
        let replay = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{line}\n{replay}");
        let verdict = format!("verdict FAILED [{}] {}", failure.stage, failure.reason);
        assert!(replay.contains(&verdict), "{line} replays\n{replay}");
    }
}

#[test]
fn repro_lines_of_a_preset_sweep_replay_their_failures() {
    assert_repro_lines_replay(
        "preset",
        &["--broken", "--profile", "smoke", "--seeds", "0..8"],
        "--profile smoke --broken",
    );
}

#[test]
fn repro_lines_of_a_custom_profile_name_every_knob() {
    assert_repro_lines_replay(
        "custom",
        &[
            "--broken",
            "--case",
            "sharedmem",
            "--seeds",
            "0..16",
            "--boundary-bias",
            "90",
            "--fuel",
            "30",
        ],
        "--type-depth 2 --depth 4 --boundary-bias 90 --weights 3,3,1 --fuel 30 --broken",
    );
}

#[test]
fn reports_of_different_populations_do_not_merge() {
    let save = |name: &str, profile: &str| {
        let path = scratch(name);
        let path_arg = path.to_str().expect("UTF-8 temp path").to_string();
        let out = semint(&[
            "sweep",
            "--seeds",
            "0..4",
            "--profile",
            profile,
            "--save",
            &path_arg,
        ]);
        assert!(out.status.success());
        path_arg
    };
    let smoke = save("merge-smoke", "smoke");
    let deep = save("merge-deep", "deep");
    let out = semint(&["report", &smoke, &deep]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("do not merge"), "{stderr}");

    // A report written before populations were recorded still reads, but
    // it does not merge with one that knows its population either.
    let legacy = scratch("merge-legacy");
    let text = std::fs::read_to_string(&smoke).expect("saved");
    let stripped: String = text
        .lines()
        .filter(|line| !line.starts_with("population\t"))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(&legacy, stripped).expect("written");
    let legacy = legacy.to_str().expect("UTF-8 temp path").to_string();
    assert!(semint(&["report", &legacy]).status.success());
    let out = semint(&["report", &legacy, &smoke]);
    assert_eq!(out.status.code(), Some(2));
    assert!(semint(&["report", &smoke, &smoke]).status.success());
    for path in [smoke, deep, legacy] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn check_saves_a_report_that_report_reads_back() {
    let path = scratch("check");
    let path_arg = path.to_str().expect("UTF-8 temp path");
    let out = semint(&[
        "check",
        "--case",
        "sharedmem",
        "--seeds",
        "0..5",
        "--save",
        path_arg,
    ]);
    let checked = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{checked}");
    assert!(
        checked.ends_with(&format!("saved: {path_arg}\n")),
        "{checked}"
    );
    let text = std::fs::read_to_string(&path).expect("check --save writes its report");
    let saved = SweepReport::from_tsv(&text).expect("saved report parses");
    assert_eq!(saved.scenarios(), 5);
    assert_eq!(saved.population.as_deref(), Some("--profile default"));
    // `semint report` renders the block `check` printed, then its digests.
    let out = semint(&["report", path_arg]);
    let reported = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{reported}");
    let block: String = reported
        .lines()
        .filter(|line| !line.starts_with("digest: "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(checked.contains(&block), "{checked}\nvs\n{reported}");
    let _ = std::fs::remove_file(&path);
}

/// Runs each command line, which must be refused (exit 2) for the option
/// `flag` by `semint COMMAND`, before it prints or writes anything.
fn assert_refused(refused: &[(String, &str, &str)], written: &[&PathBuf]) {
    for (line, command, flag) in refused {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = semint(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let refusal = format!("`semint {command}` takes no `{flag}` option");
        assert!(stderr.contains(&refusal), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran before it refused");
    }
    for path in written {
        assert!(!path.exists(), "a refused command writes nothing");
    }
}

#[test]
fn run_and_check_refuse_options_they_do_not_honour() {
    let save = scratch("refused-save");
    let state = scratch("refused-state");
    let (save_arg, state_arg) = (save.display(), state.display());
    let check = "check --case sharedmem --seeds 0..3";
    let refused = [
        (
            format!("run --case sharedmem --seed 3 --save {save_arg}"),
            "run",
            "--save",
        ),
        (format!("{check} --workers 2"), "check", "--workers"),
        (
            format!("{check} --state-dir {state_arg} --resume"),
            "check",
            "--state-dir",
        ),
        (
            format!("{check} --corrupt-save garbage"),
            "check",
            "--corrupt-save",
        ),
    ];
    assert_refused(&refused, &[&save, &state]);
}

#[test]
fn sweep_and_chaos_refuse_options_they_do_not_honour() {
    let save = scratch("refused-chaos-save");
    let state = scratch("refused-sweep-state");
    let chaos_state = scratch("refused-chaos-state");
    let (save_arg, state_arg) = (save.display(), state.display());
    let smoke = "--profile smoke --jobs 1";
    let refused = [
        (format!("sweep --seed 7 {smoke}"), "sweep", "--seed"),
        (
            format!("sweep --seeds 0..4 {smoke} --state-dir {state_arg} --resume"),
            "sweep",
            "--state-dir",
        ),
        (
            format!(
                "sweep --seeds 0..4 {smoke} --rounds 3 --fault-shard 1 --fault-after 2 \
                 --worker-timeout-ms 5"
            ),
            "sweep",
            "--rounds",
        ),
        (
            format!("sweep --workers 2 --seeds 0..8 {smoke} --progress --seed 9 --rounds 2"),
            "sweep --workers",
            "--progress",
        ),
        (
            format!(
                "chaos --seed 7 --rounds 1 --seeds 0..8 --workers 2 --worker-timeout-ms 3000 \
                 --state-dir {} --save {save_arg} --progress --fault-shard 1 --fault-after 2",
                chaos_state.display()
            ),
            "chaos",
            "--save",
        ),
        (format!("report --time {save_arg}"), "report", "--time"),
    ];
    assert_refused(&refused, &[&save, &state, &chaos_state]);
}
