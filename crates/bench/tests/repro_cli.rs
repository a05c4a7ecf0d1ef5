//! The `repro` command line against the experiment registry: flags are the
//! experiment's params, validated by its schema, a run files exactly the
//! bytes the registry (and so `ttsd`) produces, and it prints the record
//! it files.

use std::path::PathBuf;
use std::process::{Command, Output};

use thermal_time_shifting::experiment::{self, ExecCtx, Params};
use thermal_time_shifting::params;
use tts_units::json::parse;

/// A fresh, empty working directory for one test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

/// The error the experiment's schema gives for `body`.
fn schema_error(name: &str, body: &str) -> String {
    let schema = if name == "all" {
        params::BASE
    } else {
        experiment::find(name).expect("registered").schema()
    };
    Params::from_json(&parse(body).unwrap(), schema).unwrap_err()
}

#[test]
fn single_experiment_write_files_only_its_own_results() {
    let dir = scratch_dir("table1");
    let out = repro(&dir, &["table1", "--write"]);
    assert!(out.status.success(), "{out:?}");
    assert!(dir.join("results/table1.summary.json").is_file());
    assert!(
        !dir.join("EXPERIMENTS.md").exists(),
        "only `repro all --write` may write EXPERIMENTS.md"
    );
}

#[test]
fn seed_flag_reaches_the_experiment() {
    let dir = scratch_dir("dcsim-seed");
    let out = repro(&dir, &["dcsim", "--seed", "5", "--write"]);
    assert!(out.status.success(), "{out:?}");
    let filed = std::fs::read_to_string(dir.join("results/dcsim.summary.json")).unwrap();

    let exp = experiment::find("dcsim").unwrap();
    let ctx = ExecCtx::disabled();
    let seeded = Params::from_json(&parse(r#"{"seed": 5}"#).unwrap(), exp.schema()).unwrap();
    let fig = exp.run_with(&ctx, &seeded).unwrap();
    assert_eq!(filed, exp.emit_json(&fig).to_string_pretty());
    let default = exp.run(&ctx, &Params::default());
    assert_ne!(filed, exp.emit_json(&default).to_string_pretty());
}

#[test]
fn stdout_is_the_section_filed_in_experiments_md() {
    let committed = include_str!("../../../EXPERIMENTS.md");
    for (name, heading) in [
        ("table1", "## Table 1 — PCM comparison\n"),
        ("fig1", "## Figure 1 — concept\n"),
    ] {
        let start = committed.find(heading).expect("section in EXPERIMENTS.md");
        let len = committed[start + 3..]
            .find("\n## ")
            .map_or(committed.len() - start, |i| i + 4);
        let section = &committed[start..start + len];
        let out = repro(&scratch_dir(&format!("{name}-stdout")), &[name]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(section), "{name}:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_2_with_the_schema_message() {
    let wall_unix = "--wall-unix requires a finite number";
    for (args, expected) in [
        (
            &["fig7", "--servers", "5"][..],
            schema_error("fig7", r#"{"servers": 5}"#),
        ),
        (
            &["fig11", "--melt-temp-c", "200"][..],
            schema_error("fig11", r#"{"melt_temp_c": 200}"#),
        ),
        (
            &["all", "--servers", "8"][..],
            schema_error("all", r#"{"servers": 8}"#),
        ),
        (
            &["fig1", "--metrics", "m.json", "--wall-unix", "nan"][..],
            wall_unix.into(),
        ),
        (
            &["fig1", "--metrics", "m.json", "--wall-unix", "inf"][..],
            wall_unix.into(),
        ),
        (
            &["fig1", "--metrics", "m.json", "--wall-unix", "1e400"][..],
            wall_unix.into(),
        ),
    ] {
        let dir = scratch_dir(&args.join("_"));
        let out = repro(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&expected), "{args:?}: {stderr}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{args:?} wrote files"
        );
    }

    let dir = scratch_dir("fig99");
    let out = repro(&dir, &["fig99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment \"fig99\""), "{stderr}");
    for exp in experiment::registry() {
        assert!(stderr.contains(exp.name()), "{stderr}");
    }
}
