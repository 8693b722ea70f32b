//! End-to-end tests of the `bayescrowd-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bayescrowd-cli"))
}

const INCOMPLETE: &str = "a1:10,a2:10,a3:8,a4:6,a5:10
5,2,3,4,1
6,?,2,2,2
1,1,?,5,3
4,3,1,2,1
5,?,?,?,1
";

const COMPLETE: &str = "a1:10,a2:10,a3:8,a4:6,a5:10
5,2,3,4,1
6,4,2,2,2
1,1,4,5,3
4,3,1,2,1
5,4,3,2,1
";

fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bayescrowd-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write temp csv");
    path
}

#[test]
fn machine_mode_reports_answers_and_stats() {
    let data = write_temp("m_inc.csv", INCOMPLETE);
    let out = cli()
        .args([
            "machine",
            "--data",
            data.to_str().unwrap(),
            "--alpha",
            "1.0",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("answers"), "{stdout}");
    assert!(stdout.contains("o1"), "certain answer o1 missing: {stdout}");
    assert!(stdout.contains("c-table: true=2"), "{stdout}");
}

#[test]
fn simulate_mode_reaches_perfect_f1_on_the_sample() {
    let data = write_temp("s_inc.csv", INCOMPLETE);
    let complete = write_temp("s_com.csv", COMPLETE);
    let out = cli()
        .args([
            "simulate",
            "--data",
            data.to_str().unwrap(),
            "--complete",
            complete.to_str().unwrap(),
            "--alpha",
            "1.0",
            "--budget",
            "20",
            "--latency",
            "10",
            "--strategy",
            "hhs",
            "--m",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("F1 1.000"), "{stdout}");
}

#[test]
fn simulate_without_truth_fails_cleanly() {
    let data = write_temp("t_inc.csv", INCOMPLETE);
    let out = cli()
        .args(["simulate", "--data", data.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--complete"), "{stderr}");
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unreadable_file_exits_with_error() {
    let out = cli()
        .args(["machine", "--data", "/definitely/not/here.csv"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn profile_flag_writes_a_parseable_span_tree() {
    let data = write_temp("p_inc.csv", INCOMPLETE);
    let complete = write_temp("p_com.csv", COMPLETE);
    let profile = std::env::temp_dir().join("bayescrowd-cli-tests/profile.json");
    let _ = std::fs::remove_file(&profile);
    let out = cli()
        .args([
            "simulate",
            "--data",
            data.to_str().unwrap(),
            "--complete",
            complete.to_str().unwrap(),
            "--alpha",
            "1.0",
            "--budget",
            "12",
            "--latency",
            "6",
            "--profile",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&profile).expect("profile file written");
    let report = bc_obs::ProfileReport::from_json(&text).expect("profile JSON parses");
    assert_eq!(report.root().name, "run");
    assert!(report.root().nanos > 0, "run total missing");
    let round = report.node("round").expect("round span present");
    assert!(round.count >= 1, "no rounds profiled");
    assert!(
        report.node("round/select/solve").is_some(),
        "solve span missing: {}",
        report.render_text()
    );
}

#[test]
fn trace_flag_writes_one_parseable_event_per_line() {
    let data = write_temp("r_inc.csv", INCOMPLETE);
    let complete = write_temp("r_com.csv", COMPLETE);
    let trace = std::env::temp_dir().join("bayescrowd-cli-tests/trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = cli()
        .args([
            "simulate",
            "--data",
            data.to_str().unwrap(),
            "--complete",
            complete.to_str().unwrap(),
            "--alpha",
            "1.0",
            "--budget",
            "12",
            "--latency",
            "6",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(reports_tables_built(&stdout), "{stdout}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let mut batches_with_tables = 0;
    for (i, line) in text.lines().enumerate() {
        let (seq, event) = bc_obs::Event::from_json_line(line)
            .unwrap_or_else(|| panic!("line {i} does not parse: {line}"));
        assert_eq!(seq, i as u64, "{line}");
        assert_ne!(event.kind(), "SolverSearch", "{line}");
        if event.kind() == "ProbabilityBatch" && line.contains("\"clause_tables\": ") {
            batches_with_tables += 1;
        }
    }
    assert!(batches_with_tables > 0, "no ProbabilityBatch line:\n{text}");
}

/// Whether a `--metrics` summary has its line of clause tables built.
fn reports_tables_built(stdout: &str) -> bool {
    stdout
        .lines()
        .any(|l| l.starts_with("clause tables: ") && l.ends_with(" built"))
}

#[test]
fn all_three_observers_together_leave_the_report_unchanged() {
    // `--trace`, `--metrics` and `--profile` in one run: every sink gets
    // the whole stream, and the report equals an unobserved run's.
    let data = write_temp("o_inc.csv", INCOMPLETE);
    let complete = write_temp("o_com.csv", COMPLETE);
    let dir = std::env::temp_dir().join("bayescrowd-cli-tests/observers");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    let (trace, profile) = (dir.join("trace.jsonl"), dir.join("profile.json"));
    let (observed, plain) = (dir.join("observed.txt"), dir.join("plain.txt"));
    let run = |report: &std::path::Path, extra: &[&str]| {
        let out = cli()
            .args([
                "simulate",
                "--data",
                data.to_str().unwrap(),
                "--complete",
                complete.to_str().unwrap(),
                "--alpha",
                "1.0",
                "--budget",
                "12",
                "--latency",
                "6",
                "--report-out",
                report.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let stdout = run(
        &observed,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            "--profile",
            profile.to_str().unwrap(),
        ],
    );
    run(&plain, &[]);

    assert!(reports_tables_built(&stdout), "no metrics: {stdout}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.lines().count() > 2, "short trace:\n{text}");
    for (i, line) in text.lines().enumerate() {
        let (seq, _) = bc_obs::Event::from_json_line(line)
            .unwrap_or_else(|| panic!("line {i} does not parse: {line}"));
        assert_eq!(seq, i as u64, "{line}");
    }
    let json = std::fs::read_to_string(&profile).expect("profile file written");
    let tree = bc_obs::ProfileReport::from_json(&json).expect("profile JSON parses");
    assert!(
        tree.node("round").is_some_and(|r| r.count >= 1),
        "no rounds"
    );
    let observed = std::fs::read_to_string(&observed).expect("observed report");
    let plain = std::fs::read_to_string(&plain).expect("plain report");
    assert!(plain.contains("result:"), "{plain}");
    assert_eq!(observed, plain, "observing the run changed its report");
}

#[test]
fn killed_run_resumes_to_the_identical_report() {
    // Clean run writing checkpoints and a deterministic report; a second
    // run killed (process abort) after round 2; a third run resumed from
    // the newest surviving checkpoint. The resumed report file must be
    // byte-identical to the clean one.
    let data = write_temp("k_inc.csv", INCOMPLETE);
    let complete = write_temp("k_com.csv", COMPLETE);
    let dir = std::env::temp_dir().join("bayescrowd-cli-tests/kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    let common = |out: &std::path::Path| {
        vec![
            "simulate".to_string(),
            "--data".into(),
            data.to_str().unwrap().into(),
            "--complete".into(),
            complete.to_str().unwrap().into(),
            "--alpha".into(),
            "1.0".into(),
            "--budget".into(),
            "12".into(),
            "--latency".into(),
            "6".into(),
            "--expiry".into(),
            "0.2".into(),
            "--max-attempts".into(),
            "3".into(),
            "--seed".into(),
            "9".into(),
            "--report-out".into(),
            out.to_str().unwrap().into(),
        ]
    };

    let clean_report = dir.join("clean.txt");
    let out = cli()
        .args(common(&clean_report))
        .args(["--checkpoint-dir", dir.join("ckpt-clean").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");

    let ckpt_dir = dir.join("ckpt");
    let out = cli()
        .args(common(&dir.join("never.txt")))
        .args(["--checkpoint-dir", ckpt_dir.to_str().unwrap()])
        .args(["--kill-after-round", "2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "kill run should abort: {out:?}");
    assert!(!dir.join("never.txt").exists(), "killed run wrote a report");

    let mut snaps: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bcsnap"))
        .collect();
    snaps.sort();
    let latest = snaps.last().expect("at least one checkpoint survived");

    let resumed_report = dir.join("resumed.txt");
    let out = cli()
        .args(common(&resumed_report))
        .args(["--resume", latest.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");

    let clean = std::fs::read_to_string(&clean_report).expect("clean report");
    let resumed = std::fs::read_to_string(&resumed_report).expect("resumed report");
    assert!(clean.contains("result:"), "{clean}");
    assert_eq!(clean, resumed, "resumed report diverged from the clean run");
}

#[test]
fn an_invalid_configuration_exits_2() {
    let data = write_temp("v_inc.csv", INCOMPLETE);
    let complete = write_temp("v_com.csv", COMPLETE);
    let out = cli()
        .args([
            "simulate",
            "--data",
            data.to_str().unwrap(),
            "--complete",
            complete.to_str().unwrap(),
            "--budget",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid configuration"), "{stderr}");
}
