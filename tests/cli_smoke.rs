//! Smoke tests for the `rsz` binary: help text and a basic
//! generate-then-solve round trip through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn rsz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rsz"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [vec!["--help"], vec!["-h"], vec!["help"], vec![]] {
        let out = rsz().args(&args).output().expect("spawn rsz");
        assert!(out.status.success(), "rsz {args:?} exited with {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "missing usage in output of rsz {args:?}: {stderr}");
        assert!(stderr.contains("rsz solve"), "usage must document the solve command");
        assert!(stderr.contains("rsz generate"), "usage must document the generate command");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = rsz().arg("frobnicate").output().expect("spawn rsz");
    assert!(!out.status.success(), "unknown command must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

fn total_line(s: &str) -> String {
    s.lines().find(|l| l.starts_with("total cost:")).map(str::to_owned).expect("total line")
}

#[test]
fn misspelled_flags_exit_2_with_usage() {
    let cases: [&[&str]; 7] = [
        &[
            "solve",
            "--trace",
            "t.csv",
            "--fleet",
            "cpu-gpu:6,2",
            "--algorithm",
            "opt",
            "--refine-epsilson",
            "0.5",
        ],
        &["simulate", "--trace", "t.csv", "--algo", "a", "--engin"],
        &["generate", "--len", "4", "--peak", "2", "--sead", "3"],
        // The retired solver-path switches are unknown flags too.
        &[
            "solve",
            "--trace",
            "t.csv",
            "--fleet",
            "cpu-gpu:6,2",
            "--cache",
            "--pipeline",
            "--engine",
        ],
        &["solve", "--trace", "t.csv", "--fleet", "cpu-gpu:6,2", "--algorithm", "a", "--pipeline"],
        &["simulate", "--trace", "t.csv", "--fleet", "cpu-gpu:4,2", "--algo", "c:0.5", "--engine"],
        &["simulate", "--trace", "t.csv", "--fleet", "homogeneous:6", "--algo", "rhc:3", "--cache"],
    ];
    for args in cases {
        let out = rsz().args(args).output().expect("spawn rsz");
        assert_eq!(out.status.code(), Some(2), "rsz {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "rsz {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "rsz {args:?}: {stderr}");
    }
}

#[test]
fn generate_then_solve_round_trip() {
    let dir = std::env::temp_dir().join(format!("rsz-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace: PathBuf = dir.join("trace.csv");
    let schedule: PathBuf = dir.join("schedule.csv");

    let gen = rsz()
        .args(["generate", "--pattern", "diurnal", "--len", "24", "--peak", "6", "--seed", "7"])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("spawn rsz generate");
    assert!(gen.status.success(), "generate failed: {}", String::from_utf8_lossy(&gen.stderr));
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let values =
        trace_text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert_eq!(values, 24, "trace must have one value per slot");

    let solve = rsz()
        .args(["solve", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:6,2", "--algorithm", "a"])
        .args(["--out", schedule.to_str().unwrap()])
        .output()
        .expect("spawn rsz solve");
    assert!(solve.status.success(), "solve failed: {}", String::from_utf8_lossy(&solve.stderr));
    let sched_text = std::fs::read_to_string(&schedule).expect("schedule written");
    assert!(!sched_text.trim().is_empty(), "schedule file must not be empty");

    // Both the online and the optimal solve report a total.
    let plain_out = String::from_utf8_lossy(&solve.stdout);
    for algorithm in ["a", "opt"] {
        let out = rsz()
            .args(["solve", "--trace", trace.to_str().unwrap()])
            .args(["--fleet", "cpu-gpu:6,2", "--algorithm", algorithm])
            .output()
            .expect("spawn rsz solve");
        assert!(out.status.success(), "solve {algorithm} failed");
        total_line(&String::from_utf8_lossy(&out.stdout));
    }
    assert!(!plain_out.contains("g_t cache:"), "the cache is gone: {plain_out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_reports_latency_and_engine_parity() {
    let dir = std::env::temp_dir().join(format!("rsz-simulate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace: PathBuf = dir.join("trace.csv");
    let gen = rsz()
        .args(["generate", "--pattern", "diurnal", "--len", "24", "--peak", "5", "--seed", "11"])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("spawn rsz generate");
    assert!(gen.status.success(), "generate failed: {}", String::from_utf8_lossy(&gen.stderr));

    // A total, a latency report and the engine's pricing counters.
    let out = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:4,2", "--algo", "c:0.5"])
        .output()
        .expect("spawn rsz simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    total_line(&stdout);
    assert!(stdout.contains("decision latency"), "missing latency report: {stdout}");
    assert!(stdout.contains("p99"), "missing percentiles: {stdout}");
    assert!(stdout.contains("engine pricing:"), "missing engine stats: {stdout}");

    // LCP requires a homogeneous fleet and says so.
    let lcp = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:4,2", "--algo", "lcp"])
        .output()
        .expect("spawn rsz simulate lcp");
    assert!(!lcp.status.success(), "lcp on a heterogeneous fleet must fail");
    assert!(
        String::from_utf8_lossy(&lcp.stderr).contains("homogeneous"),
        "unhelpful lcp error: {}",
        String::from_utf8_lossy(&lcp.stderr)
    );

    // LCP on a homogeneous fleet reports its pricing.
    let lcp_ok = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "homogeneous:6", "--algo", "lcp"])
        .output()
        .expect("spawn rsz simulate lcp");
    assert!(
        lcp_ok.status.success(),
        "simulate lcp failed: {}",
        String::from_utf8_lossy(&lcp_ok.stderr)
    );
    let lcp_out = String::from_utf8_lossy(&lcp_ok.stdout);
    assert!(lcp_out.contains("engine pricing:"), "missing LCP engine stats: {lcp_out}");

    // RHC with an explicit window.
    let rhc = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "homogeneous:6", "--algo", "rhc:3"])
        .output()
        .expect("spawn rsz simulate rhc");
    assert!(rhc.status.success(), "simulate rhc failed: {}", String::from_utf8_lossy(&rhc.stderr));
    let rhc_out = String::from_utf8_lossy(&rhc.stdout);
    assert!(rhc_out.contains("RHC(w=3)"), "wrong algorithm banner: {rhc_out}");
    assert!(rhc_out.contains("engine pricing:"), "missing engine stats: {rhc_out}");
    assert!(!rhc_out.contains("g_t cache:"), "the cache is gone: {rhc_out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `rsz simulate --resume` files sealed before the controller state
/// layouts changed (Algorithm B's power-up log, C's per-slot sub-slot
/// log; snapshot envelope version 1) are refused: exit 3, a message
/// naming the version and the way past it, no schedule written, and
/// the file left as it was even under `--snapshot-every`. So are the
/// same files relabelled as version 2.
#[test]
fn version_one_resume_files_are_refused_with_exit_3() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/simulate_v1");
    let dir = std::env::temp_dir().join(format!("rsz-cli-resume-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (algo, name, version) in [("b", "b", 1), ("c:0.5", "c", 1), ("b", "b", 2)] {
        let snap = dir.join(format!("{name}.snap"));
        let mut original = std::fs::read(fixtures.join(format!("{name}.snap"))).unwrap();
        original[7] = version; // the envelope's version byte, after "RSZSNAP"
        std::fs::write(&snap, &original).unwrap();
        let out_csv = dir.join(format!("{name}.csv"));
        let out = rsz()
            .args(["simulate", "--fleet", "cpu-gpu:4,2", "--algo", algo, "--trace"])
            .arg(fixtures.join("trace.csv"))
            .args(["--snapshot-every", "2", "--resume"])
            .arg(&snap)
            .arg("--out")
            .arg(&out_csv)
            .output()
            .expect("spawn rsz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{algo} v{version}: {stderr}");
        let named = format!("version {version}");
        for part in [named.as_str(), "rerun without --resume", "e36abfb through 71b71ff"] {
            assert!(stderr.contains(part), "{algo} v{version}: `{part}` missing from: {stderr}");
        }
        assert!(!out_csv.exists(), "{algo} v{version}: no schedule is written");
        assert_eq!(std::fs::read(&snap).unwrap(), original, "{algo} v{version}: file changed");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write a 24-slot diurnal trace of peak 5 into `dir`.
fn trace_in(dir: &std::path::Path) -> PathBuf {
    let trace = dir.join("trace.csv");
    let gen = rsz()
        .args(["generate", "--pattern", "diurnal", "--len", "24", "--peak", "5", "--seed", "11"])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("spawn rsz generate");
    assert!(gen.status.success(), "generate failed: {}", String::from_utf8_lossy(&gen.stderr));
    trace
}

/// Every valid spelling builds one controller everywhere: a daemon
/// reached with `rsz simulate --remote` (every request goes through
/// `Daemon::handle`) writes the schedule a local `rsz simulate` writes,
/// and `rsz solve` runs the same spelling.
///
/// RHC is the one algorithm that reads ahead. A local run reads its
/// forecast from the trace, while a daemon tick carries only the slot's
/// own load, so a remote `rhc:W` window never reaches past the present
/// and decides as a local `rhc:1` does, whatever `W`.
#[test]
fn every_spelling_decides_alike_locally_and_remotely() {
    use heterogeneous_rightsizing::serve::{Daemon, ServeOptions, Server};
    use std::sync::Arc;
    let dir = std::env::temp_dir().join(format!("rsz-cli-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = trace_in(&dir);
    let options = ServeOptions { state_dir: dir.join("state"), ..ServeOptions::default() };
    let daemon = Arc::new(Daemon::new(options).expect("open state dir"));
    let server = Server::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || server.run());
    let spellings = [
        ("a", "cpu-gpu:4,2"),
        ("b", "cpu-gpu:4,2"),
        ("c", "cpu-gpu:4,2"),
        ("c:0.25", "cpu-gpu:4,2"),
        ("lcp", "homogeneous:4"),
        ("rhc", "cpu-gpu:4,2"),
        ("rhc:6", "cpu-gpu:4,2"),
    ];
    for (i, (algo, fleet)) in spellings.into_iter().enumerate() {
        let base = ["--trace", trace.to_str().unwrap(), "--fleet", fleet];
        let local_csv = dir.join(format!("local-{i}.csv"));
        let local = rsz()
            .args(["simulate", "--algo", algo])
            .args(base)
            .arg("--out")
            .arg(&local_csv)
            .output()
            .expect("spawn rsz simulate");
        assert!(local.status.success(), "{algo}: {}", String::from_utf8_lossy(&local.stderr));
        if algo == "rhc" {
            let stdout = String::from_utf8_lossy(&local.stdout);
            assert!(stdout.contains("RHC(w=4)"), "rhc's default window: {stdout}");
        }
        let expected = if algo.starts_with("rhc") {
            let csv = dir.join(format!("forecast-free-{i}.csv"));
            let out = rsz()
                .args(["simulate", "--algo", "rhc:1"])
                .args(base)
                .arg("--out")
                .arg(&csv)
                .output()
                .expect("spawn rsz simulate");
            assert!(out.status.success(), "rhc:1: {}", String::from_utf8_lossy(&out.stderr));
            csv
        } else {
            local_csv
        };
        let remote_csv = dir.join(format!("remote-{i}.csv"));
        let remote = rsz()
            .args(["simulate", "--remote", &addr, "--tenant", &format!("t{i}")])
            .args(["--algo", algo])
            .args(base)
            .arg("--out")
            .arg(&remote_csv)
            .output()
            .expect("spawn rsz simulate --remote");
        assert!(remote.status.success(), "{algo}: {}", String::from_utf8_lossy(&remote.stderr));
        assert_eq!(
            std::fs::read_to_string(&remote_csv).unwrap(),
            std::fs::read_to_string(&expected).unwrap(),
            "{algo} on {fleet}: the daemon decided otherwise"
        );
        let solve = rsz().args(["solve", "--algorithm", algo]).args(base).output().unwrap();
        assert!(solve.status.success(), "{algo}: {}", String::from_utf8_lossy(&solve.stderr));
    }
    daemon.graceful_shutdown();
    accept_loop.join().expect("accept loop").expect("accept loop ends cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every invalid spelling is refused with one detail: by `rsz solve`
/// and a local `rsz simulate` (exit 2), by `rsz simulate --remote`
/// before it connects (exit 2, where a failed connection exits 3), and
/// by a daemon `register` (an `input` error).
#[test]
fn invalid_spellings_are_refused_alike_everywhere() {
    use heterogeneous_rightsizing::serve::{Daemon, ServeOptions};
    let dir = std::env::temp_dir().join(format!("rsz-cli-invalid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = trace_in(&dir);
    let options = ServeOptions { state_dir: dir.join("state"), ..ServeOptions::default() };
    let daemon = Daemon::new(options).expect("open state dir");
    // A port nothing listens on: connecting to it fails.
    let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let fleet = "cpu-gpu:4,2";
    for (algo, detail) in [
        ("x", "unknown algorithm `x`"),
        ("a:1", "algorithm `a` takes no parameter"),
        ("c:0", "parameter 0 out of range for `c`"),
        ("c:-1", "parameter -1 out of range for `c`"),
        ("rhc:0", "parameter 0 out of range for `rhc`"),
        ("rhc:1.5", "parameter 1.5 out of range for `rhc`"),
        ("lcp", "lcp requires a homogeneous fleet (d = 1)"),
    ] {
        let base = ["--trace", trace.to_str().unwrap(), "--fleet", fleet];
        for (mode, args) in [
            ("solve", vec!["solve", "--algorithm", algo]),
            ("simulate", vec!["simulate", "--algo", algo]),
            ("remote", vec!["simulate", "--algo", algo, "--remote", &closed.to_string()]),
        ] {
            let out = rsz().args(&args).args(base).output().expect("spawn rsz");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode} {algo}: {stderr}");
            assert!(stderr.contains(&format!("error: {detail}")), "{mode} {algo}: {stderr}");
        }
        let reply = daemon.handle(&format!(
            r#"{{"op":"register","tenant":"bad","fleet":"{fleet}","algo":"{algo}"}}"#
        ));
        let want = format!(r#""error":"input","detail":"{detail}""#);
        assert!(reply.contains(&want), "register {algo}: {reply}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each `rsz simulate` mode refuses the flags the other needs, as it
/// refuses any unknown flag.
#[test]
fn simulate_refuses_the_flags_its_mode_ignores() {
    let local = [["--tenant", "t"], ["--peers", "a:1"], ["--deadline-us", "5"]];
    for extra in local {
        let out = rsz()
            .args(["simulate", "--trace", "t.csv", "--algo", "b"])
            .args(extra)
            .output()
            .expect("spawn rsz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown argument `{}`", extra[0])), "{stderr}");
    }
    let remote: [&[&str]; 5] = [
        &["--refine"],
        &["--refine-gamma", "1.5"],
        &["--refine-epsilon", "0.5"],
        &["--resume", "run.snap"],
        &["--snapshot-every", "4"],
    ];
    for extra in remote {
        let out = rsz()
            .args(["simulate", "--remote", "127.0.0.1:9", "--trace", "t.csv", "--algo", "b"])
            .args(extra)
            .output()
            .expect("spawn rsz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown argument `{}`", extra[0])), "{stderr}");
    }
}
