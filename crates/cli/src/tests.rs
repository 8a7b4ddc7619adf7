//! Tests of the command line: the parser against the tables, each verb's
//! output, and a property test over random argv for every command.

use crate::args::{Command, Failure, Kind, Spec};
use crate::flags::CLI;
use std::path::PathBuf;
use vecmem_prop::prelude::*;
use vecmem_prop::TestRng;

fn run(argv: &[&str]) -> Result<String, Failure> {
    let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
    CLI.run(&argv)
}

/// Runs a command line given as one string of words.
fn ok(line: &str) -> String {
    run(&line.split_whitespace().collect::<Vec<_>>()).unwrap_or_else(|e| panic!("{line}: {e}"))
}

/// Asserts `argv` is a usage error (exit 2) whose message contains `names`.
fn assert_usage(argv: &[&str], names: &str) {
    match run(argv) {
        Err(e @ Failure::Usage(_)) => {
            assert_eq!(e.exit_code(), 2);
            assert!(e.to_string().contains(names), "{argv:?}: {e}");
        }
        other => panic!("{argv:?} not rejected as usage: {other:?}"),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vecmem-cli-test-{name}"))
}

#[test]
fn values_flags_and_defaults() {
    let argv: Vec<String> = ["steady", "--banks", "13", "--nc=6", "--cyclic"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let (command, args) = CLI.parse(&argv).unwrap();
    assert_eq!(command.verb, "steady");
    assert_eq!(args.get(&crate::flags::BANKS), 13);
    assert_eq!(args.get(&crate::flags::NC), 6);
    assert!(args.get(&crate::flags::CYCLIC));
    assert!(!args.get(&crate::flags::SAME_CPU));
    assert_eq!(args.get(&crate::flags::D2), 1);
    assert_eq!(args.get(&crate::flags::PATTERN), "stride");
    assert_eq!(args.get(&crate::flags::AFFINE), None);
    assert_eq!(args.get(&crate::flags::METRICS_OUT), None);
}

/// The command lines that misbehaved before flags were declared per verb:
/// each is now a usage error naming the offending token.
#[test]
fn unknown_foreign_repeated_and_stray_tokens_are_usage_errors() {
    let cases: [(&[&str], &str); 20] = [
        (
            &["steady", "--banks", "16", "--d2", "3", "--bankz", "13"],
            "--bankz",
        ),
        (&["steady", "--banks", "16", "--banks", "13"], "--banks"),
        (&["verify", "--diff", "--random", "5"], "--random"),
        (&["report", "triad", "--banks", "13"], "--banks"),
        (&["steady", "--obs-epsilon", "0.1"], "--obs-epsilon"),
        (&["steady", "--exhaustive"], "--exhaustive"),
        (&["steady", "stray"], "'stray'"),
        (&["triad", "--inc", "2", "--sweep", "3"], "--sweep"),
        (
            &["triad", "--sweep", "3", "--metrics-out", "x.json"],
            "--metrics-out",
        ),
        (&["predict", "--cyclic"], "--cyclic"),
        (&["figure", "3", "4"], "'4'"),
        (&["figure"], "ID"),
        (&["steady", "--cyclic=yes"], "--cyclic"),
        (&["steady", "--banks"], "--banks"),
        (&["steady", "--banks", "--nc", "4"], "--banks"),
        (&["bogus"], "'bogus'"),
        (&["theorems", "8", "2"], "'8'"),
        (&["theorems", "--banks", "8", "extra", "--bogus"], "'extra'"),
        (&["reproduce", "stray"], "'stray'"),
        (&["triad", "--sweep", "3", "--alone"], "--alone"),
    ];
    for (argv, names) in cases {
        assert_usage(argv, names);
    }
}

/// `--nc 300` does not fit the packed state's residue bytes: every verb
/// that takes a geometry refuses it as a usage error instead of panicking.
#[test]
fn oversized_nc_is_rejected() {
    for verb in [
        &["steady"][..],
        &["theorems"],
        &["trace"],
        &["report", "steady"],
        &["verify", "--diff"],
        &["skew"],
    ] {
        let mut argv = verb.to_vec();
        argv.extend(["--banks", "16", "--nc", "300"]);
        assert_usage(&argv, "--nc");
    }
}

/// A rejected option value is a usage error (exit 2) naming the option,
/// whichever verb takes it.
#[test]
fn rejected_values_are_usage_errors() {
    let cases: [(&[&str], &str); 14] = [
        (
            &["steady", "--pattern", "gather", "--span", "0"],
            "--span must be at least 1",
        ),
        (
            &["skew", "--pattern", "gather", "--span", "0"],
            "--span must be at least 1",
        ),
        (
            &["gather", "--banks", "16", "--nc", "4", "--span", "0"],
            "--span must be at least 1",
        ),
        (
            &["steady", "--pattern", "burst", "--burst", "0"],
            "--burst must be at least 1",
        ),
        (
            &["steady", "--bank-model", "dram", "--dram-hit", "0"],
            "--dram-hit must be in 1..=4 (the geometry's n_c)",
        ),
        (
            &["steady", "--bank-model", "dram", "--dram-rows", "0"],
            "--dram-rows must be at least 1",
        ),
        // 16 banks of 2^60 rows: m·rows wraps a u64 to 0.
        (
            &[
                "steady",
                "--banks",
                "16",
                "--bank-model",
                "dram",
                "--dram-rows",
                "1152921504606846976",
            ],
            "--dram-rows must be at most 1152921504606846975 (m·rows must fit a u64)",
        ),
        // Values that do not parse at all.
        (
            &["steady", "--pattern", "burst", "--burst", "abc"],
            "--burst: 'abc' is not an integer",
        ),
        (
            &["steady", "--banks", "many"],
            "--banks: 'many' is not an integer",
        ),
        (
            &["trace", "--obs-window", "x"],
            "--obs-window: 'x' is not an integer",
        ),
        (
            &["trace", "--obs-window", "0", "--metrics-out", "x.json"],
            "--obs-window must be at least 1",
        ),
        (
            &["steady", "--pattern", "gather", "--affine", "q"],
            "--affine: 'q' is not an integer",
        ),
        (&["plan", "--pad", "q"], "--pad: 'q' is not an integer"),
        (&["loop", "--dims", "4,x"], "--dims: 'x' is not an integer"),
    ];
    for (argv, message) in cases {
        match run(argv) {
            Err(e @ Failure::Usage(_)) => {
                assert_eq!(e.to_string(), message);
                assert_eq!(e.exit_code(), 2);
            }
            other => panic!("{argv:?} not rejected as usage: {other:?}"),
        }
    }
}

/// Values the model cannot take, and geometries it rejects, exit 2 instead
/// of panicking, printing NaN or answering over nothing.
#[test]
fn values_the_model_cannot_take_are_usage_errors() {
    let cases: [(&[&str], &str); 17] = [
        (&["loop", "--dims", "0,64"], "--dims"),
        (&["random", "--cycles", "0"], "--cycles"),
        (&["random", "--ports", "0"], "--ports"),
        (&["gather", "--n", "0"], "--n"),
        (&["verify", "--max-banks", "0"], "--max-banks"),
        (&["verify", "--max-banks", "65"], "--max-banks 65 exceeds"),
        (&["theorems", "--banks", "0"], "--banks"),
        (&["theorems", "--nc", "0"], "--nc"),
        (&["triad", "--sweep", "0"], "--sweep"),
        (&["plan", "--max-stride", "0"], "--max-stride"),
        (&["skew", "--max-stride", "0"], "--max-stride"),
        (&["predict", "--banks", "0"], "--banks"),
        (&["steady", "--nc", "0"], "--nc"),
        (&["steady", "--sections", "3"], "--sections"),
        (&["loop", "--dim", "3"], "--dim"),
        (&["figure", "99"], "'99'"),
        (&["report", "nonsense"], "'nonsense'"),
    ];
    for (argv, names) in cases {
        assert_usage(argv, names);
    }
}

#[test]
fn bad_geometry_is_reported() {
    let e = run(&["predict", "--banks", "12", "--sections", "5"]).unwrap_err();
    assert_eq!(e.exit_code(), 2, "{e}");
}

#[test]
fn usage_examples_parse() {
    let usage = CLI.usage();
    let examples = usage.split("EXAMPLES:\n").nth(1).unwrap();
    assert_eq!(examples.lines().count(), CLI.examples.len());
    for line in examples.lines() {
        let argv: Vec<String> = line.split_whitespace().skip(1).map(String::from).collect();
        assert!(CLI.parse(&argv).is_ok(), "{line}");
    }
}

/// The usage text is rendered from the tables: every command and every
/// flag of every command appears in it, each default once per declaration.
#[test]
fn usage_lists_every_flag() {
    let usage = CLI.usage();
    for c in CLI.commands {
        assert!(usage.contains(c.about), "{}", c.about);
        for s in specs(c) {
            assert!(usage.contains(&format!("--{}", s.name)), "--{}", s.name);
            assert!(usage.contains(s.help), "{}", s.help);
        }
    }
    assert!(usage.contains("--banks N              number of banks m (default 16)"));
}

#[test]
fn predict_fig2() {
    let out = ok("predict --banks 12 --nc 3 --d1 1 --d2 7");
    assert!(out.contains("ConflictFree"), "{out}");
    assert!(out.contains("predicted b_eff = 2"));
}

/// `3 ⊕ 8 ≡ 3 ⊕ 4 (mod 12)` under the unit 5: one canonical form, one
/// eq. 29 prediction, and it is what `steady` simulates.
#[test]
fn predict_is_the_same_for_isomorphic_pairs() {
    for d2 in [8, 4] {
        let out = ok(&format!("predict --banks 12 --nc 2 --d1 3 --d2 {d2}"));
        assert!(out.contains("predicted b_eff = 7/4"), "{out}");
    }
    let out = ok("steady --banks 12 --nc 2 --d1 3 --d2 8");
    assert!(out.contains("b_eff = 7/4"), "{out}");
}

#[test]
fn theorems_m12_nc2_has_no_mismatch() {
    let out = ok("theorems --banks 12 --nc 2");
    assert!(out.ends_with("66 rows, 0 mismatches\n"), "{out}");
}

#[test]
fn steady_fig3() {
    let out = ok("steady --banks 13 --nc 6 --d1 1 --d2 6");
    assert!(out.contains("b_eff = 7/6"), "{out}");
}

#[test]
fn trace_renders_banks() {
    let out = ok("trace --banks 8 --nc 2 --d1 1 --d2 3 --cycles 12");
    // 8 bank rows plus the appended steady-state line.
    assert_eq!(out.lines().count(), 9);
    assert!(out.contains("bank   0"));
    assert!(out.contains("steady: b_eff = "), "{out}");
}

#[test]
fn steady_respects_cycle_budget() {
    // A starved budget cannot reach the cyclic state: the command must
    // report the error (exit 1) rather than panic.
    let base = "steady --banks 13 --nc 6 --d1 1 --d2 6";
    let argv: Vec<&str> = base
        .split_whitespace()
        .chain(["--cycle-budget", "2"])
        .collect();
    let e = run(&argv).unwrap_err();
    assert!(e.to_string().contains("no cyclic state"), "{e}");
    assert_eq!(e.exit_code(), 1);
    let out = ok(&format!("{base} --cycle-budget 100000"));
    assert!(out.contains("b_eff = 7/6"), "{out}");
}

/// Long-period stride, burst and DRAM pairs, whose solve stops at a
/// recurrence up to address translation, print what the full-state search
/// printed, byte for byte.
#[test]
fn long_period_steady_states_are_pinned() {
    let cases = [
        (
            "steady --banks 127 --nc 16 --d1 1 --d2 3",
            "b_eff = 4/3 (per port: 1, 1/3)\n\
             transient 29 cycles, period 381 cycles\n\
             conflicts per period: bank 254, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 128 --nc 12 --d1 1 --d2 5",
            "b_eff = 6/5 (per port: 1, 1/5)\n\
             transient 19 cycles, period 640 cycles\n\
             conflicts per period: bank 512, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 128 --sections 8 --nc 12 --d1 3 --d2 5 --b2 7 --same-cpu --cyclic",
            "b_eff = 32/21 (per port: 20/21, 4/7)\n\
             transient 43 cycles, period 672 cycles\n\
             conflicts per period: bank 256, simultaneous 0, section 64\n",
        ),
        (
            "steady --banks 127 --nc 16 --d1 1 --d2 1 --b2 64",
            "b_eff = 2 (per port: 1, 1)\n\
             transient 15 cycles, period 127 cycles\n\
             conflicts per period: bank 0, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 64 --nc 8 --bank-model dram --dram-hit 3 --dram-rows 8 --d1 5 --d2 9 --b2 17",
            "b_eff = 14/9 (per port: 1, 5/9)\n\
             transient 66 cycles, period 4608 cycles\n\
             conflicts per period: bank 2048, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 32 --nc 6 --bank-model dram --dram-hit 2 --dram-rows 4 --d1 3 --d2 7 --b2 5 --cyclic",
            "b_eff = 6/5 (per port: 1/5, 1)\n\
             transient 32 cycles, period 640 cycles\n\
             conflicts per period: bank 512, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 127 --nc 12 --pattern burst --burst 2 --d1 1 --d2 3 --b2 40 --cyclic",
            "b_eff = 2/3 (per port: 1/2, 1/6)\n\
             transient 92 cycles, period 762 cycles\n\
             conflicts per period: bank 508, simultaneous 0, section 0\n",
        ),
        (
            "steady --banks 128 --sections 8 --nc 12 --pattern burst --burst 2 --d1 3 --d2 5 --b2 7 --same-cpu",
            "b_eff = 4/5 (per port: 1/2, 3/10)\n\
             transient 107 cycles, period 1280 cycles\n\
             conflicts per period: bank 384, simultaneous 0, section 128\n",
        ),
        (
            "steady --banks 64 --nc 6 --pattern burst --burst 4 --bank-model dram --dram-hit 2 --dram-rows 8 --d1 3 --d2 11 --b2 7",
            "b_eff = 1/2 (per port: 1/4, 1/4)\n\
             transient 237 cycles, period 2048 cycles\n\
             conflicts per period: bank 0, simultaneous 0, section 0\n",
        ),
    ];
    for (line, expected) in cases {
        assert_eq!(ok(line), expected, "{line}");
    }
}

/// Where translation is no symmetry of the model the solve searches the
/// full state: a consecutive section mapping (banks 2 and 3 share a
/// section, their translates 3 and 4 do not). A DRAM stride pair, which
/// once searched the full state too and now reduces (open rows move with
/// their addresses), prints what it printed then.
#[test]
fn steady_states_without_translation_symmetry_are_pinned() {
    for (b2, transient) in [(1, 10), (9, 6)] {
        let out = ok(&format!(
            "steady --banks 12 --sections 3 --nc 3 --consecutive --d1 1 --d2 1 --b2 {b2} --same-cpu"
        ));
        assert!(
            out.contains(&format!("transient {transient} cycles, period 12 cycles")),
            "b2 = {b2}: {out}"
        );
    }
    let out = ok("steady --banks 16 --nc 4 --d1 1 --d2 3 --bank-model dram --dram-hit 2");
    assert_eq!(
        out,
        "b_eff = 4/3 (per port: 1, 1/3)\n\
         transient 16 cycles, period 768 cycles\n\
         conflicts per period: bank 512, simultaneous 0, section 0\n"
    );
}

#[test]
fn affine_gather_period_is_the_request_period() {
    // ix(k) = 3k + c over 2^20 words walks the 16 banks exactly like
    // the stride-3 pair, so both report the same minimal period 16.
    let period = |extra: &str| {
        let out = ok(&format!("steady --banks 16 --nc 4 {extra}"));
        assert!(out.contains("b_eff = 2 (per port: 1, 1)"), "{out}");
        out.lines()
            .find_map(|l| l.split("period ").nth(1))
            .map(ToString::to_string)
            .unwrap_or_else(|| panic!("no period line in {out}"))
    };
    let gather = period("--pattern gather --affine 3");
    assert_eq!(gather, "16 cycles");
    assert_eq!(gather, period("--d1 3 --d2 3"));
}

#[test]
fn trace_respects_cycle_budget() {
    let argv = "trace --banks 13 --nc 6 --d1 1 --d2 6 --cycles 12 --cycle-budget 2";
    assert!(run(&argv.split_whitespace().collect::<Vec<_>>()).is_err());
}

#[test]
fn steady_exports_exec_telemetry() {
    let dir = temp_dir("steady-exec");
    let metrics = dir.join("steady.json");
    let out = ok(&format!(
        "steady --banks 12 --nc 3 --d1 1 --d2 7 --metrics-out {}",
        metrics.display()
    ));
    assert!(out.contains("metrics ->"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"exec_scenarios\":1"), "{json}");
    assert!(json.contains("exec_cache_misses"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_with_telemetry_outputs() {
    let dir = temp_dir("obs");
    let (metrics, events) = (dir.join("trace.json"), dir.join("trace.jsonl"));
    let out = ok(&format!(
        "trace --banks 8 --nc 2 --d1 1 --d2 3 --cycles 64 --obs-window 8 \
         --metrics-out {} --events-out {}",
        metrics.display(),
        events.display()
    ));
    assert!(out.contains("metrics ->"), "{out}");
    assert!(out.contains("events ->"), "{out}");
    assert!(!out.contains("b_eff(t):"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("vecmem-obs/metrics-v2"));
    let jsonl = std::fs::read_to_string(&events).unwrap();
    assert!(jsonl.starts_with("{\"schema\":\"vecmem-obs/events-v2\""));
    assert!(jsonl.contains("\"t\":\"grant\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn triad_with_telemetry_outputs() {
    let dir = temp_dir("triad-obs");
    let metrics = dir.join("triad.csv");
    let out = ok(&format!(
        "triad --inc 1 --alone --metrics-out {} --obs-window 128",
        metrics.display()
    ));
    assert!(out.contains("INC = 1"), "{out}");
    assert!(out.contains("metrics ->"), "{out}");
    let csv = std::fs::read_to_string(&metrics).unwrap();
    assert!(csv.starts_with("metric,index,value"));
    assert!(csv.contains("beff_window,"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn triad_single_inc() {
    let out = ok("triad --inc 1 --alone");
    assert!(out.contains("INC = 1"), "{out}");
    assert!(out.contains("simultaneous 0"), "{out}");
}

/// The sweep prints Fig. 10's table, or its CSV, at any size.
#[test]
fn triad_sweep_prints_fig10() {
    let out = ok("triad --sweep 2");
    assert!(out.starts_with("Fig. 10: triad"), "{out}");
    assert!(out.contains("best increments: "), "{out}");
    let csv = ok("triad --sweep 2 --csv");
    assert_eq!(csv.lines().count(), 3, "{csv}");
    assert!(csv.starts_with("inc,time_contended,time_alone,"), "{csv}");
}

/// The theorem table's stdout stays the table or pure CSV; the sweep's
/// counters go to `--metrics-out`.
#[test]
fn theorems_table_csv_and_metrics() {
    let dir = temp_dir("theorems");
    let metrics = dir.join("theorems.csv");
    let out = ok(&format!(
        "theorems --banks 6 --nc 2 --metrics-out {}",
        metrics.display()
    ));
    assert!(out.contains(" 0 mismatches\nmetrics -> "), "{out}");
    let csv = std::fs::read_to_string(&metrics).unwrap();
    assert!(csv.contains("exec_cache_hits,"), "{csv}");
    let rows = ok(&format!(
        "theorems --banks 6 --nc 2 --csv --metrics-out {}",
        metrics.display()
    ));
    assert!(rows.starts_with("d1,d2,classification,"), "{rows}");
    assert!(
        rows.lines().skip(1).all(|l| l.split(',').count() == 7),
        "{rows}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reproduce --out` writes every registered artifact, and each is its
/// committed golden. `table_random.txt` is not compared: its committed
/// Monte Carlo numbers predate the generator (`tests/goldens.rs` skips it
/// too).
#[test]
fn reproduce_writes_every_artifact() {
    let dir = temp_dir("reproduce");
    let out = ok(&format!("reproduce --out {}", dir.display()));
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for &(name, _) in vecmem_bench::artifacts::ARTIFACTS {
        let path = dir.join(name);
        assert!(
            out.contains(&format!("wrote {}\n", path.display())),
            "{out}"
        );
        let written = std::fs::read(&path).unwrap();
        if name != "table_random.txt" {
            assert!(
                written == std::fs::read(results.join(name)).unwrap(),
                "{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_reports_models() {
    let out = ok("random --banks 16 --nc 4 --ports 4 --cycles 5000");
    assert!(out.contains("Hellerman"));
    assert!(out.contains("capacity bound m/n_c = 4"));
}

#[test]
fn plan_lists_strides() {
    let out = ok("plan --banks 16 --nc 4 --max-stride 4 --pad 64");
    assert!(out.contains("pad dimension 64 -> 65"));
    // Stride 1 is safe against the unit-stride background; strides 2-4
    // conflict (gcd(16, d-1) < 2·n_c).
    let rows: Vec<&str> = out.lines().skip(1).collect();
    assert_eq!(rows.len(), 5); // 4 strides + pad line
    assert!(rows[0].ends_with("safe"));
    assert!(rows[1].ends_with("conflicts"));
    assert!(rows[2].ends_with("conflicts"));
    assert!(rows[3].ends_with("conflicts"));
}

#[test]
fn predict_sectioned_same_cpu() {
    let out = ok("predict --banks 12 --sections 2 --nc 2 --d1 1 --d2 1 --b2 3 --same-cpu");
    assert!(out.contains("sectioned analysis"), "{out}");
}

#[test]
fn spectrum_census() {
    let out = ok("spectrum --banks 12 --nc 3");
    assert!(out.contains("121 cases"), "{out}");
    assert!(out.contains("guaranteed full bandwidth"));
}

#[test]
fn loop_analysis_row_walk() {
    let out = ok("loop --banks 16 --nc 4 --dims 64,64 --dim 2");
    assert!(out.contains("stride (eq. 33): 64"), "{out}");
    assert!(out.contains("pad the leading dimension 64 -> 65"), "{out}");
}

#[test]
fn loop_analysis_diagonal() {
    let out = ok("loop --banks 16 --nc 4 --dims 64,64 --diagonal");
    assert!(out.contains("stride (eq. 33): 65"), "{out}");
    assert!(out.contains("solo b_eff = 1"), "{out}");
}

#[test]
fn gather_reports_cost() {
    let out = ok("gather --banks 16 --nc 4 --n 512");
    assert!(out.contains("irregularity cost"), "{out}");
}

#[test]
fn figure_command_runs() {
    let out = ok("figure 3");
    assert!(out.contains("Figure 3"), "{out}");
    assert!(out.contains("7/6"), "{out}");
}

#[test]
fn report_steady_decomposition_is_exact() {
    // m = 16, nc = 4, d1 = d2 = 4: both streams hammer the same
    // 4-bank access set (gcd = 4), a known Thm-2 conflict pair.
    let out = ok("report steady --banks 16 --nc 4 --d1 4 --d2 4");
    assert!(out.contains("loss decomposition"), "{out}");
    assert!(out.contains("[exact]"), "{out}");
    assert!(out.contains("per-bank utilization"), "{out}");
    assert!(out.contains("rotation-phase heatmap"), "{out}");
    assert!(out.contains("rotation,bank0,"), "{out}");
}

#[test]
fn report_steady_conflict_free_pair_has_no_stalls() {
    // `steady` is the default report mode.
    let out = ok("report --banks 12 --nc 3 --d1 1 --d2 7");
    assert!(out.contains("b_eff = 2"), "{out}");
    assert!(
        out.contains("every request was granted on arrival"),
        "{out}"
    );
    assert!(out.contains("identity: total stalls 0"), "{out}");
}

#[test]
fn report_steady_writes_trace_and_metrics() {
    let dir = temp_dir("report-steady");
    let trace = dir.join("steady.json");
    let metrics = dir.join("steady-metrics.json");
    let heatmap = dir.join("heat.csv");
    let out = ok(&format!(
        "report steady --banks 16 --nc 4 --d1 4 --d2 4 --trace-out {} --metrics-out {} \
         --heatmap-out {}",
        trace.display(),
        metrics.display(),
        heatmap.display()
    ));
    assert!(out.contains("trace ->"), "{out}");
    assert!(out.contains("metrics ->"), "{out}");
    assert!(out.contains("heatmap ->"), "{out}");
    let chrome = std::fs::read_to_string(&trace).unwrap();
    assert!(chrome.starts_with(r#"{"traceEvents":["#), "{chrome}");
    assert!(chrome.contains("cycle-period"), "{chrome}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("report_loss_inter"), "{json}");
    assert!(json.contains("report_stalls_total"), "{json}");
    let csv = std::fs::read_to_string(&heatmap).unwrap();
    assert!(csv.starts_with("rotation,bank0,"), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_triad_attributes_the_run() {
    let out = ok("report triad --inc 8");
    assert!(out.contains("triad INC = 8 (with background)"), "{out}");
    assert!(out.contains("loss decomposition over the run"), "{out}");
}

#[test]
fn report_spectrum_merged_trace() {
    let dir = temp_dir("report-spectrum");
    let trace = dir.join("census.json");
    let out = ok(&format!(
        "report spectrum --banks 12 --nc 3 --trace-out {}",
        trace.display()
    ));
    // Full (d1, d2, b2) census: 11 x 11 x 12 triples.
    assert!(out.contains("1452 cases"), "{out}");
    assert!(out.contains("exec: 11 slices"), "{out}");
    let chrome = std::fs::read_to_string(&trace).unwrap();
    assert!(chrome.contains(r#""name":"spectrum""#), "{chrome}");
    assert!(chrome.contains("worker-0"), "{chrome}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_exhaustive_writes_metrics_and_trace() {
    let dir = temp_dir("verify-obs");
    let (metrics, trace) = (dir.join("sweep.csv"), dir.join("sweep.json"));
    let out = ok(&format!(
        "verify --exhaustive --max-banks 4 --max-nc 2 --max-ports 2 --metrics-out {} \
         --trace-out {}",
        metrics.display(),
        trace.display()
    ));
    assert!(out.contains("metrics ->"), "{out}");
    assert!(out.contains("trace ->"), "{out}");
    let csv = std::fs::read_to_string(&metrics).unwrap();
    assert!(csv.contains("oracle_sweep_enumerated"), "{csv}");
    assert!(csv.contains("oracle_thm2_checked"), "{csv}");
    assert!(csv.contains("oracle_barrier_checked"), "{csv}");
    assert!(csv.contains("oracle_sweep_hit_rate"), "{csv}");
    let chrome = std::fs::read_to_string(&trace).unwrap();
    assert!(chrome.contains("conform-sweep"), "{chrome}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_diff_fig2_matches() {
    let out = ok("verify --diff --banks 12 --nc 3 --d1 1 --d2 7 --cycles 2000");
    assert!(out.contains("engines agree over 2000 cycles"), "{out}");
}

#[test]
fn verify_exhaustive_tiny_bounds_clean() {
    // `--exhaustive` is the default mode.
    let out = ok("verify --max-banks 5 --max-nc 2 --max-ports 2");
    assert!(out.contains("verdict: CLEAN"), "{out}");
    assert!(out.contains("barrier checks: Thms 6/7 (eq. 29) "), "{out}");
    assert!(out.contains("divergences 0  violations 0"), "{out}");
}

#[test]
fn verify_random_reports_coverage() {
    let out = ok("verify --random 30 --seed 5");
    assert!(out.contains("verdict: CLEAN"), "{out}");
    assert!(out.contains("distinct signatures"), "{out}");
    // Counter names are trimmed to their signature suffix in the table.
    assert!(!out.contains("oracle.explore.sig."), "{out}");
}

/// Every flag a command accepts.
fn specs(c: &Command) -> Vec<Spec> {
    c.flags
        .iter()
        .chain(c.groups.iter().flat_map(|g| g.1))
        .copied()
        .collect()
}

fn index(rng: &mut TestRng, len: usize) -> usize {
    usize::try_from(rng.bounded(len as u64)).unwrap()
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[index(rng, items.len())]
}

/// Values the property draws for any flag, valid or not.
const VALUES: [&str; 8] = ["0", "1", "2", "3", "16", "-1", "x", ""];

/// A value `kind` accepts, drawn from the same small set.
fn valid_value(rng: &mut TestRng, kind: Kind) -> String {
    match kind {
        Kind::Int(_) | Kind::OptInt => pick(rng, &["0", "1", "2", "3", "16"]).to_string(),
        Kind::Count(_) | Kind::OptCount => pick(rng, &["1", "2", "3", "16"]).to_string(),
        Kind::Choice(words) => pick(rng, words).to_string(),
        Kind::List(_) => pick(rng, &["1", "16", "2,3", "16,1"]).to_string(),
        Kind::Path => path_value(pick::<&str>(rng, &["1", "x"])),
        Kind::Switch => String::new(),
    }
}

/// Output paths land in one scratch directory.
fn path_value(name: &str) -> String {
    temp_dir("props").join(name).display().to_string()
}

/// A command line for `c`: its verb, mode and operand, then each of its
/// flags with probability 1/2 (its mode flag always), one item per flag.
/// Values come from [`VALUES`], or only valid ones when `valid`.
fn command_line(rng: &mut TestRng, c: &Command, valid: bool) -> Vec<Vec<String>> {
    let mut items = vec![vec![c.verb.to_string()]];
    if !c.mode.is_empty() && !c.mode.starts_with("--") {
        items.push(vec![c.mode.to_string()]);
    }
    if !c.operand.is_empty() {
        let id = if valid {
            "3"
        } else {
            pick(rng, &["3", "8a", "99", "x", ""])
        };
        items.push(vec![id.to_string()]);
    }
    for s in specs(c) {
        if format!("--{}", s.name) != c.mode && rng.bounded(2) == 0 {
            continue;
        }
        let mut item = vec![format!("--{}", s.name)];
        if s.kind != Kind::Switch {
            let value = match (valid, s.kind) {
                (true, kind) => valid_value(rng, kind),
                (false, Kind::Path) => path_value(pick::<&str>(rng, &VALUES)),
                (false, _) => pick(rng, &VALUES).to_string(),
            };
            item.push(value);
        }
        items.push(item);
    }
    items
}

/// Commands whose bodies stay cheap at the drawn values in a debug build:
/// all but the triad sweep (one 1024-element triad run per INC), the
/// conformance sweep (seconds at `--max-banks 16`), `random` (100,000
/// sampled cycles unless `--cycles` is drawn), `theorems` (a steady-state
/// search for each of `m` start banks of about `m²/2` distance pairs, so
/// its cost grows faster than `m³` up to the drawn `--banks 16`) and
/// `reproduce` (every figure and table, written to files;
/// `reproduce_writes_every_artifact` runs it once).
fn bounded(c: &Command) -> bool {
    !matches!(
        (c.verb, c.mode),
        ("triad", "--sweep")
            | ("verify", "--exhaustive")
            | ("random", _)
            | ("theorems", _)
            | ("reproduce", _)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// For every command: parsing a command line built from its table never
    /// panics and fails only as a usage error, and a bounded command's body
    /// never panics on what parses. Half the lines draw only values their
    /// flag's kind accepts, so that most of those reach the body.
    #[test]
    fn random_command_lines_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from_u64(seed);
        for c in CLI.commands {
            let valid = rng.bounded(2) == 0;
            let argv: Vec<String> = command_line(&mut rng, c, valid).concat();
            match CLI.parse(&argv) {
                Ok((parsed, args)) => {
                    prop_assert_eq!((parsed.verb, parsed.mode), (c.verb, c.mode));
                    if bounded(c) {
                        let _ = (c.run)(&args);
                    }
                }
                Err(e) => prop_assert_eq!(e.exit_code(), 2, "{argv:?}: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// One misspelt, foreign, repeated or stray token, or a second mode, in
    /// an otherwise valid command line is a usage error naming the token.
    #[test]
    fn a_bad_token_is_a_usage_error_naming_it(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from_u64(seed);
        let c = pick(&mut rng, CLI.commands);
        let mut items = command_line(&mut rng, c, true);
        let head = items.len() - items.iter().filter(|i| i[0].starts_with("--")).count();
        let own: Vec<String> = specs(c).iter().map(|s| format!("--{}", s.name)).collect();
        let siblings: Vec<&Command> =
            CLI.commands.iter().filter(|o| o.verb == c.verb && o.mode != c.mode).collect();
        // Another verb's flag; a sibling's mode flag would select that mode.
        let foreign: Vec<String> = CLI
            .commands
            .iter()
            .flat_map(specs)
            .map(|s| format!("--{}", s.name))
            .filter(|f| !own.contains(f) && siblings.iter().all(|o| o.mode != f))
            .collect();
        // The bad token, and whether it still has to be put into the line.
        let (token, insert) = match rng.bounded(5) {
            0 => (format!("{}z", pick(&mut rng, &own)), true),
            1 => (pick(&mut rng, &foreign).clone(), true),
            2 if items.len() > head => {
                let item = items[head + index(&mut rng, items.len() - head)].clone();
                items.push(item.clone());
                (item[0].clone(), false)
            }
            3 if !siblings.is_empty() => {
                let other = *pick(&mut rng, &siblings);
                let mut item = vec![other.mode.to_string()];
                let selector = specs(other).into_iter().find(|s| format!("--{}", s.name) == other.mode);
                if let Some(s) = selector.filter(|s| s.kind != Kind::Switch) {
                    item.push(valid_value(&mut rng, s.kind));
                }
                items.push(item);
                (other.mode.to_string(), false)
            }
            _ => {
                items.push(vec!["stray".to_string()]);
                ("stray".to_string(), false)
            }
        };
        if insert {
            let at = head + index(&mut rng, items.len() - head + 1);
            items.insert(at, vec![token.clone()]);
        }
        let argv: Vec<String> = items.concat();
        match CLI.parse(&argv) {
            Err(e @ Failure::Usage(_)) => {
                let name = token.trim_start_matches("--");
                prop_assert!(e.to_string().contains(name), "{argv:?}: {e}");
            }
            Err(e) => prop_assert!(false, "{argv:?}: not a usage error: {e}"),
            Ok((parsed, _)) => prop_assert!(false, "{argv:?} parsed as {} {}", parsed.verb, parsed.mode),
        }
    }
}
