//! Every flag of the `vecmem` command line, declared once, and the table
//! of commands built from them.

use crate::args::Kind::{Choice, Count, Int, List, OptCount, OptInt, Path, Switch};
use crate::args::{flag, Cli, Command, Flag, Group};
use crate::commands::*;
use vecmem_obs::DEFAULT_WINDOW;

// Geometry.
pub const BANKS: Flag<u64> = flag("banks", Count(16), "number of banks m");
pub const SECTIONS: Flag<Option<u64>> =
    flag("sections", OptCount, "number of sections s (default m)");
pub const NC: Flag<u64> = flag("nc", Count(4), "bank cycle time n_c in clock periods");
pub const CONSECUTIVE: Flag<bool> = flag("consecutive", Switch, "consecutive-bank section mapping");

// Stream pair.
pub const D1: Flag<u64> = flag("d1", Int(1), "distance of stream 1");
pub const D2: Flag<u64> = flag("d2", Int(1), "distance of stream 2");
pub const B1: Flag<u64> = flag("b1", Int(0), "start bank of stream 1");
pub const B2: Flag<u64> = flag("b2", Int(0), "start bank of stream 2");
pub const SAME_CPU: Flag<bool> = flag("same-cpu", Switch, "both ports on one CPU");
pub const CYCLIC: Flag<bool> = flag("cyclic", Switch, "cyclic priority rule (default fixed)");

// Access patterns and bank models.
const PATTERNS: &[&str] = &["stride", "gather", "burst"];
pub const PATTERN: Flag<&str> = flag("pattern", Choice(PATTERNS), "access pattern of both ports");
pub const SPAN: Flag<u64> = flag("span", Count(1 << 20), "gather index span in words");
pub const AFFINE: Flag<Option<u64>> = flag("affine", OptInt, "gather indices A*k + port");
pub const SEED: Flag<u64> = flag("seed", Int(1), "RNG seed");
pub const BURST: Flag<u64> = flag("burst", Count(4), "words per grant of a burst");
const MODELS: &[&str] = &["uniform", "dram"];
pub const BANK_MODEL: Flag<&str> = flag("bank-model", Choice(MODELS), "dram: open-row holds");
pub const DRAM_HIT: Flag<u64> = flag("dram-hit", Int(1), "hold of an open-row hit, 1..=nc");
pub const DRAM_ROWS: Flag<u64> = flag("dram-rows", Count(16), "rows tracked per bank");
pub const CYCLE_BUDGET: Flag<u64> = flag(
    "cycle-budget",
    Int(10_000_000),
    "search budget in steps, which a stride or burst search may keep below transient + period",
);

// Outputs.
pub const METRICS_OUT: Flag<Option<String>> =
    flag("metrics-out", Path, "metrics snapshot, CSV if *.csv");
pub const EVENTS_OUT: Flag<Option<String>> =
    flag("events-out", Path, "cycle-level event log (JSONL)");
pub const OBS_WINDOW: Flag<u64> = flag("obs-window", Count(DEFAULT_WINDOW), "b_eff(t) window");
pub const TRACE_OUT: Flag<Option<String>> =
    flag("trace-out", Path, "span trace, Chrome JSON if *.json");
pub const HEATMAP_OUT: Flag<Option<String>> =
    flag("heatmap-out", Path, "rotation-phase stall heatmap CSV");
pub const TOP: Flag<u64> = flag("top", Int(8), "rows of the attribution tables");
pub const CSV: Flag<bool> = flag("csv", Switch, "print CSV instead of the table");
pub const OUT: Flag<Option<String>> = flag("out", Path, "output directory (default results)");

// One command's own.
pub const TRACE_CYCLES: Flag<u64> = flag("cycles", Int(36), "cycles to trace");
pub const INC: Flag<u64> = flag("inc", Int(1), "array increment INC");
pub const SWEEP: Flag<u64> = flag("sweep", OptCount, "runs INC = 1..=N");
pub const ALONE: Flag<bool> = flag("alone", Switch, "the other CPU stays idle");
pub const PORTS: Flag<u64> = flag("ports", Count(4), "ports, one per CPU");
pub const SAMPLE_CYCLES: Flag<u64> = flag("cycles", Count(100_000), "cycles to sample");
pub const MAX_STRIDE: Flag<Option<u64>> =
    flag("max-stride", OptCount, "largest stride (2m; skew: m)");
pub const PAD: Flag<Option<u64>> = flag("pad", OptInt, "pad this array dimension");
const SKEW_PATTERNS: &[&str] = &["stride", "gather"];
pub const SKEW_PATTERN: Flag<&str> =
    flag("pattern", Choice(SKEW_PATTERNS), "what each scheme runs");
pub const FULL: Flag<bool> = flag("full", Switch, "full (d1, d2, b2) census");
pub const DIMS: Flag<Vec<u64>> = flag("dims", List("64,64"), "array dimensions");
pub const DIM: Flag<u64> = flag("dim", Count(1), "dimension the loop walks");
pub const DIAGONAL: Flag<bool> = flag("diagonal", Switch, "walk the diagonal instead");
pub const N: Flag<u64> = flag("n", Count(4096), "elements gathered");
pub const EXHAUSTIVE: Flag<bool> = flag("exhaustive", Switch, "this mode (the default)");
pub const MAX_BANKS: Flag<u64> = flag("max-banks", Count(16), "sweep bound on m");
pub const MAX_NC: Flag<u64> = flag("max-nc", Count(4), "sweep bound on n_c");
pub const MAX_PORTS: Flag<u64> = flag("max-ports", Count(3), "sweep bound on ports");
pub const SWEEP_BUDGET: Flag<u64> = flag("cycle-budget", Int(500_000), "search budget per point");
pub const RANDOM: Flag<u64> = flag("random", OptCount, "number of random cases");
pub const EXPLORE_BUDGET: Flag<u64> = flag("cycle-budget", Int(200_000), "search budget per case");
pub const DIFF: Flag<bool> = flag("diff", Switch, "this mode");
pub const DIFF_CYCLES: Flag<u64> = flag("cycles", Count(10_000), "cycles to diff");

/// The `vecmem` command line: every verb and mode, the flags it alone
/// takes and the shared groups it takes too. A verb's first mode is its
/// default.
#[rustfmt::skip]
pub const CLI: Cli = {
    const GEOMETRY: Group =
        Group("geometry", &[BANKS.spec, SECTIONS.spec, NC.spec, CONSECUTIVE.spec]);
    const STREAMS: Group = Group("stream", &[D1.spec, D2.spec, B1.spec, B2.spec, SAME_CPU.spec]);
    const PRIORITY: Group = Group("priority", &[CYCLIC.spec]);
    const PATTERN_GROUP: Group =
        Group("pattern", &[PATTERN.spec, SPAN.spec, AFFINE.spec, SEED.spec, BURST.spec]);
    const BANK_MODELS: Group =
        Group("bank model", &[BANK_MODEL.spec, DRAM_HIT.spec, DRAM_ROWS.spec]);
    const TELEMETRY: Group =
        Group("telemetry", &[METRICS_OUT.spec, EVENTS_OUT.spec, OBS_WINDOW.spec]);
    const REPORT: Group =
        Group("report", &[TOP.spec, HEATMAP_OUT.spec, METRICS_OUT.spec, TRACE_OUT.spec]);
    Cli {
        commands: &[
            Command { verb: "predict", mode: "", operand: "", run: cmd_predict,
                about: "analytic classification of a stream pair (Theorems 2-9)",
                flags: &[], groups: &[GEOMETRY, STREAMS] },
            Command { verb: "steady", mode: "", operand: "", run: cmd_steady,
                about: "exact simulated steady state of a stream or pattern pair",
                flags: &[CYCLE_BUDGET.spec, METRICS_OUT.spec],
                groups: &[GEOMETRY, STREAMS, PRIORITY, PATTERN_GROUP, BANK_MODELS] },
            Command { verb: "trace", mode: "", operand: "", run: cmd_trace,
                about: "paper-style access trace of a pair, then its steady state",
                flags: &[TRACE_CYCLES.spec, CYCLE_BUDGET.spec],
                groups: &[GEOMETRY, STREAMS, PRIORITY, PATTERN_GROUP, BANK_MODELS, TELEMETRY] },
            Command { verb: "triad", mode: "--inc", operand: "", run: cmd_triad,
                about: "one run of the Fig. 10 triad experiment",
                flags: &[INC.spec, ALONE.spec], groups: &[TELEMETRY] },
            Command { verb: "triad", mode: "--sweep", operand: "", run: cmd_triad_sweep,
                about: "Fig. 10: the five triad series, contended and alone",
                flags: &[SWEEP.spec, CSV.spec], groups: &[] },
            Command { verb: "theorems", mode: "", operand: "", run: cmd_theorems,
                about: "Theorems 2-7 over every distance pair, analytic vs simulated",
                flags: &[BANKS.spec, NC.spec, CSV.spec, METRICS_OUT.spec], groups: &[] },
            Command { verb: "random", mode: "", operand: "", run: cmd_random,
                about: "random-access bandwidth vs the classical models",
                flags: &[PORTS.spec, SAMPLE_CYCLES.spec, SEED.spec],
                groups: &[GEOMETRY, PRIORITY] },
            Command { verb: "plan", mode: "", operand: "", run: cmd_plan,
                about: "stride assessment and array-padding advice",
                flags: &[MAX_STRIDE.spec, PAD.spec], groups: &[GEOMETRY] },
            Command { verb: "skew", mode: "", operand: "", run: cmd_skew,
                about: "skewing schemes over strides, or over one gather walk",
                flags: &[SKEW_PATTERN.spec, MAX_STRIDE.spec, SPAN.spec, AFFINE.spec, SEED.spec],
                groups: &[GEOMETRY] },
            Command { verb: "spectrum", mode: "", operand: "", run: cmd_spectrum,
                about: "classification census over all stride pairs",
                flags: &[FULL.spec], groups: &[GEOMETRY] },
            Command { verb: "loop", mode: "", operand: "", run: cmd_loop,
                about: "analyse a Fortran loop over an array",
                flags: &[DIMS.spec, DIM.spec, INC.spec, DIAGONAL.spec], groups: &[GEOMETRY] },
            Command { verb: "gather", mode: "", operand: "", run: cmd_gather,
                about: "index-vector (gather) bandwidth vs unit stride",
                flags: &[N.spec, SPAN.spec, SEED.spec], groups: &[GEOMETRY] },
            Command { verb: "figure", mode: "", operand: "ID", run: cmd_figure,
                about: "regenerate a paper trace figure: 2-7, 8a, 8b or 9",
                flags: &[TRACE_CYCLES.spec], groups: &[] },
            Command { verb: "report", mode: "steady", operand: "", run: report_steady,
                about: "where one steady period of a pair lost its bandwidth",
                flags: &[CYCLE_BUDGET.spec],
                groups: &[GEOMETRY, STREAMS, PRIORITY, PATTERN_GROUP, BANK_MODELS, REPORT] },
            Command { verb: "report", mode: "triad", operand: "", run: report_triad,
                about: "where one Fig. 10 triad run lost its bandwidth",
                flags: &[INC.spec, ALONE.spec], groups: &[REPORT] },
            Command { verb: "report", mode: "spectrum", operand: "", run: report_spectrum,
                about: "the census with execution telemetry",
                flags: &[METRICS_OUT.spec, TRACE_OUT.spec], groups: &[GEOMETRY] },
            Command { verb: "verify", mode: "--exhaustive", operand: "", run: verify_exhaustive,
                about: "small-geometry sweep: reference oracle and theorems",
                flags: &[EXHAUSTIVE.spec, MAX_BANKS.spec, MAX_NC.spec, MAX_PORTS.spec,
                    SWEEP_BUDGET.spec, METRICS_OUT.spec, TRACE_OUT.spec], groups: &[] },
            Command { verb: "verify", mode: "--random", operand: "", run: verify_random,
                about: "coverage-guided random differential cases",
                flags: &[RANDOM.spec, SEED.spec, EXPLORE_BUDGET.spec], groups: &[] },
            Command { verb: "verify", mode: "--diff", operand: "", run: verify_diff,
                about: "lockstep-diff one pair; dumps the first divergent cycle",
                flags: &[DIFF.spec, DIFF_CYCLES.spec], groups: &[GEOMETRY, STREAMS, PRIORITY] },
            Command { verb: "reproduce", mode: "", operand: "", run: cmd_reproduce,
                about: "write every registered figure and table file into a directory",
                flags: &[OUT.spec], groups: &[] },
        ],
        examples: &[
            "predict --banks 12 --nc 3 --d1 1 --d2 7",
            "trace --banks 13 --nc 6 --d1 1 --d2 6 --cycles 40",
            "triad --sweep 16",
            "theorems --banks 13 --csv",
            "reproduce --out fresh-results",
            "triad --inc 8 --metrics-out triad8.json --events-out triad8.jsonl",
            "random --banks 64 --ports 8",
            "report steady --banks 16 --nc 4 --d1 4 --d2 4",
            "report steady --d1 1 --d2 6 --trace-out steady.json",
            "steady --pattern gather --span 65536 --seed 7",
            "steady --pattern burst --burst 4 --bank-model dram --dram-hit 2",
            "report steady --pattern gather --affine 16",
            "skew --pattern gather --affine 16",
        ],
    }
};
