//! `vecmem` — command-line interface to the interleaved-memory bandwidth
//! model and simulator (reproduction of Oed & Lange, 1985).

mod args;
mod commands;

use args::Options;

const USAGE: &str = "\
vecmem — effective bandwidth of interleaved memories in vector processors

USAGE: vecmem <COMMAND> [OPTIONS]

COMMANDS:
  predict   analytic classification of a stream pair (Theorems 2-9)
  steady    exact simulated steady-state bandwidth of a pattern pair
            (strides, gathers, bursts; uniform or DRAM bank model)
  trace     paper-style ASCII access trace of a stream/pattern pair
  triad     the Fig. 10 triad experiment (--inc N | --sweep MAX) [--alone]
  random    random-access bandwidth vs classical models
  plan      stride assessment and array-padding advice [--pad DIM]
  skew      compare skewing schemes over strides, or over one gather
            walk with --pattern gather [--affine A | --seed S]
  spectrum  classification census over all stride pairs [--full]
  loop      analyse a Fortran loop (--dims J1,J2 --dim K --inc N | --diagonal)
  gather    index-vector (gather) bandwidth vs unit stride
  figure    regenerate a paper trace figure: vecmem figure 3
  report    conflict-attribution report: vecmem report [steady|triad|spectrum]
            (where did the lost bandwidth go, per bank / stream / kind)
  verify    differential oracle + theorem conformance
            [--exhaustive (default) | --random N | --diff]

COMMON OPTIONS:
  --banks M          number of banks (default 16)
  --sections S       number of sections (default = banks)
  --nc N             bank cycle time in clock periods (default 4)
  --consecutive      consecutive-bank section mapping (default cyclic)
  --d1 D --d2 D      stream distances (default 1)
  --b1 B --b2 B      start banks (default 0)
  --same-cpu         place both ports on one CPU (section conflicts)
  --cyclic           cyclic (rotating) priority rule (default fixed)
  --cycles N         cycles to trace / sample
  --cycle-budget N   max cycles of the steady-state search (steady, trace;
                     default 10000000; exits non-zero if not converged)
  --ports P          port count (random)
  --seed S           RNG seed (random, gather patterns, verify --random)

PATTERN OPTIONS (steady, trace, report steady — both ports; skew solo):
  --pattern K        stride (default) | gather | burst
  --span N           gather index span in words (default 1048576)
  --affine A         affine gather indices a*k + port instead of
                     pseudo-random ones (exact steady state)
  --burst B          words per grant for burst patterns (default 4)
  --bank-model K     uniform (default) | dram (open-row hit/miss holds)
  --dram-hit N       hold of an open-row hit, 1..=nc (default 1)
  --dram-rows R      rows tracked per bank (default 16)
  Aperiodic (pseudo-random) gathers report a windowed estimate instead
  of an exact cyclic state.

VERIFY OPTIONS:
  --exhaustive       full small-geometry conformance sweep (the default)
  --max-banks M      sweep bound on m (default 16)
  --max-nc N         sweep bound on n_c (default 4)
  --max-ports P      sweep bound on port count (default 3)
  --random N         N coverage-guided random differential cases
  --diff             lockstep-diff one scenario (common stream options
                     apply; prints the first divergent cycle with a dump)
  --metrics-out P    (--exhaustive) per-theorem check counts + cache hit
                     rate as a metrics snapshot
  --trace-out P      (--exhaustive) sweep progress as a span trace

REPORT OPTIONS (common stream options apply; triad takes --inc/--alone):
  --top N            rows of the attribution tables (default 8)
  --heatmap-out P    write the rotation-phase stall heatmap CSV to P
                     (steady reports it inline otherwise)
  --trace-out P      span trace: Chrome trace-event JSON when P ends in
                     .json (load in Perfetto), spans-v1 JSONL otherwise
  --metrics-out P    metrics snapshot with the loss decomposition

TELEMETRY (trace, triad; steady exports sweep-execution counters):
  --metrics-out P    write a metrics snapshot (JSON; CSV when P ends in .csv)
  --events-out P     write the cycle-level event log (JSONL)
  --obs-window N     cycles per b_eff(t) window (default 64)

EXAMPLES:
  vecmem predict --banks 12 --nc 3 --d1 1 --d2 7
  vecmem trace --banks 13 --nc 6 --d1 1 --d2 6 --cycles 40
  vecmem triad --sweep 16
  vecmem triad --inc 8 --metrics-out triad8.json --events-out triad8.jsonl
  vecmem random --banks 64 --ports 8
  vecmem report steady --banks 16 --nc 4 --d1 4 --d2 4
  vecmem report steady --d1 1 --d2 6 --trace-out steady.json
  vecmem steady --pattern gather --span 65536 --seed 7
  vecmem steady --pattern burst --burst 4 --bank-model dram --dram-hit 2
  vecmem report steady --pattern gather --affine 16
  vecmem skew --pattern gather --affine 16
";

const BOOL_FLAGS: &[&str] = &[
    "same-cpu",
    "cyclic",
    "alone",
    "consecutive",
    "full",
    "diagonal",
    "exhaustive",
    "diff",
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let opts = match Options::parse(argv, BOOL_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match command.as_str() {
        "predict" => commands::cmd_predict(&opts),
        "steady" => commands::cmd_steady(&opts),
        "trace" => commands::cmd_trace(&opts),
        "triad" => commands::cmd_triad(&opts),
        "random" => commands::cmd_random(&opts),
        "plan" => commands::cmd_plan(&opts),
        "skew" => commands::cmd_skew(&opts),
        "spectrum" => commands::cmd_spectrum(&opts),
        "loop" => commands::cmd_loop(&opts),
        "gather" => commands::cmd_gather(&opts),
        "figure" => commands::cmd_figure(&opts),
        "report" => commands::cmd_report(&opts),
        "verify" => commands::cmd_verify(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => Err(format!("unknown command '{other}' (try 'vecmem help')").into()),
    };
    match result {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
