//! Seeded input generation.
//!
//! Every scenario the system receives is built here. A workload's
//! scenarios come in two steps:
//!
//! 1. a **skeleton** (geometries, port topologies, priority rules and
//!    pattern parameters), drawn once from a constant seed, so it is the
//!    same list on every run;
//! 2. a **relabelling** drawn from `--seed`: each scenario's bank numbers
//!    are mapped by `b -> u·b + t (mod n)` with `u` a unit of `Z_n`,
//!    applied to every port at once.
//!
//! The relabelling is an exact symmetry of the memory model: bank and
//! section coincidences, and under the DRAM model open-row hits, are
//! preserved, so the simulated trajectory is the same up to bank names.
//! Every seed therefore gives different inputs but the same simulated
//! work (same periods, same transients, same b_eff), which keeps host
//! times comparable across seeds while heavy-tailed periods would
//! otherwise make them differ by ~10% between two seeds. The one family
//! whose cost does not depend on its parameters, pseudo-random gathers
//! (a fixed estimate window), draws its parameters from `--seed`
//! outright.

use vecmem_analytic::numtheory::gcd;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::pattern::{IndexPattern, PatternSpec};
use vecmem_banksim::{BankModel, PriorityRule, SimConfig, SmallRng};
use vecmem_exec::{PatternSteadyScenario, SweepBuilder};
use vecmem_oracle::conform::ConformScenario;
use vecmem_oracle::SweepBounds;

/// Cycle budget of every steady-state search of the seeded workloads:
/// twice the exhaustive sweep's, as the longest skeleton scenario (an
/// m = 13 gather) needs 583k cycles.
pub const BUDGET: u64 = 1_000_000;

/// One scenario and the class it was drawn for.
#[derive(Debug, Clone)]
pub struct Case {
    /// Class label, used to split the layer metrics.
    pub class: &'static str,
    /// The scenario, as the exec layer runs it.
    pub scenario: PatternSteadyScenario,
}

impl Case {
    fn new(
        class: &'static str,
        config: SimConfig,
        patterns: Vec<PatternSpec>,
        budget: u64,
    ) -> Self {
        Self {
            class,
            scenario: PatternSteadyScenario {
                config,
                patterns,
                max_cycles: budget,
            },
        }
    }

    /// The ports as constant-stride streams, when every port is one.
    #[must_use]
    pub fn streams(&self) -> Option<Vec<StreamSpec>> {
        self.scenario
            .patterns
            .iter()
            .map(|p| match *p {
                PatternSpec::Stride {
                    start_bank,
                    distance,
                } => Some(StreamSpec {
                    start_bank,
                    distance,
                }),
                _ => None,
            })
            .collect()
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; the smoke
/// test runs [`Sizes::SMOKE`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `stride_large` scenarios.
    pub stride: usize,
    /// `gather_affine` gathers on power-of-two bank counts.
    pub pow2: usize,
    /// `gather_affine` gathers on 13 banks.
    pub m13: usize,
    /// `pattern_mix` pseudo-random gathers.
    pub gather_random: usize,
    /// `pattern_mix` strided bursts.
    pub burst: usize,
    /// `pattern_mix` DRAM open-row strides.
    pub dram: usize,
    /// Bounds of the `verify_exhaustive` sweep.
    pub sweep: SweepBounds,
    /// Points of the sweep's space sampled for latency and layer replays.
    pub sweep_sample: usize,
}

impl Sizes {
    /// The measured sizes: each seeded workload's rep takes about a second
    /// of serial host time on a 2-core x86-64 VM.
    pub const FULL: Self = Self {
        stride: 1000,
        pow2: 850,
        m13: 150,
        gather_random: 36,
        burst: 1450,
        dram: 1200,
        sweep: SweepBounds {
            max_banks: 16,
            max_nc: 4,
            max_ports: 3,
            steady_budget: 500_000,
        },
        sweep_sample: 2000,
    };

    /// Reduced sizes for the in-tree smoke test.
    pub const SMOKE: Self = Self {
        stride: 8,
        pow2: 4,
        m13: 2,
        gather_random: 2,
        burst: 6,
        dram: 6,
        sweep: SweepBounds {
            max_banks: 6,
            max_nc: 2,
            max_ports: 2,
            steady_budget: 100_000,
        },
        sweep_sample: 40,
    };
}

/// Skeleton seeds (constant) and relabelling salts, one per workload so
/// that two workloads run with the same `--seed` draw independently.
const STRIDE_SALT: u64 = 0x5354_5249_4445;
const GATHER_SALT: u64 = 0x4741_5448_4552;
const MIX_SALT: u64 = 0x4d49_5845_4421;
const SWEEP_SALT: u64 = 0x5357_4545_5021;

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len() as u64) as usize]
}

/// The relabelling `b -> u·b + t (mod n)`.
#[derive(Debug, Clone, Copy)]
struct Relabel {
    u: u64,
    t: u64,
    n: u64,
}

impl Relabel {
    /// A uniformly drawn unit `u` of `Z_n` and shift `t`.
    fn draw(rng: &mut SmallRng, n: u64) -> Self {
        let u = loop {
            let u = rng.gen_range(1..n.max(2));
            if gcd(u, n) == 1 {
                break u;
            }
        };
        Self {
            u,
            t: rng.gen_range(0..n),
            n,
        }
    }

    fn scale(self, x: u64) -> u64 {
        ((u128::from(self.u) * u128::from(x)) % u128::from(self.n)) as u64
    }

    fn address(self, x: u64) -> u64 {
        (self.scale(x) + self.t) % self.n
    }

    /// A stride or burst port: start address relabelled, distance scaled.
    fn stride(self, spec: PatternSpec) -> PatternSpec {
        match spec {
            PatternSpec::Stride {
                start_bank,
                distance,
            } => PatternSpec::Stride {
                start_bank: self.address(start_bank),
                distance: self.scale(distance),
            },
            PatternSpec::Burst {
                start_bank,
                distance,
                burst,
            } => PatternSpec::Burst {
                start_bank: self.address(start_bank),
                distance: self.scale(distance),
                burst,
            },
            gather @ PatternSpec::Gather { .. } => gather,
        }
    }
}

/// `n` scenarios: the skeleton drawn by `skeleton` from the constant
/// stream `salt`, each relabelled by `relabel` from the `seed` stream.
fn generate(
    seed: u64,
    salt: u64,
    n: usize,
    mut skeleton: impl FnMut(&mut SmallRng) -> Case,
    relabel: impl Fn(&mut SmallRng, Case) -> Case,
) -> Vec<Case> {
    let mut shape = SmallRng::seed_from_u64(salt);
    let mut labels = SmallRng::seed_from_u64(seed ^ salt);
    (0..n)
        .map(|_| {
            let case = skeleton(&mut shape);
            relabel(&mut labels, case)
        })
        .collect()
}

/// Relabels every stride and burst port of a uniform-model case over its
/// bank count.
fn relabel_banks(rng: &mut SmallRng, mut case: Case) -> Case {
    let map = Relabel::draw(rng, case.scenario.config.geometry.banks());
    for p in &mut case.scenario.patterns {
        *p = map.stride(*p);
    }
    case
}

/// One port per CPU or all ports on one CPU, with either priority rule.
fn config(rng: &mut SmallRng, geom: Geometry, ports: usize) -> SimConfig {
    let config = if rng.gen_bool(0.5) {
        SimConfig::one_port_per_cpu(geom, ports)
    } else {
        SimConfig::single_cpu(geom, ports)
    };
    if rng.gen_bool(0.5) {
        config.with_priority(PriorityRule::Cyclic)
    } else {
        config
    }
}

fn geometry(banks: u64, sections: u64, nc: u64) -> Geometry {
    Geometry::new(banks, sections, nc).expect("generator draws only valid geometries")
}

fn stride(rng: &mut SmallRng, banks: u64) -> PatternSpec {
    PatternSpec::Stride {
        start_bank: rng.gen_range(0..banks),
        distance: rng.gen_range(0..banks),
    }
}

/// `stride_large`: 2–4 constant-stride ports on 32–128 banks with long
/// bank cycles, one or several CPUs, some sectioned. Periods are long and
/// no two scenarios share a cache key.
#[must_use]
pub fn stride_large(seed: u64, sizes: &Sizes) -> Vec<Case> {
    let skeleton = |rng: &mut SmallRng| {
        let banks = pick(rng, &[32, 61, 64, 96, 127, 128]);
        let nc = rng.gen_range_inclusive(6..=16);
        // Four ports on a prime bank count run for up to 400k cycles, a
        // dozen of them would take half the batch.
        let max_ports = if banks % 2 == 1 { 3 } else { 4 };
        let ports = rng.gen_range_inclusive(2..=max_ports) as usize;
        // A quarter of the composite bank counts are sectioned; the primes
        // have no proper divisor to section by.
        let sections = if banks % 4 == 0 && rng.gen_bool(0.25) {
            pick(rng, &[4, 8])
        } else {
            banks
        };
        let config = config(rng, geometry(banks, sections, nc), ports);
        let patterns = (0..ports).map(|_| stride(rng, banks)).collect();
        Case::new("stride", config, patterns, BUDGET)
    };
    generate(seed, STRIDE_SALT, sizes.stride, skeleton, relabel_banks)
}

/// Index span of the power-of-two-bank gathers.
const POW2_SPAN: u64 = 1 << 11;
/// Index span of the 13-bank gathers.
const M13_SPAN: u64 = 1 << 9;

fn affine_gather(rng: &mut SmallRng, span: u64) -> PatternSpec {
    PatternSpec::Gather {
        base: rng.gen_range(0..span),
        span,
        index: IndexPattern::Affine {
            a: 2 * rng.gen_range(0..span / 2) + 1,
            c: rng.gen_range(0..span),
        },
    }
}

/// `gather_affine`: two-port affine gathers with odd multipliers in two
/// classes. `pow2`: 8, 16 or 32 banks and span 2048, where the packed
/// slot resolves the index period (2048 grants) although the bank
/// sequence repeats after at most 32. `m13`: 13 banks and span 512, whose
/// index period is the genuine period of the bank sequence.
#[must_use]
pub fn gather_affine(seed: u64, sizes: &Sizes) -> Vec<Case> {
    // pow2: with m | span, bank(k) = base + a·k + c (mod m), so scaling
    // base, a and c by an odd u and shifting base by t maps bank b to
    // u·b + t (mod m) while keeping the index period.
    let pow2_skeleton = |rng: &mut SmallRng| {
        let banks = pick(rng, &[8, 16, 32]);
        let nc = rng.gen_range_inclusive(2..=8);
        let config = config(rng, geometry(banks, banks, nc), 2);
        let patterns = vec![affine_gather(rng, POW2_SPAN), affine_gather(rng, POW2_SPAN)];
        Case::new("pow2", config, patterns, BUDGET)
    };
    let pow2_relabel = |rng: &mut SmallRng, mut case: Case| {
        let map = Relabel::draw(rng, POW2_SPAN);
        for p in &mut case.scenario.patterns {
            if let PatternSpec::Gather {
                base,
                index: IndexPattern::Affine { a, c },
                ..
            } = p
            {
                *base = map.address(*base);
                *a = map.scale(*a);
                *c = map.scale(*c);
            }
        }
        case
    };
    // m13: 512 is a unit mod 13, so no scaling survives the index wrap;
    // shifting every base by the same t relabels bank b to b + t.
    let m13_skeleton = |rng: &mut SmallRng| {
        let nc = rng.gen_range_inclusive(2..=6);
        let config = config(rng, geometry(13, 13, nc), 2);
        let patterns = vec![affine_gather(rng, M13_SPAN), affine_gather(rng, M13_SPAN)];
        Case::new("m13", config, patterns, BUDGET)
    };
    let m13_relabel = |rng: &mut SmallRng, mut case: Case| {
        let t = rng.gen_range(0..13);
        for p in &mut case.scenario.patterns {
            if let PatternSpec::Gather { base, .. } = p {
                *base += t;
            }
        }
        case
    };
    let mut cases = generate(seed, GATHER_SALT, sizes.pow2, pow2_skeleton, pow2_relabel);
    cases.extend(generate(
        seed,
        GATHER_SALT ^ 13,
        sizes.m13,
        m13_skeleton,
        m13_relabel,
    ));
    cases
}

/// `pattern_mix`: three families on the same kernel. Pseudo-random
/// gathers next to a stride (aperiodic: a windowed estimate, no cycle
/// detection), strided bursts of 1–4 words (idle ports with cooldown) and
/// DRAM open-row strides with 4 or 8 rows and a hit cycle in `1..=n_c`
/// (asymmetric holds).
#[must_use]
pub fn pattern_mix(seed: u64, sizes: &Sizes) -> Vec<Case> {
    // The window, not the draw, sets a pseudo-random gather's cost: the
    // seed picks the index stream and the stride port outright.
    let random_skeleton = |rng: &mut SmallRng| {
        let banks = pick(rng, &[13, 16, 32, 64]);
        let nc = rng.gen_range_inclusive(2..=8);
        let config = config(rng, geometry(banks, banks, nc), 2);
        Case::new("gather_random", config, Vec::new(), BUDGET)
    };
    let random_draw = |rng: &mut SmallRng, mut case: Case| {
        let banks = case.scenario.config.geometry.banks();
        case.scenario.patterns = vec![
            PatternSpec::Gather {
                base: 0,
                span: 1 << 16,
                index: IndexPattern::PseudoRandom {
                    seed: rng.next_u64(),
                },
            },
            stride(rng, banks),
        ];
        case
    };
    let burst_skeleton = |rng: &mut SmallRng| {
        let banks = pick(rng, &[16, 32, 64]);
        let nc = rng.gen_range_inclusive(2..=8);
        let ports = rng.gen_range_inclusive(2..=3) as usize;
        let config = config(rng, geometry(banks, banks, nc), ports);
        let patterns = (0..ports)
            .map(|_| PatternSpec::Burst {
                start_bank: rng.gen_range(0..banks),
                distance: rng.gen_range(0..banks),
                burst: rng.gen_range_inclusive(1..=4),
            })
            .collect();
        Case::new("burst", config, patterns, BUDGET)
    };
    // DRAM: a request's (bank, row) is its word address mod m·rows, and
    // hits and bank conflicts depend only on coincidences mod m·rows and
    // mod m, which a unit of Z_{m·rows} preserves.
    let dram_skeleton = |rng: &mut SmallRng| {
        let banks = pick(rng, &[32, 64]);
        let nc = rng.gen_range_inclusive(2..=8);
        let rows = pick(rng, &[4, 8]);
        let bank_model = BankModel::Dram {
            hit_cycle: rng.gen_range_inclusive(1..=nc),
            rows,
        };
        let config = config(rng, geometry(banks, banks, nc), 2).with_bank_model(bank_model);
        let patterns = vec![stride(rng, banks * rows), stride(rng, banks * rows)];
        Case::new("dram", config, patterns, BUDGET)
    };
    let dram_relabel = |rng: &mut SmallRng, mut case: Case| {
        let cells = match case.scenario.config.bank_model {
            BankModel::Dram { rows, .. } => case.scenario.config.geometry.banks() * rows,
            BankModel::Uniform => case.scenario.config.geometry.banks(),
        };
        let map = Relabel::draw(rng, cells);
        for p in &mut case.scenario.patterns {
            *p = map.stride(*p);
        }
        case
    };
    let mut cases = generate(
        seed,
        MIX_SALT,
        sizes.gather_random,
        random_skeleton,
        random_draw,
    );
    cases.extend(generate(
        seed,
        MIX_SALT ^ 1,
        sizes.burst,
        burst_skeleton,
        relabel_banks,
    ));
    cases.extend(generate(
        seed,
        MIX_SALT ^ 2,
        sizes.dram,
        dram_skeleton,
        dram_relabel,
    ));
    cases
}

/// `n` points drawn uniformly from the space `oracle::conform::sweep`
/// enumerates under `bounds`, as the conformance scenarios the sweep
/// would build for them. The skeleton is constant; `seed` scales each
/// point's distances and start banks by a unit of `Z_m`, which maps a
/// sweep point to an isomorphic sweep point.
#[must_use]
pub fn sweep_sample(seed: u64, bounds: &SweepBounds, n: usize) -> Vec<ConformScenario> {
    // The sweep's blocks, in its own order: per (m, n_c), the lone-stream
    // tier (m² points), then per topology and priority rule the pair tier
    // (m³) and the triple tier (m³).
    let mut blocks = Vec::new();
    for m in 1..=bounds.max_banks {
        for nc in 1..=bounds.max_nc {
            blocks.push((m, nc, 1, false, PriorityRule::Fixed, m * m));
            for ports in 2..=bounds.max_ports.min(3) {
                for same in [false, true] {
                    for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                        blocks.push((m, nc, ports, same, prio, m * m * m));
                    }
                }
            }
        }
    }
    let total: u64 = blocks.iter().map(|b| b.5).sum();
    let mut shape = SmallRng::seed_from_u64(SWEEP_SALT);
    let mut labels = SmallRng::seed_from_u64(seed ^ SWEEP_SALT);
    (0..n)
        .map(|_| {
            let mut index = shape.gen_range(0..total);
            let &(m, nc, ports, same, prio, _) = blocks
                .iter()
                .find(|b| {
                    let inside = index < b.5;
                    if !inside {
                        index -= b.5;
                    }
                    inside
                })
                .expect("index below the block total");
            let digits = [index % m, (index / m) % m, index / (m * m)];
            // Lone stream: (d, b); pair: (d1, d2, b2) with b1 = 0; triple:
            // (d1, d2, d3) from bank 0.
            let starts_and_distances: Vec<(u64, u64)> = match ports {
                1 => vec![(digits[0], digits[1])],
                2 => vec![(0, digits[2]), (digits[0], digits[1])],
                _ => vec![(0, digits[2]), (0, digits[1]), (0, digits[0])],
            };
            let u = Relabel::draw(&mut labels, m);
            let geom = geometry(m, m, nc);
            let config = if same {
                SimConfig::single_cpu(geom, ports)
            } else {
                SimConfig::one_port_per_cpu(geom, ports)
            }
            .with_priority(prio);
            ConformScenario {
                config,
                streams: starts_and_distances
                    .into_iter()
                    .map(|(b, d)| StreamSpec {
                        start_bank: u.scale(b),
                        distance: u.scale(d),
                    })
                    .collect(),
                steady_budget: bounds.steady_budget,
            }
        })
        .collect()
}

/// The scenarios of the m = 16, n_c = 4 theorem table that
/// `reproduce_all` regenerates: every upper-triangle distance pair over
/// every start bank, with the table's 5 M-cycle budget.
#[must_use]
pub fn theorem_plan() -> Vec<Case> {
    let geom = geometry(16, 16, 4);
    SweepBuilder::new(geom)
        .d2_upper_triangle()
        .all_start_banks()
        .cycle_budget(5_000_000)
        .build()
        .scenarios
        .into_iter()
        .map(|s| Case::new("stride", s.config, strides(&s.streams), s.max_cycles))
        .collect()
}

/// Stream specs as stride pattern specs.
#[must_use]
pub fn strides(streams: &[StreamSpec]) -> Vec<PatternSpec> {
    streams
        .iter()
        .map(|s| PatternSpec::Stride {
            start_bank: s.start_bank,
            distance: s.distance,
        })
        .collect()
}
