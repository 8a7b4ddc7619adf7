//! Every workload at reduced size through the library: metric names match
//! `BENCHMARK.json`, results files parse, checks pass, and seeds behave as
//! documented.

use std::path::{Path, PathBuf};
use vecmem_banksim::steady::measure_steady_state_patterns;
use vecmem_benchmark::inputs::{self, Case};
use vecmem_benchmark::{run, Settings, Sizes, Workload};
use vecmem_exec::Scenario;
use vecmem_obs::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn settings(workload: Workload, seed: u64, trace: bool, test: &str) -> Settings {
    Settings {
        workload,
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::SMOKE,
        goldens: repo_root().join("results"),
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{seed}")),
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(metrics)) = member(&doc, section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    metrics
        .iter()
        .map(|m| match member(m, "name") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_reports_the_declared_metrics_and_passes_its_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let s = settings(workload, 7, trace, "smoke");
            let outcome = run(&s);
            let label = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct(), "{label}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{label}");

            let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names, expected, "{label}");
            for line in outcome.lines().lines() {
                let name = line
                    .split_whitespace()
                    .nth(1)
                    .expect("workload metric value unit n=");
                assert!(well_formed(name), "{label}: `{name}`");
                assert!(
                    names.iter().any(|n| n == name),
                    "{label}: `{name}` undeclared"
                );
            }
            if !trace {
                assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{label}");
            }

            let result = parse_json(&outcome.json_line()).expect("result line parses");
            assert_eq!(
                member(&result, "correct"),
                Some(&Json::Bool(true)),
                "{label}"
            );
            let mode = if trace { "layers" } else { "e2e" };
            let file = s.out_dir.join(format!("{}-{mode}.json", workload.name()));
            let text = std::fs::read_to_string(&file).expect("results file written");
            let doc = parse_json(&text).expect("results file parses");
            assert_eq!(member(&doc, "workload"), Some(&Json::str(workload.name())));
            if trace {
                let trace_file = s.out_dir.join(format!("{}-trace.json", workload.name()));
                let text = std::fs::read_to_string(trace_file).expect("trace written");
                let doc = parse_json(&text).expect("trace parses");
                assert!(
                    matches!(member(&doc, "traceEvents"), Some(Json::Array(events)) if !events.is_empty()),
                    "{label}: empty trace"
                );
            }
        }
    }
}

#[test]
fn seeds_pick_the_inputs_and_fix_the_answers() {
    let sizes = Sizes::SMOKE;
    let seeded: [fn(u64, &Sizes) -> Vec<Case>; 3] = [
        inputs::stride_large,
        inputs::gather_affine,
        inputs::pattern_mix,
    ];
    for generate in seeded {
        let a = format!("{:?}", generate(3, &sizes));
        assert_eq!(a, format!("{:?}", generate(3, &sizes)));
        assert_ne!(a, format!("{:?}", generate(4, &sizes)));
    }
    for workload in [
        Workload::StrideLarge,
        Workload::GatherAffine,
        Workload::PatternMix,
    ] {
        let first = run(&settings(workload, 3, false, "seed-a")).digest;
        let again = run(&settings(workload, 3, false, "seed-b")).digest;
        assert!(first.is_some(), "{}", workload.name());
        assert_eq!(first, again, "{}", workload.name());
    }
    // The sweep and the reproduction do not depend on the seed at all.
    for workload in [Workload::VerifyExhaustive, Workload::Reproduce] {
        let a = run(&settings(workload, 3, false, "seed-c")).digest;
        let b = run(&settings(workload, 4, false, "seed-d")).digest;
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn relabelling_preserves_every_steady_state() {
    // Two seeds give different bank labels over the same skeleton; apart
    // from the pseudo-random gathers, whose parameters the seed draws
    // outright, the whole steady state must come out the same.
    let sizes = Sizes::SMOKE;
    let seeded: [fn(u64, &Sizes) -> Vec<Case>; 3] = [
        inputs::stride_large,
        inputs::gather_affine,
        inputs::pattern_mix,
    ];
    for generate in seeded {
        for (a, b) in generate(3, &sizes).iter().zip(generate(4, &sizes)) {
            if a.class == "gather_random" {
                continue;
            }
            let solve = |c: &Case| {
                let s = &c.scenario;
                measure_steady_state_patterns(&s.config, &s.patterns, s.max_cycles)
            };
            assert_eq!(solve(a), solve(&b), "{:?} vs {:?}", a.scenario, b.scenario);
        }
    }
    let bounds = sizes.sweep;
    for (a, b) in inputs::sweep_sample(3, &bounds, 40)
        .iter()
        .zip(inputs::sweep_sample(4, &bounds, 40))
    {
        let (x, y) = (a.execute(), b.execute());
        assert_eq!((x.beff, x.conflict_free), (y.beff, y.conflict_free));
    }
}

/// Parses one JSON document into the renderer's value type: integers
/// without sign, fraction or exponent become `Json::U64`, every other
/// number `Json::F64`.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing text at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected input at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 at byte {start}: {e}"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escaped {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

/// Member lookup on a parsed object.
#[must_use]
fn member<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}
