//! # csod-bench — experiment harnesses
//!
//! One binary per table and figure of the paper's evaluation (Section V),
//! plus ablation studies and the tracked micro-benchmarks below. See
//! DESIGN.md for the per-experiment index and EXPERIMENTS.md for
//! paper-vs-measured results. Per-layer wall-clock costs of the
//! end-to-end workloads come from the `perfbench` package.
//!
//! The tracked benches (`fastpath`, `freepath`, `tracing`, `backend`,
//! `bench_fleet`, `bench_analyze`) share one scaffolding: a flat
//! [`Metrics`] set written as `BENCH_*.json`, the `--check`/`--out`
//! flags ([`BenchArgs`]), the [`REGRESSION_FACTOR`] gate against a
//! committed [`Baseline`], and min-of-N timing ([`best_of`]). The
//! runtime benches (`fastpath`, `freepath`, `backend`, `tracing`) also
//! share one allocation loop, [`alloc_free_rounds`].

#![warn(missing_docs)]
#![warn(clippy::perf)]

use csod_core::{Backend, Csod, HeapBackend};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use sim_machine::ThreadId;
use std::time::Instant;

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let width = widths.get(i).copied().unwrap_or(12);
        if i == 0 {
            out.push_str(&format!("{cell:<width$}"));
        } else {
            out.push_str(&format!("  {cell:>width$}"));
        }
    }
    out
}

/// Prints a titled rule line.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Parses `--runs N` (or the `CSOD_RUNS` env var), defaulting to
/// `default`.
pub fn runs_arg(default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--runs" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    std::env::var("CSOD_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Allowed slowdown versus the committed baseline before `--check` fails.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// A bench's flat metric set, in output order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// The value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the bench does not emit `key`.
    pub fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {key} missing"))
    }

    /// The flat `{"key": number, ...}` JSON of a `BENCH_*.json` file,
    /// two decimals per value.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let comma = if i + 1 == self.0.len() { "" } else { "," };
            out.push_str(&format!("  \"{k}\": {v:.2}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Prints the metrics under a `=== title ===` rule, keys
    /// right-aligned to `key_width`, values to `value_width`.
    pub fn print(&self, title: &str, key_width: usize, value_width: usize) {
        println!("\n=== {title} ===");
        for (k, v) in &self.0 {
            println!("{k:>key_width$}  {v:value_width$.2}");
        }
    }

    /// Interference can only inflate a wall-clock measurement, so one
    /// observation under a threshold proves the code has not regressed.
    /// While `bad` holds, re-measures (twice at most) and folds each
    /// fresh value into `self` with `keep(key, best, fresh)`.
    pub fn remeasure_while(
        &mut self,
        label: &str,
        bad: impl Fn(&Metrics) -> bool,
        mut measure: impl FnMut() -> Metrics,
        keep: impl Fn(&str, f64, f64) -> f64,
    ) {
        for _ in 0..2 {
            if !bad(self) {
                return;
            }
            eprintln!("{label}: over threshold, re-measuring (noisy host?)...");
            let again = measure();
            for (k, v) in &mut self.0 {
                *v = keep(k, *v, again.get(k));
            }
        }
    }
}

/// Parses the flat `{"key": number, ...}` shape [`Metrics::to_json`]
/// writes, returning the pairs in file order — or a description of what
/// is malformed.
///
/// # Errors
///
/// Returns a message naming the first malformed field: missing braces,
/// an unquoted or empty key, a value that is not a finite number, or no
/// fields at all.
pub fn parse_flat(json: &str) -> Result<Vec<(String, f64)>, String> {
    let body = json.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("not a JSON object (missing braces)")?;
    let mut pairs = Vec::new();
    for (lineno, entry) in body.split(',').enumerate() {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry (trailing comma?) at field {lineno}"));
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("field {lineno}: no `:` in {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("field {lineno}: key not quoted in {entry:?}"))?;
        if key.is_empty() {
            return Err(format!("field {lineno}: empty key"));
        }
        let number: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("field {key:?}: value {:?} is not a number", value.trim()))?;
        if !number.is_finite() {
            return Err(format!("field {key:?}: value {number} is not finite"));
        }
        pairs.push((key.to_string(), number));
    }
    if pairs.is_empty() {
        return Err("baseline has no metrics".into());
    }
    Ok(pairs)
}

/// The value of `key` in a flat baseline, if the file parses and has it.
pub fn extract(json: &str, key: &str) -> Option<f64> {
    parse_flat(json)
        .ok()?
        .into_iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// A committed baseline read for `--check`.
#[derive(Debug, Clone)]
pub struct Baseline {
    path: String,
    json: String,
}

impl Baseline {
    /// The value of `key`, if the baseline has it.
    pub fn try_get(&self, key: &str) -> Option<f64> {
        extract(&self.json, key)
    }

    /// The value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the baseline lacks `key`.
    pub fn get(&self, key: &str) -> f64 {
        self.try_get(key)
            .unwrap_or_else(|| panic!("baseline {} lacks {key}", self.path))
    }

    /// Whether any of `keys` in `fresh` exceeds [`REGRESSION_FACTOR`]
    /// times its baseline value.
    pub fn regressed(&self, fresh: &Metrics, keys: &[&str]) -> bool {
        keys.iter()
            .any(|key| fresh.get(key) > self.get(key) * REGRESSION_FACTOR)
    }

    /// Rules each of `keys` against the [`REGRESSION_FACTOR`] gate,
    /// printing one `check` line per key. Returns whether any regressed.
    pub fn check(&self, fresh: &Metrics, keys: &[&str]) -> bool {
        let mut failed = false;
        for key in keys {
            let base = self.get(key);
            let value = fresh.get(key);
            let verdict = if value > base * REGRESSION_FACTOR {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!("check {key}: {value:.2} vs baseline {base:.2} ({verdict})");
        }
        failed
    }
}

/// The flags every tracked bench takes: `--check [baseline]` gates the
/// fresh numbers against a committed baseline, `--out <path>` writes
/// them. The two combine, so CI gates and refreshes the artifact in one
/// run; without either flag the bench writes its default file.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    default_file: &'static str,
    check: Option<String>,
    out: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments for a bench whose baseline is
    /// `default_file`.
    pub fn from_env(default_file: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(default_file, &args)
    }

    fn parse(default_file: &'static str, args: &[String]) -> Self {
        let value_after = |flag: &str| {
            let pos = args.iter().position(|a| a == flag)?;
            Some(
                args.get(pos + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .unwrap_or_else(|| default_file.to_owned()),
            )
        };
        BenchArgs {
            default_file,
            check: value_after("--check"),
            out: value_after("--out"),
        }
    }

    /// Whether `--check` was given.
    pub fn checking(&self) -> bool {
        self.check.is_some()
    }

    /// The committed baseline `--check` names (the default file when
    /// `--check` has no path), or `None` without `--check`.
    ///
    /// # Panics
    ///
    /// Panics if the baseline cannot be read.
    pub fn baseline(&self) -> Option<Baseline> {
        let path = self.check.clone()?;
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Some(Baseline { path, json })
    }

    /// Writes `metrics` where the flags say (nothing when only checking),
    /// then exits non-zero with `failure` if a gate failed.
    pub fn finish(&self, metrics: &Metrics, failed: bool, failure: &str) {
        if self.check.is_none() || self.out.is_some() {
            let out = self.out.as_deref().unwrap_or(self.default_file);
            std::fs::write(out, metrics.to_json()).expect("baseline written");
            println!("wrote {out}");
        }
        if failed {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}

/// Runs a scenario `attempts` times and keeps the run whose timing (the
/// first tuple field) is lowest. Each scenario already keeps its fastest
/// round; repeating the whole scenario spreads the samples out, so
/// bursty interference has to last the whole bench to inflate a metric.
pub fn best_of<T>(attempts: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = f();
    for _ in 1..attempts {
        let next = f();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// Contexts [`alloc_free_rounds`] cycles through: enough to exercise
/// the sampling table, few enough that each stays hot.
pub const HOT_CONTEXTS: usize = 64;
/// Live objects per timed round of [`alloc_free_rounds`].
pub const ROUND_ALLOCS: usize = 8_192;
/// Timed rounds of [`alloc_free_rounds`] (the fastest is reported, as
/// [`best_of`] does).
pub const ROUNDS: usize = 12;

/// The [`HOT_CONTEXTS`] three-frame calling contexts, interned in
/// `frames`, with their allocation keys.
pub fn hot_contexts(frames: &FrameTable) -> Vec<(ContextKey, CallingContext)> {
    (0..HOT_CONTEXTS)
        .map(|i| {
            let ctx = CallingContext::from_locations(
                frames,
                [format!("hot_{i}.c:1").as_str(), "driver.c:7", "main.c:1"],
            );
            (
                ContextKey::new(ctx.first_level().expect("non-empty"), 0x40),
                ctx,
            )
        })
        .collect()
}

/// ns/alloc and ns/free of the full runtime over any backend/heap pair:
/// each round mallocs [`ROUND_ALLOCS`] 16-byte objects across the hot
/// contexts, then frees them all. One untimed warm-up round settles
/// first-sight interning, the initial flurry of watch installs and
/// burst throttling; the fastest of the [`ROUNDS`] timed rounds is
/// returned. `after_round` runs untimed after every round's frees (a
/// poll, a trace drain).
pub fn alloc_free_rounds<B: Backend, H: HeapBackend<B>>(
    csod: &mut Csod,
    backend: &mut B,
    heap: &mut H,
    mut after_round: impl FnMut(&mut Csod, &mut B),
) -> (f64, f64) {
    let sites = hot_contexts(csod.frames());
    let mut best_alloc = f64::INFINITY;
    let mut best_free = f64::INFINITY;
    let mut ptrs = Vec::with_capacity(ROUND_ALLOCS);
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..ROUND_ALLOCS {
            let (key, ctx) = &sites[i % HOT_CONTEXTS];
            let p = csod
                .malloc(backend, heap, ThreadId::MAIN, 16, *key, ctx)
                .expect("heap has room");
            ptrs.push(p);
        }
        let alloc_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        let start = Instant::now();
        for p in ptrs.drain(..) {
            csod.free(backend, heap, ThreadId::MAIN, p)
                .expect("was allocated");
        }
        let free_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        after_round(csod, backend);
        if round > 0 {
            best_alloc = best_alloc.min(alloc_ns);
            best_free = best_free.min(free_ns);
        }
    }
    (best_alloc, best_free)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        let list: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
        BenchArgs::parse("BENCH_x.json", &list)
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let m = Metrics(vec![("a_ns", 1.0), ("b_ratio", 2.345)]);
        assert_eq!(
            m.to_json(),
            "{\n  \"a_ns\": 1.00,\n  \"b_ratio\": 2.35\n}\n"
        );
        let parsed = parse_flat(&m.to_json()).unwrap();
        assert_eq!(
            parsed,
            vec![("a_ns".to_owned(), 1.0), ("b_ratio".to_owned(), 2.35)]
        );
        assert_eq!(extract(&m.to_json(), "b_ratio"), Some(2.35));
        assert_eq!(extract(&m.to_json(), "b"), None, "keys match whole");
    }

    #[test]
    fn parser_names_what_is_malformed() {
        assert!(parse_flat("\"a\": 1").unwrap_err().contains("braces"));
        assert!(parse_flat("{\"a\": 1,}")
            .unwrap_err()
            .contains("trailing comma"));
        assert!(parse_flat("{a: 1}").unwrap_err().contains("not quoted"));
        assert!(parse_flat("{\"a\": x}")
            .unwrap_err()
            .contains("not a number"));
        assert!(parse_flat("{\"a\": inf}")
            .unwrap_err()
            .contains("not finite"));
        assert!(parse_flat("{}").is_err());
    }

    #[test]
    fn flags_default_and_combine() {
        let plain = args(&[]);
        assert!(!plain.checking());
        assert_eq!(plain.out, None);
        let gated = args(&["--check", "--out", "fresh.json"]);
        assert_eq!(gated.check.as_deref(), Some("BENCH_x.json"));
        assert_eq!(gated.out.as_deref(), Some("fresh.json"));
        let named = args(&["--check", "base.json"]);
        assert_eq!(named.check.as_deref(), Some("base.json"));
    }

    #[test]
    fn baseline_gate_is_twice_the_committed_value() {
        let base = Baseline {
            path: "b".into(),
            json: Metrics(vec![("t_ns", 10.0)]).to_json(),
        };
        assert!(!base.check(&Metrics(vec![("t_ns", 20.0)]), &["t_ns"]));
        assert!(base.check(&Metrics(vec![("t_ns", 20.01)]), &["t_ns"]));
        assert!(base.regressed(&Metrics(vec![("t_ns", 25.0)]), &["t_ns"]));
    }

    #[test]
    fn remeasuring_keeps_the_best_and_stops_once_clean() {
        let mut best = Metrics(vec![("t_ns", 30.0)]);
        let mut runs = vec![25.0, 5.0, 1.0].into_iter();
        let mut measured = 0;
        best.remeasure_while(
            "test",
            |m| m.get("t_ns") > 20.0,
            || {
                measured += 1;
                Metrics(vec![("t_ns", runs.next().unwrap())])
            },
            |_, a, b| a.min(b),
        );
        assert_eq!(best.get("t_ns"), 5.0);
        assert_eq!(measured, 2, "at most two re-measurements");
    }

    #[test]
    fn best_of_keeps_the_fastest_attempt() {
        let mut times = vec![3.0, 1.0, 2.0].into_iter();
        let (t, tag) = best_of(3, || {
            let t = times.next().unwrap();
            (t, t as u32)
        });
        assert_eq!((t, tag), (1.0, 1));
    }

    #[test]
    fn row_is_aligned() {
        let r = row(&["a".into(), "1".into()], &[8, 4]);
        assert!(r.starts_with("a       "));
        assert!(r.ends_with("   1"));
    }
}
