//! Baseline store + regression gate: a flat JSON metric map and a
//! direction-aware comparator.
//!
//! The audit binary persists its gated metrics as a *flat* JSON object —
//! string keys to finite numbers, nothing nested — which keeps the parser
//! here trivial (the build environment has no serde) and the committed
//! baseline diff-friendly. [`compare`] knows which movement is bad for each
//! key: `*overlap*`/`*speedup*`/`*utilization*` regress downward, `*_s`
//! durations and `*_frac`/`*fraction*` residuals regress upward — both beyond
//! a tolerance — and everything else is a deterministic count that regresses
//! on *any* difference.

/// Which movement of a metric is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (durations, residuals, stalls): a regression is an
    /// *increase* beyond tolerance.
    LowerIsBetter,
    /// Larger is better (overlap fractions, speedups, utilizations): a
    /// regression is a *decrease* beyond tolerance.
    HigherIsBetter,
    /// A deterministic count (holds, flushes, migrations, retries, events):
    /// neither direction is better, so a regression is *any* difference at
    /// the baseline's printed precision, whatever the tolerance.
    Exact,
}

/// Classify a metric key by the naming convention of its last dot-separated
/// segment — the metric, not the scenario that owns it (`speedup4.makespan_s`
/// is a duration).
pub fn direction_for(key: &str) -> Direction {
    let metric = key.rsplit('.').next().unwrap_or(key);
    if metric.contains("overlap") || metric.contains("speedup") || metric.contains("utilization") {
        Direction::HigherIsBetter
    } else if metric.ends_with("_s") || metric.ends_with("_frac") || metric.contains("fraction") {
        Direction::LowerIsBetter
    } else {
        Direction::Exact
    }
}

/// One metric that moved beyond tolerance in its bad direction, differs from
/// an exact baseline — or vanished.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The metric key.
    pub key: String,
    /// Its committed baseline value.
    pub baseline: f64,
    /// Its current value (`None` when the metric disappeared from the run).
    pub current: Option<f64>,
    /// Relative movement in the bad direction (`(cur−base)/|base|` for
    /// lower-is-better keys, negated for higher-is-better, its magnitude for
    /// exact keys; 0 for vanished).
    pub delta_frac: f64,
}

impl Regression {
    /// Human-readable one-liner for gate output.
    pub fn describe(&self) -> String {
        match self.current {
            Some(cur) if direction_for(&self.key) == Direction::Exact => format!(
                "{}: {:.9e} -> {:.9e} (a deterministic count must match exactly)",
                self.key, self.baseline, cur
            ),
            Some(cur) => format!(
                "{}: {:.6e} -> {:.6e} ({:+.1}% in the bad direction)",
                self.key,
                self.baseline,
                cur,
                self.delta_frac * 100.0
            ),
            None => format!("{}: {:.6e} -> MISSING from current run", self.key, self.baseline),
        }
    }
}

/// Compare a run against a baseline: every baseline key whose current value
/// moved more than `tolerance` (relative) in its bad direction, differs at all
/// for a [`Direction::Exact`] key, or is missing, is a [`Regression`]. Keys
/// new in `current` are not regressions (they become gated once the baseline
/// is refreshed).
pub fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    tolerance: f64,
) -> Vec<Regression> {
    let lookup = |key: &str| current.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    let mut regressions = Vec::new();
    for (key, base) in baseline {
        let Some(cur) = lookup(key) else {
            regressions.push(Regression {
                key: key.clone(),
                baseline: *base,
                current: None,
                delta_frac: 0.0,
            });
            continue;
        };
        let scale = base.abs().max(1e-12);
        let raw = (cur - base) / scale;
        let (bad, regressed) = match direction_for(key) {
            Direction::LowerIsBetter => (raw, raw > tolerance),
            Direction::HigherIsBetter => (-raw, -raw > tolerance),
            Direction::Exact => (raw.abs(), printed(cur) != printed(*base)),
        };
        if regressed {
            regressions.push(Regression {
                key: key.clone(),
                baseline: *base,
                current: Some(cur),
                delta_frac: bad,
            });
        }
    }
    regressions
}

/// A value as the baseline file prints it — the precision at which exact
/// keys are compared.
fn printed(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9e}")
    } else {
        "0".to_string()
    }
}

/// Render metric pairs as the flat JSON object [`parse_flat_json`] reads,
/// one key per line, preserving input order.
pub fn format_flat_json(pairs: &[(String, f64)]) -> String {
    use sigmavp_telemetry::export::escape_json;
    let rows: Vec<String> =
        pairs.iter().map(|(k, v)| format!("  \"{}\": {}", escape_json(k), printed(*v))).collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Why a baseline file failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The text is not a flat JSON object of string keys to numbers.
    Syntax(String),
    /// The same key appears more than once — a silently-shadowed gate metric
    /// is a corrupt baseline, not a preference question.
    DuplicateKey(String),
    /// A value parsed to ±∞ or NaN. The gate's direction-aware comparison is
    /// meaningless against a non-finite baseline, so it is rejected at load.
    NonFinite {
        /// The offending key.
        key: String,
        /// Its raw value text as it appeared in the file.
        value: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax(msg) => write!(f, "{msg}"),
            ParseError::DuplicateKey(key) => write!(f, "duplicate key {key:?}"),
            ParseError::NonFinite { key, value } => {
                write!(f, "non-finite value {value:?} for key {key:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a flat JSON object of string keys to numbers. Rejects nesting,
/// arrays, non-numeric and non-finite values, and duplicate keys with a
/// typed [`ParseError`] — the baseline format is deliberately this small.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, ParseError> {
    let mut chars = text.chars().peekable();
    let mut pairs: Vec<(String, f64)> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    }
    let syntax = ParseError::Syntax;

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err(syntax("expected '{' at start of baseline".into()));
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(syntax(format!("expected key or '}}', found {other:?}"))),
        }
        // Key string (escapes beyond \" are not needed for metric names).
        chars.next();
        let mut key = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some(c) => key.push(c),
                    None => return Err(syntax("unterminated escape in key".into())),
                },
                Some('"') => break,
                Some(c) => key.push(c),
                None => return Err(syntax("unterminated key string".into())),
            }
        }
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(syntax(format!("expected ':' after key {key:?}")));
        }
        skip_ws(&mut chars);
        let mut num = String::new();
        while matches!(chars.peek(), Some(c) if "+-0123456789.eE".contains(*c)) {
            num.push(chars.next().expect("peeked"));
        }
        let value: f64 = num
            .parse()
            .map_err(|_| syntax(format!("non-numeric value {num:?} for key {key:?}")))?;
        if !value.is_finite() {
            return Err(ParseError::NonFinite { key, value: num });
        }
        if !seen.insert(key.clone()) {
            return Err(ParseError::DuplicateKey(key));
        }
        pairs.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(syntax(format!("expected ',' or '}}', found {other:?}"))),
        }
    }
    Ok(pairs)
}

/// Write `gate` to `baseline` as flat JSON (`--write-baseline`), creating
/// parent directories.
///
/// # Errors
///
/// An I/O failure, as a message for the caller to print before exiting
/// non-zero.
pub fn write_baseline(baseline: &str, gate: &[(String, f64)]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(baseline).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(baseline, format_flat_json(gate))
        .map_err(|e| format!("cannot write baseline {baseline}: {e}"))?;
    println!("wrote baseline {baseline}");
    Ok(())
}

/// Gate `gate` against the committed `baseline` (`--check`): load it with
/// [`parse_flat_json`], [`compare`], and print either the
/// `check: N metrics within X%` line or one `REGRESSION …` line per failure.
/// Returns whether the check found regressions (the caller's gate should
/// fail).
///
/// # Errors
///
/// An unreadable or malformed baseline, as a message for the caller to print
/// before exiting non-zero.
pub fn check_baseline(
    baseline: &str,
    tolerance: f64,
    gate: &[(String, f64)],
) -> Result<bool, String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read baseline {baseline}: {e}"))?;
    let base = parse_flat_json(&text).map_err(|e| format!("malformed baseline {baseline}: {e}"))?;
    let regressions = compare(&base, gate, tolerance);
    for r in &regressions {
        eprintln!("REGRESSION {}", r.describe());
    }
    if regressions.is_empty() {
        println!(
            "check: {} metrics within {:.0}% of {baseline} (counts exact)",
            base.len(),
            tolerance * 100.0
        );
    }
    Ok(!regressions.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(v: &[(&str, f64)]) -> Vec<(String, f64)> {
        v.iter().map(|(k, x)| (k.to_string(), *x)).collect()
    }

    #[test]
    fn roundtrip_format_and_parse() {
        let input = pairs(&[
            ("async4.makespan_s", 6.0123e-4),
            ("async4.overlap_fraction", 0.75),
            ("eq7.residual_frac", 0.0),
        ]);
        let text = format_flat_json(&input);
        let parsed = parse_flat_json(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        for ((k1, v1), (k2, v2)) in input.iter().zip(&parsed) {
            assert_eq!(k1, k2);
            assert!((v1 - v2).abs() <= v1.abs() * 1e-9 + 1e-30, "{k1}: {v1} vs {v2}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(matches!(parse_flat_json(""), Err(ParseError::Syntax(_))));
        assert!(matches!(parse_flat_json("[1, 2]"), Err(ParseError::Syntax(_))));
        assert!(matches!(parse_flat_json("{\"a\": }"), Err(ParseError::Syntax(_))));
        assert!(matches!(parse_flat_json("{\"a\": \"str\"}"), Err(ParseError::Syntax(_))));
        assert!(matches!(parse_flat_json("{\"a\": 1"), Err(ParseError::Syntax(_))));
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_duplicate_keys_with_typed_error() {
        let text = "{\"a.makespan_s\": 1.0, \"b\": 2.0, \"a.makespan_s\": 3.0}";
        let err = parse_flat_json(text).unwrap_err();
        assert_eq!(err, ParseError::DuplicateKey("a.makespan_s".into()));
        assert!(err.to_string().contains("duplicate key"));
        assert!(err.to_string().contains("a.makespan_s"));
        // A single occurrence of each key stays accepted.
        assert_eq!(parse_flat_json("{\"a\": 1.0, \"b\": 2.0}").unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_non_finite_values_with_typed_error() {
        // 1e999 overflows f64 to +inf; Rust's parser accepts it, the gate
        // must not.
        let err = parse_flat_json("{\"k.makespan_s\": 1e999}").unwrap_err();
        assert_eq!(
            err,
            ParseError::NonFinite { key: "k.makespan_s".into(), value: "1e999".into() }
        );
        assert!(err.to_string().contains("non-finite"));
        assert!(matches!(parse_flat_json("{\"k\": -1e999}"), Err(ParseError::NonFinite { .. })));
        // std::error::Error is implemented, so ? and dyn Error work.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("k.makespan_s"));
    }

    #[test]
    fn run_gate_writes_then_checks_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("sigmavp-gate-{}", std::process::id()));
        let path = dir.join("nested/base.json");
        let path_str = path.to_str().unwrap().to_string();
        let gate = pairs(&[("g.makespan_s", 1.0), ("g.speedup", 2.0)]);

        // Write pass: creates parent dirs and the file.
        assert_eq!(write_baseline(&path_str, &gate), Ok(()));
        assert!(path.exists());

        // Clean check against what was just written.
        assert_eq!(check_baseline(&path_str, 0.10, &gate), Ok(false));

        // A bad-direction move beyond tolerance fails the gate (Ok(true)).
        let slow = pairs(&[("g.makespan_s", 1.5), ("g.speedup", 2.0)]);
        assert_eq!(check_baseline(&path_str, 0.10, &slow), Ok(true));

        // Missing baseline is a fatal error naming the file.
        let missing = format!("{path_str}.does-not-exist");
        let err = check_baseline(&missing, 0.10, &gate).unwrap_err();
        assert!(err.starts_with("cannot read baseline") && err.contains(&missing), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directions_follow_naming_conventions() {
        assert_eq!(direction_for("async4.makespan_s"), Direction::LowerIsBetter);
        assert_eq!(direction_for("eq7.residual_frac"), Direction::LowerIsBetter);
        assert_eq!(direction_for("async4.critical_path_stall_s"), Direction::LowerIsBetter);
        assert_eq!(direction_for("async4.overlap_fraction"), Direction::HigherIsBetter);
        assert_eq!(direction_for("eq8.measured_speedup"), Direction::HigherIsBetter);
        assert_eq!(direction_for("compute.utilization"), Direction::HigherIsBetter);
        // The scenario's name does not leak into its metrics' direction.
        assert_eq!(direction_for("speedup4.async_makespan_s"), Direction::LowerIsBetter);
        assert_eq!(direction_for("speedup4.eq8_residual_frac"), Direction::LowerIsBetter);
        assert_eq!(direction_for("speedup4.measured_speedup"), Direction::HigherIsBetter);
        // Everything else is a count: neither direction is "better".
        for key in ["trace.dropped_events", "chaos.migrations", "sync.holds", "obs.snapshots"] {
            assert_eq!(direction_for(key), Direction::Exact, "{key}");
        }
    }

    #[test]
    fn exact_keys_regress_on_any_difference_whatever_the_tolerance() {
        let base = pairs(&[("chaos.migrations", 2.0), ("hang.makespan_s", 1.0)]);
        assert!(compare(&base, &base, 0.5).is_empty(), "equal passes");
        for moved in [1.0, 3.0] {
            // ±1 on a count is a regression even under a 50 % tolerance; the
            // duration next to it stays directional (−20 % is an improvement).
            let cur = pairs(&[("chaos.migrations", moved), ("hang.makespan_s", 0.8)]);
            let regs = compare(&base, &cur, 0.5);
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert_eq!(regs[0].key, "chaos.migrations");
            assert!((regs[0].delta_frac - 0.5).abs() < 1e-12);
            assert!(regs[0].describe().contains("must match exactly"), "{}", regs[0].describe());
        }
        // Exact means "at the baseline's printed precision": a difference the
        // file cannot represent is not a regression.
        let cur = pairs(&[("chaos.migrations", 2.0 + 1e-12), ("hang.makespan_s", 1.0)]);
        assert!(compare(&base, &cur, 0.0).is_empty());
    }

    #[test]
    fn compare_flags_bad_direction_moves_only() {
        let base =
            pairs(&[("a.makespan_s", 1.0), ("a.overlap_fraction", 0.8), ("gone.makespan_s", 1.0)]);
        // makespan +30% (bad), overlap +10% (good direction), one key missing.
        let cur = pairs(&[("a.makespan_s", 1.3), ("a.overlap_fraction", 0.88), ("new.x", 5.0)]);
        let regs = compare(&base, &cur, 0.10);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].key, "a.makespan_s");
        assert!((regs[0].delta_frac - 0.3).abs() < 1e-9);
        assert!(regs[0].describe().contains("bad direction"));
        assert_eq!(regs[1].key, "gone.makespan_s");
        assert_eq!(regs[1].current, None);
        assert!(regs[1].describe().contains("MISSING"));
    }

    #[test]
    fn compare_respects_tolerance_and_improvements() {
        let base = pairs(&[("m.makespan_s", 1.0), ("m.overlap_fraction", 0.5)]);
        // 5% slower and 5% less overlap: both inside a 10% gate.
        let cur = pairs(&[("m.makespan_s", 1.05), ("m.overlap_fraction", 0.475)]);
        assert!(compare(&base, &cur, 0.10).is_empty());
        // Improvements are never regressions, however large.
        let better = pairs(&[("m.makespan_s", 0.2), ("m.overlap_fraction", 0.99)]);
        assert!(compare(&base, &better, 0.10).is_empty());
        // A 20% slowdown trips the 10% gate (the synthetic-slowdown case).
        let slow = pairs(&[("m.makespan_s", 1.2), ("m.overlap_fraction", 0.5)]);
        let regs = compare(&base, &slow, 0.10);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].delta_frac - 0.2).abs() < 1e-9);
    }
}
