//! Result plumbing: named metrics with units, failure accounting, the
//! run facts every result carries, and the one-line JSON the benchmark
//! ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics in the order a workload reports them: `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            self.put(n, v, u);
        }
    }
}

/// Operations attempted and failed, with a count per failure reason.
/// Failures never abort a run; they are counted and reported.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: BTreeMap<&'static str, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: &'static str) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// A failure found by an audit of operations already counted as
    /// attempted (a lost write, a leak).
    pub fn fail_audit(&mut self, reason: &'static str, n: u64) {
        if n > 0 {
            self.failed += n;
            *self.reasons.entry(reason).or_default() += n;
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (r, n) in &other.reasons {
            *self.reasons.entry(r).or_default() += n;
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<crate::trace::Span>,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "unknown".into())
}

/// The checkout's commit when it is a git work tree, else "unknown".
fn git_rev() -> String {
    let head = read_trim(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(r) => read_trim(&format!(".git/{r}")),
        None => head,
    }
}

/// Host and run facts, as `(key, value)` strings in report order.
pub fn run_facts(
    workload: &str,
    seed: u64,
    seconds: u64,
    extra: &[(&str, String)],
) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let mut facts = vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("kernel".into(), read_trim("/proc/sys/kernel/osrelease")),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("cpu".into(), cpu),
        ("git_rev".into(), git_rev()),
    ];
    facts.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    facts
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn facts_json(facts: &[(String, String)]) -> String {
    let body: Vec<String> =
        facts.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{\"facts\": {{{}}}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return f64::NAN;
    }
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}
