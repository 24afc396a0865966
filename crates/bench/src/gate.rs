//! The CI invariant gate: measured scenario invariants as machine-checked
//! pass/fail records instead of eyeballed tables.
//!
//! An [`InvariantGate`] collects named checks (`one copy per link`,
//! `zero post-kill loss`, `coalesced fetch bound`, …) plus raw metric
//! values while a scenario runs. Behaviour depends on the mode it
//! was created with:
//!
//! * plain run (no `--check`): a failing check panics immediately, like
//!   the `assert!`s it replaces — experiments still die loudly;
//! * `--check`: failures are recorded instead of panicking, the whole
//!   gate is written as a JSON summary to `results/ci_<scenario>.json`,
//!   and [`InvariantGate::finish`] exits the process nonzero when any
//!   check failed. CI diffs the JSON's metrics and invariant records
//!   against committed baselines (`results/ci_baseline_<scenario>.json`,
//!   `ci/diff_baseline.py`), and `tests/baselines_replay.rs` compares the
//!   whole rendered document in tier-1.

use crate::cli::BenchOpts;
use crate::report;
use moqdns_netsim::History;
use std::fmt::Display;
use std::io::Write as _;

/// The most armed timers a settled node holds: its stack's one protocol
/// timer and one of the node's own (a redial, a probe, a poll).
const MAX_ARMED_TIMERS: u64 = 2;

/// One recorded invariant check.
#[derive(Debug, Clone)]
pub struct CheckRecord {
    /// Invariant name ("one_copy_per_link", …).
    pub name: String,
    /// Expected value (or bound) as text.
    pub expected: String,
    /// Measured value as text.
    pub actual: String,
    /// Whether the invariant held.
    pub pass: bool,
}

/// Collector for a scenario's measured invariants and metrics.
#[derive(Debug)]
pub struct InvariantGate {
    scenario: String,
    smoke: bool,
    check_mode: bool,
    /// `--json PATH` override for the summary location.
    json_path: Option<String>,
    checks: Vec<CheckRecord>,
    /// Raw counters for baseline diffing (insertion-ordered).
    metrics: Vec<(String, u64)>,
}

impl InvariantGate {
    /// A gate for `scenario` under the parsed flags.
    pub fn new(scenario: impl Into<String>, opts: &BenchOpts) -> InvariantGate {
        InvariantGate {
            scenario: scenario.into(),
            smoke: opts.smoke,
            check_mode: opts.check,
            json_path: opts.json.clone(),
            checks: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn record(&mut self, name: &str, expected: String, actual: String, pass: bool) {
        if !pass && !self.check_mode {
            panic!(
                "{}: invariant `{name}` failed: expected {expected}, got {actual}",
                self.scenario
            );
        }
        if !pass {
            eprintln!(
                "[gate] {}: INVARIANT FAILED `{name}`: expected {expected}, got {actual}",
                self.scenario
            );
        }
        self.checks.push(CheckRecord {
            name: name.into(),
            expected,
            actual,
            pass,
        });
    }

    /// Checks `actual == expected`.
    pub fn check_eq<T: PartialEq + Display>(&mut self, name: &str, expected: T, actual: T) {
        let pass = actual == expected;
        self.record(name, expected.to_string(), actual.to_string(), pass);
    }

    /// Checks `actual <= bound` (e.g. the coalesced-fetch bound).
    pub fn check_le(&mut self, name: &str, bound: u64, actual: u64) {
        self.record(
            name,
            format!("<= {bound}"),
            actual.to_string(),
            actual <= bound,
        );
    }

    /// Checks `actual >= bound`.
    pub fn check_ge(&mut self, name: &str, bound: u64, actual: u64) {
        self.record(
            name,
            format!(">= {bound}"),
            actual.to_string(),
            actual >= bound,
        );
    }

    /// Checks a plain condition, with `detail` as the measured value text.
    pub fn check_true(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.record(name, "true".into(), detail.into(), pass);
    }

    /// Records a raw counter for the JSON summary / baseline diff.
    pub fn metric(&mut self, name: &str, value: u64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a world's [`History`] as the metrics
    /// `<world>_delivery_digest`, `<world>_events` and
    /// `<world>_armed_events`, and checks `<world>_quiescent`. Counts do
    /// not move when a node seed does; connection ids derive from the
    /// seeds and the digest hashes every delivered payload, so this is how
    /// a baseline sees one move. The events are how it sees work that puts
    /// nothing on the wire: a timer that leaks, a flush that loops. The
    /// queue is how it sees a world that never settled: by the time its
    /// history is taken, no datagram is in flight and no node holds more
    /// than two armed timers (its protocol timer and one of its own).
    pub fn history(&mut self, world: &str, history: History) {
        self.history_in_motion(world, history);
        let armed = history.armed;
        self.record(
            &format!("{world}_quiescent"),
            format!("0 in flight, <= {MAX_ARMED_TIMERS} timers at a node"),
            format!(
                "{} in flight, {} timers at the busiest node",
                armed.deliveries, armed.timers_at_busiest
            ),
            armed.deliveries == 0 && armed.timers_at_busiest <= MAX_ARMED_TIMERS,
        );
    }

    /// [`InvariantGate::history`]'s metrics without its quiescence check,
    /// for a world that is not settled when its history is taken: one
    /// whose attackers tick to the end, and one whose keep-alives are
    /// always crossing an interplanetary link.
    pub fn history_in_motion(&mut self, world: &str, history: History) {
        self.metric(&format!("{world}_delivery_digest"), history.digest);
        self.metric(&format!("{world}_events"), history.events);
        self.metric(&format!("{world}_armed_events"), history.armed.total());
    }

    /// True when every recorded check passed so far.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Renders the gate as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!("  \"pass\": {},\n", self.all_passed()));
        s.push_str("  \"invariants\": [\n");
        for (i, c) in self.checks.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"expected\": {}, \"actual\": {}, \"pass\": {}}}{}\n",
                json_str(&c.name),
                json_str(&c.expected),
                json_str(&c.actual),
                c.pass,
                if i + 1 < self.checks.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            s.push_str(&format!(
                "    {}: {}{}\n",
                json_str(k),
                v,
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Prints the pass/fail summary; in `--check` mode also writes
    /// `results/ci_<scenario>.json` and **exits the process** with status
    /// 1 when any invariant failed. Returns whether all passed (plain
    /// mode only reaches here when they did).
    pub fn finish(self) -> bool {
        let failed = self.checks.iter().filter(|c| !c.pass).count();
        println!(
            "[gate] {}: {}/{} invariants passed",
            self.scenario,
            self.checks.len() - failed,
            self.checks.len()
        );
        if self.check_mode {
            let path = match &self.json_path {
                Some(p) => std::path::PathBuf::from(p),
                None => report::results_dir().join(format!("ci_{}.json", self.scenario)),
            };
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(self.to_json().as_bytes()))
            {
                Ok(()) => println!("[json] {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
            if failed > 0 {
                eprintln!("[gate] {}: {failed} invariant(s) FAILED", self.scenario);
                std::process::exit(1);
            }
        }
        failed == 0
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_check() -> BenchOpts {
        BenchOpts {
            smoke: true,
            check: true,
            par: 0,
            json: None,
        }
    }

    #[test]
    fn collects_without_panicking_in_check_mode() {
        let mut g = InvariantGate::new("t", &opts_check());
        g.check_eq("eq", 1u64, 2u64);
        g.check_le("le", 5, 9);
        g.check_ge("ge", 3, 3);
        g.check_true("cond", true, "ok");
        assert!(!g.all_passed());
        assert_eq!(g.checks.iter().filter(|c| c.pass).count(), 2);
    }

    #[test]
    #[should_panic(expected = "invariant `eq` failed")]
    fn panics_in_plain_mode() {
        let mut g = InvariantGate::new("t", &BenchOpts::default());
        g.check_eq("eq", 1u64, 2u64);
    }

    #[test]
    fn json_shape() {
        let mut g = InvariantGate::new("demo", &opts_check());
        g.check_eq("one_copy_per_link", 1u64, 1u64);
        g.metric("objects_forwarded", 42);
        let j = g.to_json();
        assert!(j.contains("\"scenario\": \"demo\""));
        assert!(j.contains("\"pass\": true"));
        assert!(j.contains("\"objects_forwarded\": 42"));
        assert!(j.contains("\"smoke\": true"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
