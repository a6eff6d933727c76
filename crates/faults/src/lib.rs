//! Deterministic fault injection for the NeuroSelect stack.
//!
//! Production resilience claims ("a crashed session is quarantined, not
//! the daemon", "a truncated proof write is a diagnostic, not an abort")
//! are only testable if the failures can be provoked on demand and
//! reproducibly.
//! This crate provides that provocation layer: *named fault points*
//! compiled into the solver/pipeline crates behind their `faults`
//! feature, armed at runtime by a [`FaultPlan`].
//!
//! A plan is a semicolon-separated list of fault specs:
//!
//! ```text
//! session-panic(session=2,at=50);drat-truncate(after=64)
//! ```
//!
//! Each spec names a fault site (one of [`site::ALL`]; any other name is
//! a parse error) and carries `key=value` parameters. Parameters whose
//! key also appears in the *context* supplied by the instrumented code
//! act as match conditions (`session=2` fires only in
//! session 2; the special key `at` fires once a context counter reaches
//! the threshold). Remaining parameters are configuration the site reads
//! after the fault fires (`after=64`: fail after 64 bytes). Every spec
//! fires a bounded number of times (`times=N`, default 1), so a plan is
//! a finite, deterministic schedule: the same plan against the same
//! seeded run injects the same faults at the same points.
//!
//! Plans are installed process-globally — fault points are reached deep
//! inside solver threads where no handle can be threaded through — via
//! [`install`], which returns an RAII [`FaultScope`] that also
//! serializes concurrent installers (so a multi-threaded chaos test
//! harness runs scenarios one at a time), or via [`install_from_env`]
//! for CLI binaries (`FAULT_PLAN` environment variable).
//!
//! # Examples
//!
//! ```
//! let plan: faults::FaultPlan = "session-panic(session=1,at=3)".parse().unwrap();
//! let scope = faults::install(plan);
//! // Session 0 never matches.
//! assert!(faults::fire("session-panic", &[("session", 0), ("at", 9)]).is_none());
//! // Session 1 fires once its counter reaches the threshold, exactly once.
//! assert!(faults::fire("session-panic", &[("session", 1), ("at", 2)]).is_none());
//! assert!(faults::fire("session-panic", &[("session", 1), ("at", 3)]).is_some());
//! assert!(faults::fire("session-panic", &[("session", 1), ("at", 4)]).is_none());
//! assert_eq!(scope.fired("session-panic"), 1);
//! // A misspelt site would arm nothing, so it does not parse.
//! assert!("sesion-panic(at=3)".parse::<faults::FaultPlan>().is_err());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Environment variable read by [`install_from_env`].
pub const ENV_VAR: &str = "FAULT_PLAN";

/// Canonical fault-site names used across the workspace. Sites live in
/// the crate that owns the failure, but the names are declared here so
/// plans, docs, and tests agree on spelling.
pub mod site {
    /// Truncate the DRAT proof stream after `after` bytes.
    pub const DRAT_TRUNCATE: &str = "drat-truncate";
    /// Fail the DIMACS input stream after `after` bytes.
    pub const DIMACS_IO: &str = "dimacs-io";
    /// Fail the model-parameter input stream after `after` bytes.
    pub const MODEL_IO: &str = "model-io";
    /// Panic inside model inference.
    pub const INFERENCE_PANIC: &str = "inference-panic";
    /// Corrupt an inprocessing round once the solver's round counter
    /// reaches `at`: the engine detects the corruption up front and must
    /// degrade to a clean skip (param: `at` — the round counter).
    pub const INPROCESS_CORRUPT: &str = "inprocess-corrupt";
    /// Stall an inprocessing round once the solver's round counter reaches
    /// `at`: the round's step budget collapses, forcing a mid-round abort
    /// that must leave the solver consistent (param: `at`).
    pub const INPROCESS_STALL: &str = "inprocess-stall";
    /// Panic inside a daemon session's solve once the daemon's solve
    /// counter reaches `at`; `session` narrows it to one session. The
    /// session must be quarantined (`crashed`), never the daemon
    /// (params: `session`, `at`).
    pub const SESSION_PANIC: &str = "session-panic";
    /// Stall a daemon worker for `delay_ms` milliseconds before it picks
    /// up its `at`-th job, backing the queue up so admission control and
    /// request deadlines fire (params: `at`, `delay_ms`).
    pub const SCHEDULER_STALL: &str = "scheduler-stall";
    /// Truncate a daemon connection's response stream after `after`
    /// bytes (via [`TruncatingWriter`](crate::TruncatingWriter)): the
    /// connection must die cleanly while the daemon and its sessions keep
    /// serving (param: `after`).
    pub const SOCKET_TRUNCATE: &str = "socket-truncate";

    /// Every site above: the only names a [`FaultPlan`](crate::FaultPlan)
    /// accepts.
    pub const ALL: [&str; 9] = [
        DRAT_TRUNCATE,
        DIMACS_IO,
        MODEL_IO,
        INFERENCE_PANIC,
        INPROCESS_CORRUPT,
        INPROCESS_STALL,
        SESSION_PANIC,
        SCHEDULER_STALL,
        SOCKET_TRUNCATE,
    ];
}

/// One armed fault: a site name, match/config parameters, and a shot
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fault-site name this spec arms (see [`site`]).
    pub site: String,
    /// `key=value` parameters in plan order.
    pub params: Vec<(String, String)>,
    /// Maximum number of times this spec fires (default 1).
    pub times: u64,
}

impl FaultSpec {
    /// Looks up a parameter value by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A deterministic schedule of faults, parsed from a plan string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The armed fault specs in plan order.
    pub specs: Vec<FaultSpec>,
}

/// Error produced when a plan string does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    message: String,
}

impl fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl Error for ParsePlanError {}

fn parse_error(message: impl Into<String>) -> ParsePlanError {
    ParsePlanError {
        message: message.into(),
    }
}

impl FromStr for FaultPlan {
    type Err = ParsePlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut specs = Vec::new();
        for raw in s.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            specs.push(parse_spec(raw)?);
        }
        Ok(FaultPlan { specs })
    }
}

fn parse_spec(raw: &str) -> Result<FaultSpec, ParsePlanError> {
    let (name, args) = match raw.find('(') {
        Some(open) => {
            let close = raw
                .rfind(')')
                .ok_or_else(|| parse_error(format!("unterminated '(' in `{raw}`")))?;
            if close + 1 != raw.len() {
                return Err(parse_error(format!("trailing text after ')' in `{raw}`")));
            }
            (&raw[..open], &raw[open + 1..close])
        }
        None => (raw, ""),
    };
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(parse_error(format!("bad fault-site name in `{raw}`")));
    }
    if !site::ALL.contains(&name) {
        return Err(parse_error(format!(
            "unknown fault site `{name}` in `{raw}`"
        )));
    }
    let mut params = Vec::new();
    let mut times = 1u64;
    for pair in args.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| parse_error(format!("expected key=value, got `{pair}`")))?;
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            return Err(parse_error(format!("empty key or value in `{pair}`")));
        }
        if key == "times" {
            times = value
                .parse()
                .map_err(|_| parse_error(format!("times must be an integer, got `{value}`")))?;
        } else {
            params.push((key.to_string(), value.to_string()));
        }
    }
    Ok(FaultSpec {
        site: name.to_string(),
        params,
        times,
    })
}

/// Configuration handed to a fault site when its spec fires.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    params: Vec<(String, String)>,
}

impl FaultConfig {
    /// Looks up a configuration parameter by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a numeric configuration parameter, with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

struct ArmedSpec {
    spec: FaultSpec,
    remaining: AtomicU64,
    fired: AtomicU64,
}

struct ArmedPlan {
    specs: Vec<ArmedSpec>,
}

impl ArmedPlan {
    fn arm(plan: FaultPlan) -> Self {
        ArmedPlan {
            specs: plan
                .specs
                .into_iter()
                .map(|spec| ArmedSpec {
                    remaining: AtomicU64::new(spec.times),
                    fired: AtomicU64::new(0),
                    spec,
                })
                .collect(),
        }
    }

    fn fire(&self, site: &str, ctx: &[(&str, u64)]) -> Option<FaultConfig> {
        for armed in &self.specs {
            if armed.spec.site != site || !matches(&armed.spec, ctx) {
                continue;
            }
            // Claim a shot; fetch_update never underflows past zero.
            let claimed = armed
                .remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            if claimed {
                armed.fired.fetch_add(1, Ordering::AcqRel);
                return Some(FaultConfig {
                    params: armed.spec.params.clone(),
                });
            }
        }
        None
    }

    fn fired(&self, site: &str) -> u64 {
        self.specs
            .iter()
            .filter(|a| a.spec.site == site)
            .map(|a| a.fired.load(Ordering::Acquire))
            .sum()
    }
}

/// A spec matches when every parameter whose key the site also reports
/// as context holds: `at` is a reached-threshold condition, everything
/// else is equality. Parameters with no context counterpart are
/// configuration and never block a match.
fn matches(spec: &FaultSpec, ctx: &[(&str, u64)]) -> bool {
    for (key, value) in &spec.params {
        let Some((_, observed)) = ctx.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let Ok(wanted) = value.parse::<u64>() else {
            return false;
        };
        let ok = if key == "at" {
            *observed >= wanted
        } else {
            *observed == wanted
        };
        if !ok {
            return false;
        }
    }
    true
}

fn active_plan() -> &'static Mutex<Option<Arc<ArmedPlan>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<ArmedPlan>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A chaos scenario that fails its assertion poisons these locks; the
    // plan state itself is a plain swap, so recovery is always safe.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII guard for an installed [`FaultPlan`].
///
/// While alive, the plan is the process-global fault schedule; dropping
/// the scope restores whatever was installed before. The scope also
/// holds a global serialization lock so concurrently-running tests
/// install plans one at a time instead of clobbering each other.
pub struct FaultScope {
    plan: Arc<ArmedPlan>,
    previous: Option<Arc<ArmedPlan>>,
    _serial: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// How many times specs for `site` have fired under this scope.
    pub fn fired(&self, site: &str) -> u64 {
        self.plan.fired(site)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *lock_recovering(active_plan()) = self.previous.take();
    }
}

/// Installs `plan` as the process-global fault schedule and returns the
/// scope guard that keeps it armed.
pub fn install(plan: FaultPlan) -> FaultScope {
    let serial = match install_lock().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let armed = Arc::new(ArmedPlan::arm(plan));
    let previous = lock_recovering(active_plan()).replace(Arc::clone(&armed));
    FaultScope {
        plan: armed,
        previous,
        _serial: serial,
    }
}

/// Installs the plan named by the `FAULT_PLAN` environment variable for
/// the rest of the process (no scope: CLI binaries arm once at startup).
///
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset or empty.
pub fn install_from_env() -> Result<bool, ParsePlanError> {
    let Ok(raw) = std::env::var(ENV_VAR) else {
        return Ok(false);
    };
    if raw.trim().is_empty() {
        return Ok(false);
    }
    install_global(raw.parse()?);
    Ok(true)
}

/// Installs `plan` for the rest of the process, bypassing scoping.
pub fn install_global(plan: FaultPlan) {
    *lock_recovering(active_plan()) = Some(Arc::new(ArmedPlan::arm(plan)));
}

/// Checks the active plan for a spec of `site` matching `ctx`; if one
/// matches with shots remaining, consumes a shot and returns its
/// configuration. Returns `None` when no plan is installed — the common
/// case, a single uncontended mutex probe.
pub fn fire(site: &str, ctx: &[(&str, u64)]) -> Option<FaultConfig> {
    let plan = lock_recovering(active_plan()).clone()?;
    plan.fire(site, ctx)
}

/// An [`io::Read`] adapter that yields an injected I/O error after a
/// byte budget is spent — a mid-stream disk/network failure in a box.
#[derive(Debug)]
pub struct FailingReader<R> {
    inner: R,
    remaining: u64,
}

impl<R> FailingReader<R> {
    /// Wraps `inner`, allowing `budget` bytes through before failing.
    pub fn new(inner: R, budget: u64) -> Self {
        FailingReader {
            inner,
            remaining: budget,
        }
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected I/O fault: read failed"));
        }
        let cap = buf.len().min(self.remaining as usize);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// An [`io::Write`] adapter that accepts a byte budget and then fails
/// every subsequent write — a full disk or severed pipe in a box.
#[derive(Debug)]
pub struct TruncatingWriter<W> {
    inner: W,
    remaining: u64,
}

impl<W> TruncatingWriter<W> {
    /// Wraps `inner`, allowing `budget` bytes through before failing.
    pub fn new(inner: W, budget: u64) -> Self {
        TruncatingWriter {
            inner,
            remaining: budget,
        }
    }
}

impl<W: Write> Write for TruncatingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected I/O fault: write failed"));
        }
        let cap = buf.len().min(self.remaining as usize);
        let n = self.inner.write(&buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_round_trips_sites_params_and_times() {
        let plan: FaultPlan = "session-panic(session=1,at=50,times=3); drat-truncate(after=64)"
            .parse()
            .expect("plan parses");
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, "session-panic");
        assert_eq!(plan.specs[0].param("session"), Some("1"));
        assert_eq!(plan.specs[0].times, 3);
        assert_eq!(plan.specs[1].site, "drat-truncate");
        assert_eq!(plan.specs[1].param("after"), Some("64"));
        assert_eq!(plan.specs[1].times, 1);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        // Known site names, so each spec fails on its malformation alone.
        for bad in [
            "dimacs-io(",
            "dimacs-io(a)",
            "dimacs-io(=1)",
            "dimacs-io(a=)",
            "(a=1)",
            "dimacs-io(times=many)",
            "dimacs-io(a=1)b",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn parse_rejects_unknown_sites() {
        for unknown in [
            "no-such-site(at=5)",
            "stall",
            "drat_truncate(after=1)",
            "inference-stall(delay_ms=80)",
            "heuristic-panic",
        ] {
            let err = unknown.parse::<FaultPlan>().expect_err(unknown);
            assert!(err.to_string().contains("unknown fault site"), "{err}");
        }
        // One unknown spec fails the whole plan, not just its own spec.
        assert!("dimacs-io(after=1);no-such-site"
            .parse::<FaultPlan>()
            .is_err());
    }

    #[test]
    fn every_known_site_parses() {
        for name in site::ALL {
            let plan: FaultPlan = format!("{name}(at=1)").parse().expect(name);
            assert_eq!(plan.specs[0].site, name);
        }
        let mut names = site::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), site::ALL.len(), "site names are unique");
    }

    #[test]
    fn fire_honors_match_conditions_and_shot_budget() {
        let scope = install("session-panic(session=2,at=10,times=2)".parse().unwrap());
        assert!(fire("session-panic", &[("session", 1), ("at", 99)]).is_none());
        assert!(fire("session-panic", &[("session", 2), ("at", 9)]).is_none());
        assert!(fire("session-panic", &[("session", 2), ("at", 10)]).is_some());
        assert!(fire("session-panic", &[("session", 2), ("at", 11)]).is_some());
        assert!(fire("session-panic", &[("session", 2), ("at", 12)]).is_none());
        assert_eq!(scope.fired("session-panic"), 2);
        assert_eq!(scope.fired("scheduler-stall"), 0);
    }

    #[test]
    fn config_params_do_not_block_matching() {
        let _scope = install("drat-truncate(after=64)".parse().unwrap());
        let cfg = fire("drat-truncate", &[]).expect("fires without context");
        assert_eq!(cfg.get_u64("after", 0), 64);
        assert_eq!(cfg.get_u64("missing", 7), 7);
    }

    #[test]
    fn dropping_scope_disarms_and_restores() {
        {
            let outer = install("dimacs-io(after=1)".parse().unwrap());
            assert!(fire("dimacs-io", &[]).is_some());
            assert_eq!(outer.fired("dimacs-io"), 1);
        }
        assert!(fire("dimacs-io", &[]).is_none());
    }

    #[test]
    fn failing_reader_errors_after_budget() {
        let mut reader = FailingReader::new(Cursor::new(vec![7u8; 16]), 10);
        let mut buf = [0u8; 8];
        assert_eq!(reader.read(&mut buf).unwrap(), 8);
        assert_eq!(reader.read(&mut buf).unwrap(), 2);
        assert!(reader.read(&mut buf).is_err());
    }

    #[test]
    fn truncating_writer_errors_after_budget() {
        let mut sink = Vec::new();
        {
            let mut writer = TruncatingWriter::new(&mut sink, 5);
            assert_eq!(writer.write(b"abc").unwrap(), 3);
            assert_eq!(writer.write(b"defg").unwrap(), 2);
            assert!(writer.write(b"h").is_err());
        }
        assert_eq!(sink, b"abcde");
    }
}
