//! # glint-failpoint
//!
//! Deterministic fault injection plus the durable-file primitives the rest
//! of the workspace builds its fault tolerance on.
//!
//! * [`check`] / [`arm`] / [`ScopedFail`] — named fail-point sites that can
//!   be forced (from the `GLINT_FAILPOINTS` environment variable or
//!   programmatically) to return IO errors, truncate writes, or panic. The
//!   disabled path is a single relaxed atomic load, so instrumented sites
//!   cost nothing in production.
//! * [`durable`] — a versioned, checksummed file envelope written atomically
//!   via temp-file + rename. Checkpoints, persisted models, and graph
//!   datasets all go through it, so a crash at any instant leaves either the
//!   old file or the new file on disk — never a torn hybrid.
//!
//! ## Environment syntax
//!
//! ```text
//! GLINT_FAILPOINTS="<site>=<action>[@<nth>][;<site>=<action>...]"
//! ```
//!
//! Actions: `err` (injected IO error), `short:<bytes>` (write only the first
//! `<bytes>` bytes, then fail — a torn write), `panic` (simulated crash).
//! `@<nth>` delays the fault to the nth hit of the site (1-based, default 1).
//! Each armed fault fires exactly once and then disarms, so a resumed run
//! does not re-trip the fault that killed its predecessor.
//!
//! Canonical sites wired through the workspace: `persist.save`,
//! `checkpoint.save`, `graph.store.save`, `trainer.epoch_end`,
//! `detector.assess`, `detector.classify`.

pub mod durable;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// What a forced fail point does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Surface an injected IO error.
    Err,
    /// Write only the first `n` bytes, then surface an IO error (torn write).
    ShortWrite(usize),
    /// Panic at the site (simulated crash; callers on the serving path are
    /// expected to contain it).
    Panic,
}

/// One armed site: fires on the `nth` hit, once.
#[derive(Clone, Debug)]
struct Armed {
    action: Action,
    /// Hits remaining before the fault fires (1 = fire on the next hit).
    countdown: usize,
}

/// Fast-path gate. Starts [`UNINIT`] so the very first hit of any site pays
/// one registry initialisation (reading `GLINT_FAILPOINTS`); after that the
/// state is [`IDLE`] or [`ARMED`] and a hit costs one relaxed atomic load.
/// Never reset from `ARMED` back to `IDLE` (a stale `ARMED` only costs one
/// mutex lock per check; the map is the truth).
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
/// The registry has not been initialised; the environment may still arm
/// sites. Must be the `AtomicU8::new` default above.
const UNINIT: u8 = 0;
/// Registry initialised, nothing armed from the environment (yet).
const IDLE: u8 = 1;
/// At least one site has been armed at some point.
const ARMED: u8 = 2;

fn registry() -> &'static Mutex<BTreeMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = BTreeMap::new();
        if let Ok(spec) = std::env::var("GLINT_FAILPOINTS") {
            for (site, armed) in parse_spec(&spec) {
                map.insert(site, armed);
            }
        }
        let state = if map.is_empty() { IDLE } else { ARMED };
        // `arm` may already have raced the state to ARMED; never downgrade.
        let _ = STATE.compare_exchange(UNINIT, state, Ordering::Relaxed, Ordering::Relaxed);
        Mutex::new(map)
    })
}

/// Parse the `GLINT_FAILPOINTS` syntax. Malformed entries are skipped — a
/// typo in a fault-injection variable must not itself take the process down.
fn parse_spec(spec: &str) -> Vec<(String, Armed)> {
    let mut out = Vec::new();
    for entry in spec.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((site, rhs)) = entry.split_once('=') else {
            continue;
        };
        let (action_str, nth) = match rhs.split_once('@') {
            Some((a, n)) => (a, n.trim().parse::<usize>().unwrap_or(1).max(1)),
            None => (rhs, 1),
        };
        let action = match action_str.trim() {
            "err" => Action::Err,
            "panic" => Action::Panic,
            s => match s.strip_prefix("short:").map(str::trim) {
                Some(n) => Action::ShortWrite(n.parse().unwrap_or(0)),
                None => continue,
            },
        };
        out.push((
            site.trim().to_string(),
            Armed {
                action,
                countdown: nth,
            },
        ));
    }
    out
}

/// Arm `site` to fire `action` on its `nth` hit (1-based). Overwrites any
/// previous arming of the same site.
pub fn arm(site: &str, action: Action, nth: usize) {
    let mut map = registry().lock().expect("failpoint registry poisoned");
    map.insert(
        site.to_string(),
        Armed {
            action,
            countdown: nth.max(1),
        },
    );
    STATE.store(ARMED, Ordering::Relaxed);
}

/// Disarm `site` (no-op when it is not armed).
pub fn disarm(site: &str) {
    let mut map = registry().lock().expect("failpoint registry poisoned");
    map.remove(site);
}

/// Sites currently armed (for matrix drivers that introspect the env).
pub fn armed_sites() -> Vec<String> {
    let map = registry().lock().expect("failpoint registry poisoned");
    map.keys().cloned().collect()
}

/// Hit `site`: returns the action to apply if the fault fires now. The
/// common (disabled) path is one relaxed atomic load. A fired fault disarms
/// itself. An `Action::Panic` fault panics here rather than returning.
pub fn check(site: &str) -> Option<Action> {
    let mut state = STATE.load(Ordering::Relaxed);
    if state == UNINIT {
        // First hit anywhere: initialise the registry so GLINT_FAILPOINTS
        // is honoured even when nothing was armed programmatically.
        registry();
        state = STATE.load(Ordering::Relaxed);
    }
    if state != ARMED {
        return None;
    }
    let action = {
        // glint-lint: allow(hot-unwrap, hot-lock) — reached only while a
        // fault is armed (the disabled fast path above is one relaxed atomic
        // load); registry poisoning means a panic mid-arm, unrecoverable
        let mut map = registry().lock().expect("failpoint registry poisoned");
        let armed = map.get_mut(site)?;
        armed.countdown -= 1;
        if armed.countdown > 0 {
            return None;
        }
        let action = armed.action.clone();
        map.remove(site);
        action
    };
    if action == Action::Panic {
        // glint-lint: allow(hot-panic) — Action::Panic exists to inject a
        // panic at this site for fault drills; firing is the feature
        panic!("glint-failpoint: forced panic at site `{site}`");
    }
    Some(action)
}

/// Hit `site` and convert a fired fault into an `io::Error` (panic faults
/// still panic). For sites where a short write has no meaning.
pub fn trigger(site: &str) -> std::io::Result<()> {
    match check(site) {
        None => Ok(()),
        Some(_) => Err(injected_error(site)),
    }
}

/// The error every fired fail point surfaces; recognisable in assertions.
pub fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("glint-failpoint: injected fault at `{site}`"))
}

/// RAII arming for tests: arms on construction, disarms on drop (including
/// on panic), so a failed assertion cannot leak an armed site into the next
/// test of the same binary.
pub struct ScopedFail {
    site: String,
}

impl ScopedFail {
    pub fn new(site: &str, action: Action, nth: usize) -> Self {
        arm(site, action, nth);
        Self {
            site: site.to_string(),
        }
    }
}

impl Drop for ScopedFail {
    fn drop(&mut self) {
        disarm(&self.site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_never_fires() {
        assert_eq!(check("tests.nothing_armed_here"), None);
        assert!(trigger("tests.nothing_armed_here").is_ok());
    }

    #[test]
    fn fires_once_on_nth_hit_then_disarms() {
        let _guard = ScopedFail::new("tests.nth", Action::Err, 3);
        assert_eq!(check("tests.nth"), None);
        assert_eq!(check("tests.nth"), None);
        assert_eq!(check("tests.nth"), Some(Action::Err));
        assert_eq!(check("tests.nth"), None, "fault must disarm after firing");
    }

    #[test]
    fn scoped_fail_disarms_on_drop() {
        {
            let _guard = ScopedFail::new("tests.scoped", Action::Err, 1);
            assert!(armed_sites().contains(&"tests.scoped".to_string()));
        }
        assert!(!armed_sites().contains(&"tests.scoped".to_string()));
        assert_eq!(check("tests.scoped"), None);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test catches the panic the site injects on purpose"
    )]
    fn panic_action_panics_at_site() {
        let _guard = ScopedFail::new("tests.panic", Action::Panic, 1);
        let result = std::panic::catch_unwind(|| check("tests.panic"));
        assert!(result.is_err(), "panic action must panic");
    }

    #[test]
    fn spec_parsing() {
        let parsed = parse_spec("a.b=err; c.d=short:16@2 ;bogus; e=panic,f=short:x");
        let sites: Vec<&str> = parsed.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(sites, ["a.b", "c.d", "e", "f"]);
        assert_eq!(parsed[0].1.action, Action::Err);
        assert_eq!(parsed[1].1.action, Action::ShortWrite(16));
        assert_eq!(parsed[1].1.countdown, 2);
        assert_eq!(parsed[2].1.action, Action::Panic);
        assert_eq!(parsed[3].1.action, Action::ShortWrite(0));
    }
}
