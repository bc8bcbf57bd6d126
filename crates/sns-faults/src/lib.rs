//! Deterministic fault injection for the sns journal and replication layers.
//!
//! A [`FaultPlan`] is a small set of rules parsed from a spec string, e.g.
//!
//! ```text
//! journal.write=enospc@4..12;repl.send=drop@p10;journal.rename=fail@1
//! ```
//!
//! Each rule names an *injection point* (a string the instrumented code
//! passes to [`Faults::decide`]), a [`FaultAction`], and a *trigger* that
//! selects which hits of that point fire. Hit counters are per-point, and
//! probabilistic triggers hash `(seed, point, hit_index)` so the same seed
//! replays the same decisions — the plan is deterministic for a fixed
//! interleaving of hits.
//!
//! Injection is armable only in debug builds (`debug_assertions`): in
//! release builds [`Faults::armed`] refuses, so every handle is disarmed
//! and [`Faults::decide`] is one `None` check.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// True when a fault plan can be armed in this build (debug builds only).
pub const COMPILED_IN: bool = cfg!(debug_assertions);

/// What an armed injection point should do when a rule fires.
///
/// Actions are interpreted by the instrumented call site; an action that
/// makes no sense for a given point (e.g. `Refuse` on a file write) is
/// treated as a plain failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with a generic injected I/O error.
    Fail,
    /// Fail with an out-of-space error (`ENOSPC`).
    Enospc,
    /// Perform a short/torn write: persist a prefix of the payload, then fail.
    Short,
    /// Silently drop the frame (pretend success without doing the work).
    Drop,
    /// Sleep for the given number of milliseconds, then proceed normally.
    Delay(u64),
    /// Send/persist a truncated frame, then fail the stream.
    Truncate,
    /// Refuse the connection outright.
    Refuse,
}

impl FaultAction {
    fn parse(s: &str) -> Result<FaultAction, String> {
        if let Some(ms) = s.strip_prefix("delay:") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay milliseconds in {s:?}"))?;
            return Ok(FaultAction::Delay(ms));
        }
        match s {
            "fail" => Ok(FaultAction::Fail),
            "enospc" => Ok(FaultAction::Enospc),
            "short" => Ok(FaultAction::Short),
            "drop" => Ok(FaultAction::Drop),
            "truncate" => Ok(FaultAction::Truncate),
            "refuse" => Ok(FaultAction::Refuse),
            _ => Err(format!(
                "unknown fault action {s:?} (expected fail|enospc|short|drop|truncate|refuse|delay:MS)"
            )),
        }
    }
}

/// Which hits of an injection point a rule applies to. Hits are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Exactly the Nth hit.
    Nth(u64),
    /// Hits `lo..=hi` (`hi == u64::MAX` for an open range `lo..`).
    Window(u64, u64),
    /// Each hit independently with this percent probability, seeded.
    Percent(u8),
}

impl Trigger {
    fn parse(s: &str) -> Result<Trigger, String> {
        if let Some(p) = s.strip_prefix('p') {
            let p: u8 = p.parse().map_err(|_| format!("bad percent in {s:?}"))?;
            if p > 100 {
                return Err(format!("percent trigger {p} out of range 0..=100"));
            }
            return Ok(Trigger::Percent(p));
        }
        if let Some((lo, hi)) = s.split_once("..") {
            let lo: u64 = lo
                .parse()
                .map_err(|_| format!("bad range start in {s:?}"))?;
            let hi: u64 = if hi.is_empty() {
                u64::MAX
            } else {
                hi.parse().map_err(|_| format!("bad range end in {s:?}"))?
            };
            if lo == 0 || hi < lo {
                return Err(format!("bad hit range in {s:?} (hits are 1-based)"));
            }
            return Ok(Trigger::Window(lo, hi));
        }
        let n: u64 = s.parse().map_err(|_| format!("bad hit number in {s:?}"))?;
        if n == 0 {
            return Err("hit numbers are 1-based".to_string());
        }
        Ok(Trigger::Nth(n))
    }

    fn fires(&self, seed: u64, point: &str, hit: u64) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::Window(lo, hi) => hit >= lo && hit <= hi,
            Trigger::Percent(p) => {
                let mut rng = SplitMix64::seed_from_u64(seed ^ fnv1a(point.as_bytes()) ^ hit);
                (rng.next_u64() % 100) < u64::from(p)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Rule {
    point: String,
    action: FaultAction,
    trigger: Trigger,
}

/// A parsed, seeded set of fault rules with per-point hit counters.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    hits: Mutex<HashMap<String, u64>>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// Parses a plan from a spec string: `;`-separated rules of the form
    /// `point=action[@trigger]`, plus an optional `seed=N` entry.
    ///
    /// Triggers: `@N` (exactly the Nth hit), `@N..` (from the Nth on),
    /// `@N..M` (a closed window), `@pP` (each hit with P% probability,
    /// seeded). No trigger means every hit.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule {part:?} is missing '='"))?;
            let key = key.trim();
            let value = value.trim();
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed value {value:?}"))?;
                continue;
            }
            let (action, trigger) = match value.split_once('@') {
                Some((a, t)) => (FaultAction::parse(a)?, Trigger::parse(t)?),
                None => (FaultAction::parse(value)?, Trigger::Always),
            };
            rules.push(Rule {
                point: key.to_string(),
                action,
                trigger,
            });
        }
        Ok(FaultPlan {
            seed,
            rules,
            hits: Mutex::new(HashMap::new()),
            fired: AtomicU64::new(0),
        })
    }

    /// Records a hit at `point` and returns the action to take, if any.
    fn decide(&self, point: &str) -> Option<FaultAction> {
        let hit = {
            let mut hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
            let h = hits.entry(point.to_string()).or_insert(0);
            *h += 1;
            *h
        };
        for rule in &self.rules {
            if rule.point == point && rule.trigger.fires(self.seed, point, hit) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.action);
            }
        }
        None
    }

    /// How many hits `point` has recorded so far.
    pub fn hits(&self, point: &str) -> u64 {
        let hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
        hits.get(point).copied().unwrap_or(0)
    }

    /// How many rule firings the plan has produced so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// A cheap, cloneable handle to an optional [`FaultPlan`].
///
/// The default handle is disarmed and [`Faults::decide`] returns `None`
/// without taking any lock. Release builds cannot arm a handle.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// A disarmed handle; every decision is `None`.
    pub fn disabled() -> Faults {
        Faults(None)
    }

    /// Arms a handle with the given plan. Fails in release builds, where
    /// injection is compiled out — arming there would silently do nothing.
    pub fn armed(plan: FaultPlan) -> Result<Faults, String> {
        if !COMPILED_IN {
            return Err("fault injection is compiled out of release builds".to_string());
        }
        Ok(Faults(Some(Arc::new(plan))))
    }

    /// Parses `spec` and arms a handle with it. See [`Faults::armed`].
    pub fn from_spec(spec: &str) -> Result<Faults, String> {
        Faults::armed(FaultPlan::parse(spec)?)
    }

    /// True when this handle carries an armed plan.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Records a hit at `point` and returns the action to take, if any.
    pub fn decide(&self, point: &str) -> Option<FaultAction> {
        self.0.as_ref().and_then(|plan| plan.decide(point))
    }

    /// The underlying plan, for harnesses that inspect hit counts.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.0.as_deref()
    }
}

/// Maps an action at a file-write-style point to an injected `io::Error`.
/// `Short`/`Truncate` callers should persist a prefix first; the error is
/// what they return afterwards.
pub fn write_error(action: FaultAction) -> std::io::Error {
    match action {
        FaultAction::Enospc => std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected fault: no space left on device",
        ),
        FaultAction::Short | FaultAction::Truncate => {
            std::io::Error::new(std::io::ErrorKind::WriteZero, "injected fault: short write")
        }
        _ => std::io::Error::other("injected fault: write failed"),
    }
}

/// SplitMix64 — the same tiny std-only generator used across the workspace
/// for seeded, reproducible randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (Lemire reduction); `n` must be non-zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("journal.write").is_err());
        assert!(FaultPlan::parse("journal.write=explode").is_err());
        assert!(FaultPlan::parse("journal.write=fail@0").is_err());
        assert!(FaultPlan::parse("journal.write=fail@5..2").is_err());
        assert!(FaultPlan::parse("journal.write=fail@p101").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
    }

    #[test]
    fn nth_and_window_triggers() {
        let plan = FaultPlan::parse("a=fail@2;b=enospc@3..4").unwrap();
        assert_eq!(plan.decide("a"), None);
        assert_eq!(plan.decide("a"), Some(FaultAction::Fail));
        assert_eq!(plan.decide("a"), None);
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.decide("b"), Some(FaultAction::Enospc));
        assert_eq!(plan.decide("b"), Some(FaultAction::Enospc));
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.hits("a"), 3);
        assert_eq!(plan.hits("b"), 5);
        assert_eq!(plan.fired(), 3);
    }

    #[test]
    fn open_range_and_delay() {
        let plan = FaultPlan::parse("x=delay:25@2..").unwrap();
        assert_eq!(plan.decide("x"), None);
        for _ in 0..5 {
            assert_eq!(plan.decide("x"), Some(FaultAction::Delay(25)));
        }
    }

    #[test]
    fn percent_is_deterministic_per_seed() {
        let a = FaultPlan::parse("seed=7;p=drop@p40").unwrap();
        let b = FaultPlan::parse("seed=7;p=drop@p40").unwrap();
        let da: Vec<bool> = (0..64).map(|_| a.decide("p").is_some()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.decide("p").is_some()).collect();
        assert_eq!(da, db);
        let fired = da.iter().filter(|f| **f).count();
        assert!(fired > 5 && fired < 60, "p40 fired {fired}/64 times");
    }

    #[test]
    fn disarmed_handle_is_silent() {
        let f = Faults::disabled();
        assert!(!f.is_armed());
        assert_eq!(f.decide("anything"), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn armed_handle_decides() {
        let f = Faults::from_spec("q=refuse@1").unwrap();
        assert!(f.is_armed());
        assert_eq!(f.decide("q"), Some(FaultAction::Refuse));
        assert_eq!(f.decide("q"), None);
    }
}
