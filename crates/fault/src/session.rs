//! Run-time fault sessions: a validated scenario bound to a concrete
//! system, with deterministic flip draws and degradation accounting.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use transpim_pim::ecc::EccScheme;

use crate::scenario::{Fault, FaultError, FaultScenario};

/// The slice of the machine geometry a session validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemInfo {
    pub total_banks: u32,
    pub total_groups: u32,
    pub subarrays_per_bank: u32,
}

/// Degraded-mode accounting attached to a `SimReport`.
///
/// `overhead_latency_ns`/`overhead_energy_pj` are the *incremental* cost of
/// degradation accumulated lump by lump (ECC checks, retries, corrections,
/// stuck-plane serialization, divider fallback) — for scenarios that do not
/// change the program shape (no failed banks, no link faults) the degraded
/// run equals the fault-free run plus exactly this overhead.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Individual fault events injected (static faults + drawn flips).
    pub injected: u64,
    /// Events the machine noticed (BIST for static faults, ECC for flips).
    pub detected: u64,
    /// Events absorbed by a degradation policy or ECC correction.
    pub corrected: u64,
    /// Events no policy could absorb (the run surfaces a `SimError`).
    pub uncorrectable: u64,
    /// Static fault inventory, for the report reader.
    pub failed_banks: u32,
    pub stuck_planes: u32,
    pub dead_links: u32,
    pub degraded_links: u32,
    pub broken_dividers: u32,
    /// Incremental latency added by degradation, in scaled engine time.
    pub overhead_latency_ns: f64,
    /// Incremental energy added by degradation.
    pub overhead_energy_pj: f64,
}

/// What happened to the flips drawn on one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipOutcome {
    /// No flip on this transfer.
    None,
    /// SECDED repaired the flips in place; price a per-flip correction.
    Corrected(u64),
    /// Parity detected the flips; price one bounded retry of the transfer.
    Retry(u64),
    /// Unprotected flips: the run must surface an error.
    Uncorrectable(u64),
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const BYTES_PER_GIB: f64 = (1u64 << 30) as f64;

/// A validated fault scenario bound to a machine, ready to be consulted by
/// the executor while pricing a program.
///
/// The session is deliberately *not* shared between runs: each simulated
/// cell builds its own session from the scenario, so the flip stream is a
/// pure function of `(seed, lump sequence)` and results are independent of
/// job count and scheduling order.
#[derive(Debug, Clone)]
pub struct FaultSession {
    seed: u64,
    draws: u64,
    ecc: EccScheme,
    flip_per_gib: f64,
    failed_banks: BTreeSet<u32>,
    stuck: BTreeMap<u32, u32>,
    dead_links: BTreeSet<u32>,
    degraded_links: BTreeMap<u32, f64>,
    broken_dividers: BTreeSet<u32>,
    sys: SystemInfo,
    empty: bool,
    injected: u64,
    detected: u64,
    corrected: u64,
    uncorrectable: u64,
    overhead_latency_ns: f64,
    overhead_energy_pj: f64,
    track_named: bool,
}

impl FaultSession {
    /// Validate `scenario` against `sys` and build a session.
    ///
    /// # Errors
    ///
    /// [`FaultError::Invalid`] when a fault references hardware outside the
    /// geometry or carries a nonsensical parameter;
    /// [`FaultError::Uncorrectable`] when the static faults alone already
    /// exceed every degradation policy (every bank failed, or every
    /// subarray of a bank stuck).
    pub fn new(scenario: &FaultScenario, sys: SystemInfo) -> Result<Self, FaultError> {
        if sys.total_banks == 0 || sys.subarrays_per_bank == 0 {
            return Err(FaultError::Invalid("degenerate system geometry".into()));
        }
        let mut s = Self {
            seed: splitmix64(scenario.seed),
            draws: 0,
            ecc: scenario.ecc,
            flip_per_gib: 0.0,
            failed_banks: BTreeSet::new(),
            stuck: BTreeMap::new(),
            dead_links: BTreeSet::new(),
            degraded_links: BTreeMap::new(),
            broken_dividers: BTreeSet::new(),
            sys,
            empty: scenario.is_empty(),
            injected: 0,
            detected: 0,
            corrected: 0,
            uncorrectable: 0,
            overhead_latency_ns: 0.0,
            overhead_energy_pj: 0.0,
            track_named: false,
        };
        for fault in &scenario.faults {
            match *fault {
                Fault::FailedBank { bank } => {
                    s.check_bank(bank)?;
                    s.failed_banks.insert(bank);
                }
                Fault::StuckBitPlanes { bank, planes } => {
                    s.check_bank(bank)?;
                    if planes == 0 {
                        return Err(FaultError::Invalid(format!(
                            "StuckBitPlanes on bank {bank} with zero planes"
                        )));
                    }
                    let total = s.stuck.entry(bank).or_insert(0);
                    *total = total.saturating_add(planes);
                    if *total >= sys.subarrays_per_bank {
                        return Err(FaultError::Uncorrectable(format!(
                            "all {} subarrays of bank {bank} have stuck bit-planes",
                            sys.subarrays_per_bank
                        )));
                    }
                }
                Fault::DeadLink { group } => {
                    s.check_group(group)?;
                    s.degraded_links.remove(&group);
                    s.dead_links.insert(group);
                }
                Fault::DegradedLink { group, factor } => {
                    s.check_group(group)?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(FaultError::Invalid(format!(
                            "DegradedLink factor {factor} outside (0, 1]"
                        )));
                    }
                    if !s.dead_links.contains(&group) {
                        // Two degradations on one link compound.
                        let f = s.degraded_links.entry(group).or_insert(1.0);
                        *f *= factor;
                    }
                }
                Fault::TransientFlips { per_gib } => {
                    if !(per_gib.is_finite() && per_gib >= 0.0) {
                        return Err(FaultError::Invalid(format!(
                            "TransientFlips rate {per_gib} must be finite and non-negative"
                        )));
                    }
                    s.flip_per_gib += per_gib;
                }
                Fault::BrokenDivider { bank } => {
                    s.check_bank(bank)?;
                    s.broken_dividers.insert(bank);
                }
            }
        }
        if s.failed_banks.len() as u32 >= sys.total_banks {
            return Err(FaultError::Uncorrectable(format!(
                "all {} banks failed; no pool left to re-shard onto",
                sys.total_banks
            )));
        }
        // Static faults are found by power-on self-test: each is injected,
        // detected, and — since the session built — absorbed by a policy.
        let static_faults = (s.failed_banks.len()
            + s.stuck.len()
            + s.dead_links.len()
            + s.degraded_links.len()
            + s.broken_dividers.len()) as u64;
        s.injected = static_faults;
        s.detected = static_faults;
        s.corrected = static_faults;
        Ok(s)
    }

    fn check_bank(&self, bank: u32) -> Result<(), FaultError> {
        if bank >= self.sys.total_banks {
            return Err(FaultError::Invalid(format!(
                "bank {bank} out of range ({} banks)",
                self.sys.total_banks
            )));
        }
        Ok(())
    }

    fn check_group(&self, group: u32) -> Result<(), FaultError> {
        if group >= self.sys.total_groups {
            return Err(FaultError::Invalid(format!(
                "group {group} out of range ({} groups)",
                self.sys.total_groups
            )));
        }
        Ok(())
    }

    /// True when the originating scenario perturbs nothing; such a session
    /// leaves every priced lump untouched.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    pub fn ecc(&self) -> EccScheme {
        self.ecc
    }

    /// Per-transfer bandwidth tax of the ECC check bits.
    pub fn ecc_overhead_fraction(&self) -> f64 {
        self.ecc.overhead_fraction()
    }

    pub fn failed_banks(&self) -> &BTreeSet<u32> {
        &self.failed_banks
    }

    pub fn failed_bank_count(&self) -> u32 {
        self.failed_banks.len() as u32
    }

    pub fn dead_links(&self) -> &BTreeSet<u32> {
        &self.dead_links
    }

    pub fn degraded_links(&self) -> &BTreeMap<u32, f64> {
        &self.degraded_links
    }

    /// Whether dead or degraded ring links reroute transfers, so pricing
    /// needs a rewired resource map.
    pub fn rewires_ring(&self) -> bool {
        !self.dead_links.is_empty() || !self.degraded_links.is_empty()
    }

    pub fn broken_dividers(&self) -> &BTreeSet<u32> {
        &self.broken_dividers
    }

    /// Fraction of banks whose ACU divider is broken.
    pub fn broken_divider_fraction(&self) -> f64 {
        self.broken_dividers.len() as f64 / f64::from(self.sys.total_banks)
    }

    /// Latency multiplier (>= 1) for in-memory arithmetic: banks run in
    /// lockstep, so the bank with the most fenced-off subarrays gates every
    /// phase — work serializes over its surviving subarrays.
    pub fn pim_slowdown(&self) -> f64 {
        let worst = self.stuck.values().copied().max().unwrap_or(0);
        if worst == 0 {
            return 1.0;
        }
        f64::from(self.sys.subarrays_per_bank) / f64::from(self.sys.subarrays_per_bank - worst)
    }

    /// Deterministically draw transient flips for a transfer of `bytes`
    /// and classify them under the session's ECC scheme.
    pub fn observe_transfer(&mut self, bytes: f64) -> FlipOutcome {
        if self.flip_per_gib <= 0.0 || bytes <= 0.0 {
            return FlipOutcome::None;
        }
        let expected = bytes * self.flip_per_gib / BYTES_PER_GIB;
        let base = expected.floor();
        self.draws = self.draws.wrapping_add(1);
        let h = splitmix64(self.seed ^ self.draws);
        // 53 uniform mantissa bits → [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let flips = base as u64 + u64::from(u < expected - base);
        if flips == 0 {
            return FlipOutcome::None;
        }
        self.injected += flips;
        // Flips on distinct transfers land in distinct words, so each is a
        // single-bit-per-word event for the ECC capability check.
        if self.ecc.can_correct(1) {
            self.detected += flips;
            self.corrected += flips;
            FlipOutcome::Corrected(flips)
        } else if self.ecc.can_detect(1) {
            self.detected += flips;
            self.corrected += flips; // absorbed by the bounded retry
            FlipOutcome::Retry(flips)
        } else {
            self.uncorrectable += flips;
            FlipOutcome::Uncorrectable(flips)
        }
    }

    /// Record incremental degradation cost (already in scaled engine time).
    pub fn add_overhead(&mut self, latency_ns: f64, energy_pj: f64) {
        self.overhead_latency_ns += latency_ns;
        self.overhead_energy_pj += energy_pj;
    }

    /// Returns true exactly once, for naming the fault trace track lazily
    /// (so fault-free traces stay byte-identical).
    pub fn mark_fault_track_named(&mut self) -> bool {
        if self.track_named {
            return false;
        }
        self.track_named = true;
        true
    }

    /// Snapshot the accounting for a `SimReport`.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected,
            detected: self.detected,
            corrected: self.corrected,
            uncorrectable: self.uncorrectable,
            failed_banks: self.failed_banks.len() as u32,
            stuck_planes: self.stuck.values().sum(),
            dead_links: self.dead_links.len() as u32,
            degraded_links: self.degraded_links.len() as u32,
            broken_dividers: self.broken_dividers.len() as u32,
            overhead_latency_ns: self.overhead_latency_ns,
            overhead_energy_pj: self.overhead_energy_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemInfo {
        SystemInfo { total_banks: 32, total_groups: 8, subarrays_per_bank: 64 }
    }

    fn session(faults: Vec<Fault>, ecc: EccScheme) -> Result<FaultSession, FaultError> {
        FaultSession::new(&FaultScenario { seed: 7, ecc, faults }, sys())
    }

    #[test]
    fn out_of_range_faults_are_invalid() {
        for fault in [
            Fault::FailedBank { bank: 32 },
            Fault::StuckBitPlanes { bank: 99, planes: 1 },
            Fault::DeadLink { group: 8 },
            Fault::BrokenDivider { bank: 1000 },
        ] {
            let err = session(vec![fault], EccScheme::None).expect_err("must be rejected");
            assert!(matches!(err, FaultError::Invalid(_)), "{err}");
        }
        let err = session(vec![Fault::DegradedLink { group: 0, factor: 0.0 }], EccScheme::None)
            .expect_err("zero factor rejected");
        assert!(matches!(err, FaultError::Invalid(_)));
    }

    #[test]
    fn exhausted_hardware_is_uncorrectable_at_build() {
        let all = (0..32).map(|b| Fault::FailedBank { bank: b }).collect();
        let err = session(all, EccScheme::None).expect_err("no pool left");
        assert!(matches!(err, FaultError::Uncorrectable(_)));
        let err = session(vec![Fault::StuckBitPlanes { bank: 0, planes: 64 }], EccScheme::None)
            .expect_err("whole bank stuck");
        assert!(matches!(err, FaultError::Uncorrectable(_)));
    }

    #[test]
    fn slowdown_is_gated_by_the_worst_bank() {
        let s = session(
            vec![
                Fault::StuckBitPlanes { bank: 0, planes: 16 },
                Fault::StuckBitPlanes { bank: 1, planes: 32 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        assert!((s.pim_slowdown() - 2.0).abs() < 1e-12); // 64 / (64 - 32)
    }

    #[test]
    fn flip_stream_is_deterministic_and_ecc_dependent() {
        let faults = vec![Fault::TransientFlips { per_gib: 8.0 }];
        let mut a = session(faults.clone(), EccScheme::Secded).expect("valid");
        let mut b = session(faults.clone(), EccScheme::Secded).expect("valid");
        let seq_a: Vec<_> = (0..64).map(|_| a.observe_transfer((512u64 << 20) as f64)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.observe_transfer((512u64 << 20) as f64)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same draws");
        assert!(seq_a.iter().any(|o| matches!(o, FlipOutcome::Corrected(_))));
        assert!(!seq_a.iter().any(|o| matches!(o, FlipOutcome::Uncorrectable(_))));

        let mut none = session(faults, EccScheme::None).expect("valid");
        let outcomes: Vec<_> =
            (0..64).map(|_| none.observe_transfer((512u64 << 20) as f64)).collect();
        assert!(outcomes.iter().any(|o| matches!(o, FlipOutcome::Uncorrectable(_))));
    }

    #[test]
    fn static_faults_are_counted_as_detected_and_corrected() {
        let s = session(
            vec![
                Fault::FailedBank { bank: 3 },
                Fault::DeadLink { group: 2 },
                Fault::DegradedLink { group: 1, factor: 0.5 },
                Fault::BrokenDivider { bank: 9 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        let stats = s.stats();
        assert_eq!(stats.injected, 4);
        assert_eq!(stats.detected, 4);
        assert_eq!(stats.corrected, 4);
        assert_eq!(stats.uncorrectable, 0);
        assert_eq!(stats.failed_banks, 1);
        assert_eq!(stats.dead_links, 1);
        assert_eq!(stats.degraded_links, 1);
        assert_eq!(stats.broken_dividers, 1);
    }

    #[test]
    fn dead_link_supersedes_degraded_link() {
        let s = session(
            vec![
                Fault::DegradedLink { group: 2, factor: 0.5 },
                Fault::DeadLink { group: 2 },
                Fault::DegradedLink { group: 2, factor: 0.25 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        assert!(s.dead_links().contains(&2));
        assert!(s.degraded_links().is_empty());
    }
}
