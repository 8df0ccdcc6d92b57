//! The global sampling budget controller.
//!
//! GWP-ASan's fleet economics (PAPERS.md): a sampled detector's
//! per-process watch probability can fall as the fleet grows, because
//! the fleet's chance of catching a given bug *somewhere* is
//! `1 − (1 − p)^N` over `N` processes. The controller inverts that —
//! given a fleet-wide per-unique-bug detection target `T`, the smallest
//! per-process probability that still meets it is
//!
//! ```text
//! p = 1 − (1 − T)^(1/N)
//! ```
//!
//! clamped between the sampler's probability floor (contexts must stay
//! revivable) and the global per-process overhead bound (the budget the
//! fleet operator actually pays for). The result seeds every
//! subsequently launched process: a lower `initial_ppm` for unknown
//! contexts, [`RiskClass::Suspicious`] priors for every signature the
//! fleet has confirmed (never `ProvenSafe` — fleet evidence can only
//! raise suspicion, see the merge proptests), and a seed WAL whose
//! startup recovery pins evidence and enrolls fleet-confirmed contexts
//! in the process's `MitigationPolicy` before its first allocation.

use crate::store::FleetStore;
use csod_core::{AnalysisPriors, CsodConfig, RiskClass, SamplingParams};
use csod_ctx::ContextKey;
use csod_persist::{Wal, WalRecord};
use csod_rng::PPM_SCALE;
use std::io;
use std::path::Path;

/// The fleet-wide sampling budget: what detection probability the fleet
/// must keep per unique bug, and what per-process overhead it may spend
/// to get it.
///
/// # Examples
///
/// ```
/// use csod_fleet::SamplingBudget;
/// use csod_core::CsodConfig;
///
/// let budget = SamplingBudget::default();
/// let base = CsodConfig::default().sampling;
/// // One process must carry the whole target by itself...
/// let solo = budget.per_process_ppm(1, &base);
/// // ...while a 1000-process fleet meets the same target sampling far
/// // less per process.
/// let fleet = budget.per_process_ppm(1000, &base);
/// assert!(fleet < solo / 10);
/// assert!(fleet >= base.floor_ppm);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingBudget {
    /// Fleet-wide per-unique-bug detection probability target, in ppm.
    pub fleet_detection_target_ppm: u32,
    /// Hard per-process overhead bound, in ppm of initial watch
    /// probability: no plan may start contexts above this, no matter
    /// how small the fleet is.
    pub per_process_budget_ppm: u32,
}

impl Default for SamplingBudget {
    /// 99 % fleet-wide detection under the paper's 50 % per-process
    /// starting probability as the overhead ceiling.
    fn default() -> SamplingBudget {
        SamplingBudget {
            fleet_detection_target_ppm: PPM_SCALE / 100 * 99,
            per_process_budget_ppm: PPM_SCALE / 2,
        }
    }
}

impl SamplingBudget {
    /// The smallest per-process initial watch probability (ppm) meeting
    /// the fleet detection target across `processes` processes, clamped
    /// to `[base.floor_ppm, min(budget, base.initial_ppm)]`.
    pub fn per_process_ppm(&self, processes: u64, base: &SamplingParams) -> u32 {
        let n = processes.max(1);
        let target =
            f64::from(self.fleet_detection_target_ppm.min(PPM_SCALE - 1)) / f64::from(PPM_SCALE);
        // p = 1 - (1 - T)^(1/N); exact at N = 1, monotically falling in N.
        let p = 1.0 - (1.0 - target).powf(1.0 / n as f64);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ppm = (p * f64::from(PPM_SCALE)).ceil() as u32;
        let ceiling = self
            .per_process_budget_ppm
            .min(base.initial_ppm)
            .max(base.floor_ppm);
        ppm.clamp(base.floor_ppm, ceiling)
    }

    /// The fleet-wide detection probability (ppm) actually achieved by
    /// `per_process` across `processes` processes: `1 − (1 − p)^N`.
    pub fn achieved_ppm(per_process: u32, processes: u64) -> u32 {
        let p = f64::from(per_process.min(PPM_SCALE)) / f64::from(PPM_SCALE);
        let achieved = 1.0 - (1.0 - p).powi(i32::try_from(processes.max(1)).unwrap_or(i32::MAX));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ppm = (achieved * f64::from(PPM_SCALE)).floor() as u32;
        ppm.min(PPM_SCALE)
    }

    /// Builds the next generation's launch plan from the current fleet
    /// store: the per-process probability for `processes` upcoming
    /// launches under `base`, plus the store's collapsed evidence as
    /// seed records. Every signature in the plan is marked published in
    /// the store (mitigation fan-out bookkeeping).
    pub fn plan(&self, store: &FleetStore, processes: u64, base: &SamplingParams) -> FleetPlan {
        let initial_ppm = self.per_process_ppm(processes, base);
        let newly_mitigated = store.mark_all_mitigated();
        FleetPlan {
            seed_records: store.strongest_records(),
            initial_ppm,
            fleet_processes: processes,
            fleet_detection_ppm: SamplingBudget::achieved_ppm(initial_ppm, processes),
            newly_mitigated,
        }
    }
}

/// One generation's launch configuration: what every process in the
/// next fleet round starts with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlan {
    /// Strongest-per-signature fleet evidence, in signature order —
    /// the contents of every seeded process's startup WAL.
    pub seed_records: Vec<WalRecord>,
    /// Budgeted initial watch probability for unknown contexts, ppm.
    pub initial_ppm: u32,
    /// Fleet size the budget was computed for.
    pub fleet_processes: u64,
    /// Fleet-wide per-unique-bug detection probability this plan
    /// achieves at `initial_ppm`, in ppm.
    pub fleet_detection_ppm: u32,
    /// Signatures newly published for mitigation by this plan.
    pub newly_mitigated: u64,
}

impl FleetPlan {
    /// `base` with the budgeted initial probability substituted in. The
    /// clamp in [`SamplingBudget::per_process_ppm`] guarantees the
    /// result still satisfies `CsodConfig::validate`'s
    /// `burst ≤ floor ≤ initial` ordering.
    pub fn sampling_params(&self, base: &SamplingParams) -> SamplingParams {
        let mut params = *base;
        params.initial_ppm = self.initial_ppm.max(base.floor_ppm);
        params
    }

    /// Applies the budgeted sampling schedule to a process
    /// configuration in place (priors and the seed WAL are separate
    /// because they need a signature resolver and a filesystem path).
    pub fn apply(&self, config: &mut CsodConfig) {
        config.sampling = self.sampling_params(&config.sampling);
    }

    /// Writes the seed WAL for one upcoming process launch: point the
    /// process's `persist_path` here and its startup recovery pins the
    /// fleet's evidence and enrolls every confirmed context in its
    /// `MitigationPolicy` before the first allocation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the snapshot.
    pub fn seed_wal(&self, path: &Path) -> io::Result<()> {
        Wal::compact(path, &self.seed_records)
    }

    /// Converts the fleet's confirmed signatures into analysis priors
    /// for a process whose signature → context mapping is known.
    /// `resolve` maps a WAL signature to the process-local
    /// [`ContextKey`] (returning `None` for contexts the process never
    /// allocates from). Every resolved signature is observed as
    /// [`RiskClass::Suspicious`]: fleet evidence of a trap or corrupt
    /// canary can never downgrade a context to `ProvenSafe`.
    pub fn priors<F>(&self, mut resolve: F) -> AnalysisPriors
    where
        F: FnMut(&str) -> Option<ContextKey>,
    {
        let mut priors = AnalysisPriors::from_classes([]);
        for rec in &self.seed_records {
            if let Some(key) = resolve(&rec.signature) {
                priors.observe_context(key, RiskClass::Suspicious);
            }
        }
        priors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FleetStore;
    use csod_ctx::FrameTable;
    use csod_persist::RecordKind;

    fn base() -> SamplingParams {
        CsodConfig::default().sampling
    }

    #[test]
    fn per_process_probability_falls_with_fleet_size_but_respects_bounds() {
        let budget = SamplingBudget::default();
        let base = base();
        let mut last = u32::MAX;
        for n in [1, 2, 10, 100, 1_000, 10_000, 1_000_000] {
            let p = budget.per_process_ppm(n, &base);
            assert!(p <= last, "monotone in fleet size (n = {n})");
            assert!(p >= base.floor_ppm, "never below the floor (n = {n})");
            assert!(
                p <= budget.per_process_budget_ppm,
                "never above the budget (n = {n})"
            );
            last = p;
        }
        // Unclamped sizes actually meet the target.
        for n in [10, 100, 1_000] {
            let p = budget.per_process_ppm(n, &base);
            if p > base.floor_ppm && p < budget.per_process_budget_ppm.min(base.initial_ppm) {
                assert!(
                    SamplingBudget::achieved_ppm(p, n) >= budget.fleet_detection_target_ppm,
                    "fleet of {n} misses the detection target"
                );
            }
        }
        assert_eq!(
            budget.per_process_ppm(0, &base),
            budget.per_process_ppm(1, &base)
        );
    }

    #[test]
    fn plan_keeps_config_valid_and_priors_never_proven_safe() {
        let store = FleetStore::new();
        store.insert_record(&WalRecord::new(
            RecordKind::TrapSignature,
            1_000_000,
            "hot.c:7|main.c:1",
        ));
        store.insert_record(&WalRecord::new(
            RecordKind::CanaryEvidence,
            650_000,
            "warm.c:2|main.c:1",
        ));
        let budget = SamplingBudget::default();
        let mut config = CsodConfig::default();
        let plan = budget.plan(&store, 1_000, &config.sampling);
        assert_eq!(plan.seed_records.len(), 2);
        assert_eq!(plan.newly_mitigated, 2);
        assert!(plan.fleet_detection_ppm >= budget.fleet_detection_target_ppm);
        plan.apply(&mut config);
        assert!(config.sampling.initial_ppm < CsodConfig::default().sampling.initial_ppm);
        config.validate().expect("budgeted config stays valid");

        let frames = FrameTable::new();
        let priors = plan.priors(|sig| {
            sig.starts_with("hot")
                .then(|| ContextKey::new(frames.intern(sig), 0x40))
        });
        let key = ContextKey::new(frames.intern("hot.c:7|main.c:1"), 0x40);
        assert_eq!(priors.class_of(key), Some(RiskClass::Suspicious));
        assert_eq!(
            priors.classes.len(),
            1,
            "unresolvable signatures are skipped"
        );
        assert_eq!(priors.census(), (0, 1, 0), "(safe, suspicious, unknown)");
        for (_, class) in priors.classes.iter() {
            assert_ne!(*class, RiskClass::ProvenSafe);
        }
        // A second plan publishes nothing new.
        assert_eq!(
            budget.plan(&store, 1_000, &config.sampling).newly_mitigated,
            0
        );
    }

    #[test]
    fn seed_wal_round_trips_and_single_process_carries_full_budget() {
        let store = FleetStore::new();
        store.insert_record(&WalRecord::new(
            RecordKind::Mitigated,
            1_000_000,
            "m.c:1|main.c:1",
        ));
        let budget = SamplingBudget::default();
        let base = base();
        let plan = budget.plan(&store, 1, &base);
        assert_eq!(
            plan.initial_ppm,
            budget.per_process_budget_ppm.min(base.initial_ppm),
            "a lone process pays the whole ceiling"
        );
        let dir = std::env::temp_dir().join(format!("csod-fleet-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seed.wal");
        plan.seed_wal(&path).unwrap();
        let state = Wal::recover(&path);
        assert_eq!(state.records, plan.seed_records);
        assert_eq!(state.skipped_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
