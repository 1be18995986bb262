//! Streaming per-VM statistics.
//!
//! Each completed query yields a [`QueryObservation`]: the physical demand
//! the simulator actually served plus the buffer-pool hit counts the
//! "database" reported. [`VmStats`] inverts the linear working-set cache
//! model to recover the *allocation-independent* base components (cold
//! reads, logical re-accesses, working set), blends them into an EWMA
//! estimate, and feeds a [`PageHinkley`] detector with each observation's
//! whole-machine reference cost. The output is a [`WorkloadProfile`] the
//! controller can hand to the search, plus a drift signal telling it when
//! that profile stopped describing reality.

use crate::drift::{DriftConfig, PageHinkley};
use crate::profile::WorkloadProfile;
use dbvirt_vmm::{MachineSpec, ResourceDemand};

/// What the controller learns from one completed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueryObservation {
    /// Physical demand served (what the scheduler executed).
    pub demand: ResourceDemand,
    /// Sequential page requests absorbed by the buffer pool.
    pub seq_hits: f64,
    /// Random page requests absorbed by the buffer pool.
    pub random_hits: f64,
    /// Distinct pages the query touched (its working-set contribution).
    pub touched_pages: f64,
}

/// Inverted, allocation-independent components of one observation:
/// `[cpu, cold_seq, cold_random, writes, reread_seq, reread_random, ws]`.
type BaseComponents = [f64; 7];

/// Streaming estimator for one VM.
#[derive(Debug, Clone)]
pub(crate) struct VmStats {
    alpha: f64,
    machine: MachineSpec,
    detector: PageHinkley,
    est: Option<BaseComponents>,
    rate: Option<f64>,
    epoch_queries: u64,
    observations: u64,
    /// Whether the detector has fired since its last reset: the estimate
    /// is re-seeded only on the *first* firing of a detection window, so
    /// back-to-back firings inside one epoch blend instead of clobbering.
    fired_since_reset: bool,
    /// Sum of this epoch's inverted base components (for the epoch-mean
    /// snapshot the governor keys regimes on).
    epoch_base: BaseComponents,
    /// Consecutive epochs that ended with zero usable observations (the
    /// estimate is carried over, not decayed).
    staleness: usize,
    /// Largest staleness run seen over the VM's lifetime.
    max_staleness: usize,
    /// Total epochs closed with zero usable observations.
    stale_epochs: usize,
}

impl VmStats {
    /// Creates an estimator with EWMA factor `alpha` (weight of the newest
    /// observation) and the given drift-detector parameters.
    pub fn new(alpha: f64, machine: MachineSpec, drift: DriftConfig) -> VmStats {
        VmStats {
            alpha,
            machine,
            detector: PageHinkley::new(drift),
            est: None,
            rate: None,
            epoch_queries: 0,
            observations: 0,
            fired_since_reset: false,
            epoch_base: [0.0; 7],
            staleness: 0,
            max_staleness: 0,
            stale_epochs: 0,
        }
    }

    /// Total observations absorbed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The largest consecutive run of observation-free epochs seen.
    pub fn max_staleness(&self) -> usize {
        self.max_staleness
    }

    /// Total epochs closed with zero usable observations.
    pub(crate) fn stale_epochs(&self) -> usize {
        self.stale_epochs
    }

    /// Recovers base components from a physical observation taken under a
    /// pool of `pool_pages` pages. Returns `None` for degenerate input
    /// (non-finite or negative fields), which the caller should drop.
    fn invert(&self, obs: &QueryObservation, pool_pages: usize) -> Option<BaseComponents> {
        let ws = obs.touched_pages;
        if !(ws.is_finite()
            && ws >= 0.0
            && obs.seq_hits.is_finite()
            && obs.seq_hits >= 0.0
            && obs.random_hits.is_finite()
            && obs.random_hits >= 0.0
            && obs.demand.cpu_cycles.is_finite()
            && obs.demand.cpu_cycles >= 0.0)
        {
            return None;
        }
        let hit = if ws <= 0.0 {
            1.0
        } else {
            (pool_pages as f64 / ws).min(1.0)
        };
        let miss = 1.0 - hit;
        // hits = rereads * hit  =>  rereads = hits / hit. With a zero hit
        // fraction nothing is absorbed, so observed hits must be ~0 and the
        // re-access stream is unobservable this epoch: fall back to zero.
        let invert_stream = |hits: f64, physical: f64| -> (f64, f64) {
            if hit <= 0.0 {
                return (physical, 0.0);
            }
            let rereads = hits / hit;
            let cold = (physical - rereads * miss).max(0.0);
            (cold, rereads)
        };
        let (cold_seq, reread_seq) = invert_stream(obs.seq_hits, obs.demand.seq_page_reads as f64);
        let (cold_random, reread_random) =
            invert_stream(obs.random_hits, obs.demand.random_page_reads as f64);
        Some([
            obs.demand.cpu_cycles,
            cold_seq,
            cold_random,
            obs.demand.page_writes as f64,
            reread_seq,
            reread_random,
            ws,
        ])
    }

    /// Absorbs one completed-query observation made under a buffer pool of
    /// `pool_pages` pages. Returns `Ok(true)` when the drift detector
    /// fires, and `Err(())` when the observation was degenerate and
    /// dropped.
    pub(crate) fn observe(
        &mut self,
        obs: &QueryObservation,
        pool_pages: usize,
    ) -> Result<bool, ()> {
        let base = self.invert(obs, pool_pages).ok_or(())?;
        self.observations += 1;
        self.epoch_queries += 1;
        for (sum, b) in self.epoch_base.iter_mut().zip(base) {
            *sum += b;
        }
        match &mut self.est {
            None => self.est = Some(base),
            Some(est) => {
                for (e, b) in est.iter_mut().zip(base) {
                    *e += self.alpha * (b - *e);
                }
            }
        }
        // Reference cost of *this* observation's base components, priced on
        // the whole machine with re-accesses as misses: invariant under the
        // controller's own allocation moves.
        let reference = base[0] / self.machine.total_cycles_per_sec()
            + (base[1] + base[4] + base[3]) * self.machine.seq_page_seconds()
            + (base[2] + base[5]) * self.machine.random_page_seconds();
        let fired = self.detector.observe(reference.max(1e-12).ln());
        if fired && !self.fired_since_reset {
            // The observation that trips the detector already belongs to
            // the new regime: re-seed the estimate from it so the
            // controller's post-drift re-solve prices the new workload,
            // not an EWMA still dominated by the stale one. Only the
            // *first* firing of a detection window re-seeds; the detector
            // keeps firing until reset, and clobbering the estimate with
            // every subsequent observation would pin it to whichever
            // query happened to arrive last instead of blending.
            self.est = Some(base);
            self.fired_since_reset = true;
        }
        Ok(fired)
    }

    /// Closes a control epoch, folding the epoch's completed-query count
    /// into the arrival-rate estimate. Returns the epoch-mean observed
    /// profile (components averaged over this epoch's queries) when the
    /// epoch had any usable observations — the snapshot the switch
    /// governor keys workload regimes on — and `None` for an
    /// observation-free epoch, in which case the rate and component
    /// estimates are carried over unchanged (bounded-staleness carryover:
    /// a sensor dropout is not evidence the workload stopped).
    pub(crate) fn end_epoch(&mut self) -> Option<WorkloadProfile> {
        let n = self.epoch_queries as f64;
        self.epoch_queries = 0;
        if n <= 0.0 {
            self.staleness += 1;
            self.stale_epochs += 1;
            self.max_staleness = self.max_staleness.max(self.staleness);
            return None;
        }
        self.staleness = 0;
        match &mut self.rate {
            None => self.rate = Some(n),
            Some(r) => *r += self.alpha * (n - *r),
        }
        let mean = self.epoch_base.map(|sum| sum / n);
        self.epoch_base = [0.0; 7];
        Some(WorkloadProfile {
            cpu_cycles: mean[0],
            cold_seq_reads: mean[1],
            cold_random_reads: mean[2],
            page_writes: mean[3],
            reread_seq: mean[4],
            reread_random: mean[5],
            working_set_pages: mean[6],
            queries_per_epoch: n,
        })
    }

    /// The current profile estimate, once at least one observation and one
    /// epoch boundary have been absorbed.
    pub fn profile(&self) -> Option<WorkloadProfile> {
        let est = self.est?;
        let rate = self.rate?;
        if rate <= 0.0 {
            return None;
        }
        Some(WorkloadProfile {
            cpu_cycles: est[0],
            cold_seq_reads: est[1],
            cold_random_reads: est[2],
            page_writes: est[3],
            reread_seq: est[4],
            reread_random: est[5],
            working_set_pages: est[6],
            queries_per_epoch: rate,
        })
    }

    /// Resets the drift detector (after the controller acted on a
    /// detection, so one change is not reported twice).
    pub(crate) fn reset_detector(&mut self) {
        self.detector.reset();
        self.fired_since_reset = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::io_heavy;

    fn clean_observation(profile: &WorkloadProfile, pool_pages: usize) -> QueryObservation {
        let hit = profile.hit_fraction(pool_pages);
        QueryObservation {
            demand: profile.demand_at(pool_pages, 1.0),
            seq_hits: profile.reread_seq * hit,
            random_hits: profile.reread_random * hit,
            touched_pages: profile.working_set_pages,
        }
    }

    fn stats() -> VmStats {
        VmStats::new(0.25, MachineSpec::tiny(), crate::controller::DRIFT)
    }

    #[test]
    fn clean_observations_recover_the_generating_profile() {
        let truth = io_heavy();
        let mut s = stats();
        let pool = 1500usize;
        for _ in 0..32 {
            s.observe(&clean_observation(&truth, pool), pool).unwrap();
        }
        s.end_epoch();
        let est = s.profile().expect("profile after observations");
        // Demand counts are rounded to whole pages before observation, so
        // recovery is near-exact, not bit-exact.
        assert!((est.cpu_cycles - truth.cpu_cycles).abs() / truth.cpu_cycles < 1e-9);
        assert!((est.reread_seq - truth.reread_seq).abs() / truth.reread_seq < 0.01);
        assert!((est.cold_seq_reads - truth.cold_seq_reads).abs() < 2.0);
        assert!(
            (est.working_set_pages - truth.working_set_pages).abs() < 1e-9,
            "working set is observed directly"
        );
        assert_eq!(est.queries_per_epoch, 32.0);
    }

    #[test]
    fn recovery_is_pool_invariant() {
        // The whole point of the inversion: observations taken under
        // different pools estimate the same base profile.
        let truth = io_heavy();
        let mut small = stats();
        let mut large = stats();
        for _ in 0..16 {
            small.observe(&clean_observation(&truth, 800), 800).unwrap();
            large
                .observe(&clean_observation(&truth, 4000), 4000)
                .unwrap();
        }
        small.end_epoch();
        large.end_epoch();
        let (a, b) = (small.profile().unwrap(), large.profile().unwrap());
        assert!((a.reread_seq - b.reread_seq).abs() / truth.reread_seq < 0.02);
        assert!((a.cold_seq_reads - b.cold_seq_reads).abs() < 3.0);
    }

    #[test]
    fn a_profile_shift_fires_the_detector() {
        let a = io_heavy();
        let mut b = a;
        b.cpu_cycles *= 30.0;
        b.cold_seq_reads *= 8.0;
        let mut s = stats();
        let pool = 1500usize;
        for _ in 0..20 {
            assert_eq!(s.observe(&clean_observation(&a, pool), pool), Ok(false));
        }
        let mut fired = false;
        for _ in 0..30 {
            if s.observe(&clean_observation(&b, pool), pool).unwrap() {
                fired = true;
                break;
            }
        }
        assert!(fired, "an 8-30x demand shift must be detected");
    }

    #[test]
    fn allocation_changes_alone_do_not_fire_the_detector() {
        // Same workload, wildly different pools: the reference stream is
        // pool-invariant, so the detector must stay quiet.
        let truth = io_heavy();
        let mut s = stats();
        for i in 0..200 {
            let pool = if i % 2 == 0 { 400 } else { 5000 };
            let fired = s.observe(&clean_observation(&truth, pool), pool).unwrap();
            assert!(!fired, "false drift at observation {i}");
        }
    }

    #[test]
    fn back_to_back_firings_blend_instead_of_clobbering() {
        // Satellite: the detector keeps firing on every observation after
        // a regime change until the controller resets it. The estimate
        // must re-seed from the FIRST firing observation and then blend
        // normally — not be clobbered to whichever observation fired last.
        let a = io_heavy();
        let mut b = a;
        b.cpu_cycles *= 30.0;
        b.cold_seq_reads *= 8.0;
        let mut c = b;
        c.cpu_cycles *= 1.5; // a third, slightly different regime
        let pool = 1500usize;
        let mut s = stats();
        for _ in 0..20 {
            s.observe(&clean_observation(&a, pool), pool).unwrap();
        }
        let first = clean_observation(&b, pool);
        let mut fired = false;
        for _ in 0..30 {
            if s.observe(&first, pool).unwrap() {
                fired = true;
                break;
            }
        }
        assert!(fired, "regime shift must fire");
        let seeded = s.est.unwrap();
        assert_eq!(
            seeded[0], b.cpu_cycles,
            "first firing re-seeds the estimate"
        );
        let second = clean_observation(&c, pool);
        assert!(
            s.observe(&second, pool).unwrap(),
            "detector keeps firing until reset"
        );
        let blended = s.est.unwrap();
        // EWMA trajectory: seeded + alpha * (second_base - seeded), where
        // second_base's cpu component is c.cpu_cycles.
        let expected_cpu = seeded[0] + 0.25 * (c.cpu_cycles - seeded[0]);
        assert!(
            (blended[0] - expected_cpu).abs() / expected_cpu < 1e-12,
            "second firing must blend ({} != {expected_cpu})",
            blended[0]
        );
        assert!(
            (blended[0] - c.cpu_cycles).abs() / c.cpu_cycles > 0.1,
            "estimate must not be pinned to the last firing observation"
        );
        // After the controller acts and resets, the next firing re-seeds.
        s.reset_detector();
        assert!(!s.fired_since_reset);
    }

    #[test]
    fn observation_free_epochs_carry_the_estimate_over() {
        let truth = io_heavy();
        let pool = 1500usize;
        let mut s = stats();
        for _ in 0..8 {
            s.observe(&clean_observation(&truth, pool), pool).unwrap();
        }
        let snapshot = s.end_epoch().expect("populated epoch yields a snapshot");
        assert_eq!(snapshot.queries_per_epoch, 8.0);
        assert!((snapshot.cpu_cycles - truth.cpu_cycles).abs() / truth.cpu_cycles < 1e-9);
        let before = s.profile().unwrap();
        // Three dropout epochs: no observations at all.
        for _ in 0..3 {
            assert!(s.end_epoch().is_none());
        }
        let after = s.profile().unwrap();
        assert_eq!(before, after, "dropouts must not decay the estimate");
        assert_eq!(s.staleness, 3);
        assert_eq!(s.max_staleness(), 3);
        assert_eq!(s.stale_epochs(), 3);
        // A fresh observation clears the consecutive counter.
        s.observe(&clean_observation(&truth, pool), pool).unwrap();
        s.end_epoch().unwrap();
        assert_eq!(s.staleness, 0);
        assert_eq!(s.max_staleness(), 3);
        assert_eq!(s.stale_epochs(), 3);
    }

    #[test]
    fn extreme_shares_do_not_fire_the_detector() {
        // Allocation invariance at the limits: a 1-page pool (everything
        // misses) and an effectively infinite pool (everything hits) must
        // both invert to the same reference stream.
        let truth = io_heavy();
        let mut s = stats();
        for i in 0..200 {
            let pool = if i % 2 == 0 { 1 } else { 1_000_000 };
            let fired = s.observe(&clean_observation(&truth, pool), pool).unwrap();
            assert!(!fired, "false drift at extreme pools, observation {i}");
        }
    }

    #[test]
    fn degenerate_observations_are_dropped() {
        let mut s = stats();
        let mut obs = clean_observation(&io_heavy(), 1000);
        obs.seq_hits = f64::NAN;
        assert_eq!(s.observe(&obs, 1000), Err(()));
        let mut obs = clean_observation(&io_heavy(), 1000);
        obs.demand.cpu_cycles = f64::INFINITY;
        assert_eq!(s.observe(&obs, 1000), Err(()));
        assert_eq!(s.observations(), 0);
        assert!(s.profile().is_none());
    }
}
