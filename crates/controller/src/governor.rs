//! Switch-frequency governor: phase-recurrence learning.
//!
//! The drift-gated controller reacts to workload change after the fact:
//! the Page–Hinkley detector needs several observations of the new regime
//! before it fires, and the cooldown defers the re-solve further, so a
//! fast-alternating (adversarial) workload spends most of every phase
//! under the *previous* phase's allocation — and worse, each reactive
//! switch lands exactly when the phase is about to flip again.
//!
//! The governor closes that gap by learning the workload's recurrence
//! structure from the stream of quantized per-epoch profile keys:
//!
//! * each distinct key vector is a **regime**; the governor tracks an EWMA
//!   of how many epochs each regime stays before flipping (its
//!   *residence*) and which regime follows it (its *successor*);
//! * a regime is **trusted** once it has completed at least
//!   [`TRUST_CLOSINGS`] full stays — until a stay closes, the regime's
//!   period has never been measured and no prediction is possible. One
//!   measured stay is enough to *act* because every prediction is
//!   verified an epoch later: a confirmed hit saves a re-solve, a miss
//!   forces a corrective one, so a wrong early trust costs one bounded
//!   mistake rather than compounding;
//! * for a trusted regime, [`SwitchGovernor::governed_horizon`] shrinks
//!   the switch-cost amortization horizon to the epochs the regime is
//!   still expected to last. At the predicted boundary the horizon
//!   reaches zero and the benefit gate can no longer pass: the governor
//!   *refuses* re-solved switches that would take effect just as their
//!   justifying regime ends;
//! * instead, [`SwitchGovernor::predicted_switch`] fires one epoch
//!   *before* a predicted flip between two trusted regimes, offering both
//!   regimes' *snapshot profiles* so the controller can solve for the
//!   whole alternation cycle at once (pricing candidates under the sum of
//!   the two regime-pure models) and provision before the flip arrives.
//!   Snapshots are per-epoch means, so they stay regime-pure even when
//!   the controller's slow EWMA estimate has blended several phases
//!   together — which is exactly the failure mode of fast alternation: a
//!   decision solved against the blend barely differs from the incumbent,
//!   and no gate would ever pass. The pair pricing matters for the same
//!   reason: an allocation solved for one phase alone lands exactly when
//!   that phase is about to hand back to the other, so the only switch
//!   worth pre-paying for is one that serves *both* sides of the
//!   boundary. The pre-switch is offered only inside fast alternation —
//!   both residences shorter than the configured amortization horizon;
//!   longer phases give the ordinary drift loop room to pay for reactive
//!   switches, and governing them would change behaviour the reactive
//!   path already handles well. It still pays the normal reconfiguration
//!   charge and must clear the same benefit gate, with the horizon capped
//!   at one alternation cycle and the remaining stream length — at the
//!   end of the stream there is nothing left to amortize against and the
//!   governor refuses to pre-switch at all.
//!
//! Workloads without recurrence (stationary, a one-shot drift whose new
//! regime never completes a stay) never produce a trusted *current*
//! regime, and the governor is entirely inert for them: the controller
//! behaves bit-identically to a governor-free build.

use crate::profile::{ProfileKey, WorkloadProfile};
use std::collections::BTreeMap;

/// Completed stays before a regime's residence estimate is trusted. One
/// is enough: a prediction is verified the very next epoch (hit or miss),
/// so acting on a single measured period risks one bounded mistake while
/// waiting for a second costs a full unprovisioned phase.
pub(crate) const TRUST_CLOSINGS: usize = 1;

/// EWMA factor for residence updates (weight of the newest stay).
const RESIDENCE_ALPHA: f64 = 0.5;

/// What the governor learned about one regime.
#[derive(Debug, Clone)]
struct Regime {
    /// EWMA of completed residences, in epochs.
    residence: f64,
    /// Completed stays folded into `residence`.
    closings: usize,
    /// The regime observed immediately after this one, last time.
    successor: Option<Vec<ProfileKey>>,
    /// The most recent per-epoch mean profiles observed under this regime
    /// — regime-pure (unlike the controller's blended EWMA estimate), so
    /// a pre-switch can solve for what this regime *actually* wants.
    snapshot: Option<Vec<WorkloadProfile>>,
}

impl Regime {
    fn new() -> Regime {
        Regime {
            residence: 0.0,
            closings: 0,
            successor: None,
            snapshot: None,
        }
    }

    fn trusted(&self) -> bool {
        self.closings >= TRUST_CLOSINGS
    }

    /// Residence rounded to whole epochs, at least one.
    fn residence_epochs(&self) -> usize {
        (self.residence.round() as usize).max(1)
    }
}

/// Outcome of absorbing one epoch's regime key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct EpochVerdict {
    /// A pre-switch prediction was pending and the epoch's regime matched:
    /// the drift the detector is about to report is an anticipated
    /// recurrence the controller has already provisioned for, so the
    /// re-solve may be skipped.
    pub prediction_hit: bool,
    /// A pre-switch prediction was pending and the epoch's regime did
    /// *not* match: the controller holds a speculatively applied
    /// allocation with no justification and should re-solve even if the
    /// drift detector stays quiet.
    pub prediction_missed: bool,
}

/// A recommended anticipatory switch (see [`SwitchGovernor::predicted_switch`]).
#[derive(Debug, Clone)]
pub(crate) struct PredictedSwitch {
    /// The successor regime's key (to confirm or refute next epoch).
    pub key: Vec<ProfileKey>,
    /// The outgoing (current) regime's snapshot profiles.
    pub outgoing_profiles: Vec<WorkloadProfile>,
    /// The incoming (successor) regime's snapshot profiles.
    pub incoming_profiles: Vec<WorkloadProfile>,
    /// Epochs the benefit may be amortized over: one full alternation
    /// cycle (successor residence plus current residence), capped by the
    /// remaining stream length.
    pub horizon_epochs: f64,
}

/// Streaming phase-recurrence learner and switch governor.
#[derive(Debug, Clone)]
pub(crate) struct SwitchGovernor {
    regimes: BTreeMap<Vec<ProfileKey>, Regime>,
    /// Current regime key and the epoch it was entered.
    current: Option<(Vec<ProfileKey>, usize)>,
    /// Successor key predicted by an applied pre-switch, awaiting the next
    /// epoch's confirmation.
    pending: Option<Vec<ProfileKey>>,
    prediction_hits: usize,
    prediction_misses: usize,
}

impl SwitchGovernor {
    /// Creates an empty governor.
    pub fn new() -> SwitchGovernor {
        SwitchGovernor {
            regimes: BTreeMap::new(),
            current: None,
            pending: None,
            prediction_hits: 0,
            prediction_misses: 0,
        }
    }

    /// Confirmed pre-switch predictions.
    pub fn prediction_hits(&self) -> usize {
        self.prediction_hits
    }

    /// Refuted pre-switch predictions.
    pub fn prediction_misses(&self) -> usize {
        self.prediction_misses
    }

    /// Absorbs one epoch's quantized regime key and the per-epoch mean
    /// profiles it was derived from. `None` means the epoch produced no
    /// usable snapshot (sensor dropout): the current regime stays open —
    /// missing data is not evidence of change — and any pending
    /// prediction is dropped unconfirmed.
    pub(crate) fn observe_epoch(
        &mut self,
        epoch: usize,
        snapshot: Option<(Vec<ProfileKey>, Vec<WorkloadProfile>)>,
    ) -> EpochVerdict {
        let mut verdict = EpochVerdict::default();
        let Some((key, profiles)) = snapshot else {
            self.pending = None;
            return verdict;
        };
        if let Some(predicted) = self.pending.take() {
            if predicted == key {
                verdict.prediction_hit = true;
                self.prediction_hits += 1;
            } else {
                verdict.prediction_missed = true;
                self.prediction_misses += 1;
            }
        }
        match &self.current {
            None => self.current = Some((key.clone(), epoch)),
            Some((cur, _)) if *cur == key => {}
            Some((cur, entry)) => {
                let stay = (epoch - entry) as f64;
                let regime = self.regimes.entry(cur.clone()).or_insert_with(Regime::new);
                if regime.closings == 0 {
                    regime.residence = stay;
                } else {
                    regime.residence += RESIDENCE_ALPHA * (stay - regime.residence);
                }
                regime.closings += 1;
                regime.successor = Some(key.clone());
                self.current = Some((key.clone(), epoch));
            }
        }
        self.regimes.entry(key).or_insert_with(Regime::new).snapshot = Some(profiles);
        verdict
    }

    /// The switch-cost amortization horizon for a decision taken at the
    /// end of `epoch` (in force from `epoch + 1`). For untrusted regimes
    /// this is the configured horizon unchanged. For a trusted regime it
    /// is capped at the epochs the regime is still expected to last — zero
    /// exactly at the predicted boundary, which makes the benefit gate
    /// unpassable and vetoes the switch. A regime that *overstays* its
    /// predicted residence has already broken its own pattern, so the
    /// governor falls back to the configured horizon rather than vetoing
    /// adaptation indefinitely.
    pub(crate) fn governed_horizon(&self, epoch: usize, config_horizon: usize) -> f64 {
        let full = config_horizon as f64;
        let Some((cur, entry)) = &self.current else {
            return full;
        };
        let Some(regime) = self.regimes.get(cur) else {
            return full;
        };
        if !regime.trusted() {
            return full;
        }
        let predicted_flip = entry + regime.residence_epochs();
        let in_force_from = epoch + 1;
        if in_force_from > predicted_flip {
            return full;
        }
        full.min((predicted_flip - in_force_from) as f64)
    }

    /// When the next epoch is the current (trusted) regime's predicted
    /// flip and its successor is itself trusted with a stored snapshot,
    /// proposes provisioning for the alternation now — so the new phase
    /// starts under an allocation priced for both sides of the boundary
    /// instead of the old one. Offered only inside *fast* alternation
    /// (both residences shorter than `config_horizon`): longer phases
    /// leave the reactive drift loop enough epochs to amortize its own
    /// switches, and governing them would perturb behaviour the reactive
    /// path already handles. Returns `None` when nothing trustworthy is
    /// predicted, or when the stream ends before any benefit could be
    /// realized.
    pub(crate) fn predicted_switch(
        &self,
        epoch: usize,
        total_epochs: usize,
        config_horizon: usize,
    ) -> Option<PredictedSwitch> {
        let (cur, entry) = self.current.as_ref()?;
        let regime = self.regimes.get(cur)?;
        if !regime.trusted() || regime.residence_epochs() >= config_horizon {
            return None;
        }
        if entry + regime.residence_epochs() != epoch + 1 {
            return None;
        }
        let outgoing = regime.snapshot.as_ref()?;
        let succ_key = regime.successor.as_ref()?;
        let succ = self.regimes.get(succ_key)?;
        if !succ.trusted() || succ.residence_epochs() >= config_horizon {
            return None;
        }
        let incoming = succ.snapshot.as_ref()?;
        let remaining = total_epochs.checked_sub(epoch + 1)?;
        if remaining == 0 {
            return None;
        }
        let cycle = succ.residence_epochs() + regime.residence_epochs();
        Some(PredictedSwitch {
            key: succ_key.clone(),
            outgoing_profiles: outgoing.clone(),
            incoming_profiles: incoming.clone(),
            horizon_epochs: cycle.min(remaining) as f64,
        })
    }

    /// Marks a pre-switch as applied: the successor prediction is now
    /// pending and the next epoch's key confirms or refutes it.
    pub(crate) fn note_preswitch(&mut self, predicted: Vec<ProfileKey>) {
        self.pending = Some(predicted);
    }
}

impl Default for SwitchGovernor {
    fn default() -> SwitchGovernor {
        SwitchGovernor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regimes whose residence estimate is currently trusted.
    fn trusted_regimes(g: &SwitchGovernor) -> usize {
        g.regimes.values().filter(|r| r.trusted()).count()
    }

    fn key(tag: i64) -> Vec<ProfileKey> {
        vec![ProfileKey([tag; 8]), ProfileKey([-tag; 8])]
    }

    fn profiles(tag: i64) -> Vec<WorkloadProfile> {
        let p = WorkloadProfile {
            cpu_cycles: 1.0e9 * tag as f64,
            cold_seq_reads: 10.0,
            cold_random_reads: 5.0,
            page_writes: 1.0,
            reread_seq: 100.0,
            reread_random: 50.0,
            working_set_pages: 1000.0,
            queries_per_epoch: 4.0,
        };
        vec![p, p]
    }

    fn snap(tag: i64) -> Option<(Vec<ProfileKey>, Vec<WorkloadProfile>)> {
        Some((key(tag), profiles(tag)))
    }

    /// Drives an alternating A(period) / B(period) snapshot stream
    /// through the governor.
    fn drive(g: &mut SwitchGovernor, epochs: usize, period: usize) {
        for epoch in 0..epochs {
            let phase = (epoch / period) % 2;
            g.observe_epoch(epoch, snap(if phase == 0 { 1 } else { 2 }));
        }
    }

    #[test]
    fn a_single_regime_never_becomes_trusted() {
        let mut g = SwitchGovernor::new();
        for epoch in 0..100 {
            g.observe_epoch(epoch, snap(1));
        }
        assert_eq!(trusted_regimes(&g), 0);
        assert_eq!(g.governed_horizon(100, 8), 8.0);
        assert!(g.predicted_switch(100, 200, 8).is_none());
    }

    #[test]
    fn a_one_shot_drift_leaves_the_governor_inert() {
        // A -> B once: A's single closing makes *A* trusted, but the
        // regime now in force (B) never completes a stay, so the governed
        // horizon stays full and nothing is predicted — the drifting
        // scenario's guarantee.
        let mut g = SwitchGovernor::new();
        for epoch in 0..12 {
            g.observe_epoch(epoch, snap(1));
        }
        for epoch in 12..24 {
            g.observe_epoch(epoch, snap(2));
        }
        assert_eq!(trusted_regimes(&g), 1);
        assert_eq!(g.governed_horizon(23, 8), 8.0);
        assert!(g.predicted_switch(23, 48, 8).is_none());
    }

    #[test]
    fn one_full_cycle_is_enough_to_predict_the_second() {
        // A(0-1) B(2-3) A(4-5): both regimes close once, which is all the
        // trust a verified-next-epoch prediction needs.
        let mut g = SwitchGovernor::new();
        drive(&mut g, 6, 2);
        assert_eq!(trusted_regimes(&g), 2);
        let p = g.predicted_switch(5, 16, 8).expect("first recurrence");
        assert_eq!(p.key, key(2));
        // One epoch earlier A's stay is not over yet.
        assert!(g.predicted_switch(4, 16, 8).is_none());
    }

    #[test]
    fn slow_alternation_is_left_to_the_reactive_loop() {
        // Period 8 with an 8-epoch amortization horizon: the reactive
        // drift path can pay for its own switches, so the governor must
        // not pre-empt it. A longer config horizon re-enables prediction.
        let mut g = SwitchGovernor::new();
        drive(&mut g, 40, 8);
        assert_eq!(trusted_regimes(&g), 2);
        assert!(g.predicted_switch(39, 64, 8).is_none());
        assert!(g.predicted_switch(39, 64, 9).is_some());
    }

    #[test]
    fn alternation_learns_residence_and_predicts_the_flip() {
        let mut g = SwitchGovernor::new();
        // A(0-1) B(2-3) A(4-5) B(6-7) A(8-9): A closes at 2 and 6, B at 4
        // and 8 — both trusted with residence 2 from epoch 8 on.
        drive(&mut g, 10, 2);
        assert_eq!(trusted_regimes(&g), 2);
        // Decision at the end of epoch 9 would take force at 10 — exactly
        // the predicted flip: horizon 0, switch vetoed.
        assert_eq!(g.governed_horizon(9, 8), 0.0);
        // Mid-regime (end of epoch 8, in force from 9): one epoch left.
        assert_eq!(g.governed_horizon(8, 8), 1.0);
        // And the pre-switch offers both sides of the boundary for epoch
        // 10, amortized over one full alternation cycle.
        let p = g
            .predicted_switch(9, 16, 8)
            .expect("flip must be predicted");
        assert_eq!(p.key, key(2));
        assert_eq!(p.outgoing_profiles, profiles(1));
        assert_eq!(p.incoming_profiles, profiles(2));
        assert_eq!(p.horizon_epochs, 4.0);
        // One epoch earlier there is nothing to predict.
        assert!(g.predicted_switch(8, 16, 8).is_none());
    }

    #[test]
    fn the_stream_tail_refuses_pre_switching() {
        let mut g = SwitchGovernor::new();
        drive(&mut g, 10, 2);
        // Predicted flip at 10, but the stream ends at 10: nothing left to
        // amortize against.
        assert!(g.predicted_switch(9, 10, 8).is_none());
        // With one epoch left the horizon is capped to it.
        let p = g.predicted_switch(9, 11, 8).unwrap();
        assert_eq!(p.horizon_epochs, 1.0);
    }

    #[test]
    fn predictions_are_confirmed_or_refuted_by_the_next_key() {
        let mut g = SwitchGovernor::new();
        drive(&mut g, 10, 2);
        g.note_preswitch(key(2));
        let v = g.observe_epoch(10, snap(2));
        assert!(v.prediction_hit && !v.prediction_missed);
        assert_eq!(g.prediction_hits(), 1);

        g.note_preswitch(key(1));
        let v = g.observe_epoch(11, snap(3));
        assert!(v.prediction_missed && !v.prediction_hit);
        assert_eq!(g.prediction_misses(), 1);
    }

    #[test]
    fn dropout_epochs_leave_the_regime_open_and_drop_pending_predictions() {
        let mut g = SwitchGovernor::new();
        drive(&mut g, 10, 2);
        g.note_preswitch(key(1));
        let v = g.observe_epoch(10, None);
        assert_eq!(v, EpochVerdict::default());
        assert_eq!(g.prediction_hits() + g.prediction_misses(), 0);
        // The regime entered at epoch 8 is still current; a later flip
        // measures residence across the gap.
        g.observe_epoch(11, snap(2));
        // No panic, still trusted; pending was consumed without counting.
        assert_eq!(trusted_regimes(&g), 2);
    }

    #[test]
    fn an_overstaying_regime_falls_back_to_the_full_horizon() {
        let mut g = SwitchGovernor::new();
        drive(&mut g, 10, 2);
        // Regime A re-entered at 8 with trusted residence 2 is still
        // current at epoch 14: the pattern broke, so the governor must not
        // keep vetoing forever.
        for epoch in 10..15 {
            g.observe_epoch(epoch, snap(1));
        }
        assert_eq!(g.governed_horizon(14, 8), 8.0);
    }

    #[test]
    fn residence_tracks_a_changing_period() {
        let mut g = SwitchGovernor::new();
        // Two stays of 2, then stays of 4: EWMA moves toward 4.
        drive(&mut g, 8, 2);
        for epoch in 8..24 {
            let phase = ((epoch - 8) / 4) % 2;
            g.observe_epoch(epoch, snap(if phase == 0 { 1 } else { 2 }));
        }
        let a = g.regimes.get(&key(1)).unwrap();
        assert!(a.residence > 2.0 && a.residence <= 4.0);
    }
}
