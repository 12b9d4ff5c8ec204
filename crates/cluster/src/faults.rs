//! Deterministic, seeded fault injection for the relocation and
//! spill-cleanup protocols.
//!
//! A [`FaultPlan`] is built from a `u64` seed plus [`FaultConfig`]
//! rates. The coordinator loop and the engine handler — hence every
//! runtime — consult it at every protocol message edge and ask: what
//! happens to *this* message on *this* delivery attempt?
//! The answer — deliver, drop, duplicate, delay, corrupt the declared
//! length — is a **pure function** of `(seed, edge, round, attempt)`:
//! each decision seeds its own [`StdRng`] from a hash of that identity,
//! so the schedule cannot depend on thread interleaving, wall-clock
//! time, or the order in which the runtimes happen to consult the plan.
//! Same seed ⇒ same fault schedule, bit for bit, on every runtime.
//!
//! ## Fault-model boundary
//!
//! Only the *forward path* of the 8-step relocation protocol is
//! faultable: Cptv (step 1), Ptv (step 2), SendStates (step 3/4
//! trigger), InstallStates (step 5) and TransferAck (step 6). The
//! commit/abort notifications (step 7–8 Resume, AbortRound) plus data,
//! stats and cleanup traffic model a *reliable* channel — a commit
//! message retried without bound is indistinguishable from reliable
//! delivery, and faulting it would only re-test the same retry
//! machinery while making the exactly-once oracle unverifiable. Engine
//! failure is modelled separately: [`FaultPlan::crash_during_install`]
//! kills the receiving engine after state is shipped but before the
//! ack (the paper's worst case — state is in flight on a dead node),
//! and [`FaultPlan::stall_ms`] freezes an engine mid-relocation or
//! mid-spill-cleanup for a bounded virtual duration.

use dcape_metrics::journal::Fault;
pub use dcape_metrics::journal::FaultEdge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hash domain separating an edge's decision stream from every other
/// edge's.
fn domain(edge: FaultEdge) -> u64 {
    match edge {
        FaultEdge::Cptv => 0x01,
        FaultEdge::Ptv => 0x02,
        FaultEdge::SendStates => 0x03,
        FaultEdge::InstallStates => 0x04,
        FaultEdge::TransferAck => 0x05,
        FaultEdge::CleanupSegments => 0x06,
    }
}

/// What the plan decided for one message delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// The message is lost in transit.
    Drop,
    /// The message arrives twice (retransmit storm / dup in the fabric).
    Duplicate,
    /// The message arrives late, after the given extra virtual
    /// milliseconds — late enough messages reorder behind newer ones.
    Delay(u64),
    /// The message arrives with a corrupted declared byte length; the
    /// receiver detects the mismatch and discards it like a drop.
    CorruptLength,
}

impl FaultDecision {
    /// The injected fault, for the journal (`Deliver` is none).
    pub fn fault(self) -> Option<Fault> {
        match self {
            FaultDecision::Deliver => None,
            FaultDecision::Drop => Some(Fault::Drop),
            FaultDecision::Duplicate => Some(Fault::Duplicate),
            FaultDecision::Delay(_) => Some(Fault::Delay),
            FaultDecision::CorruptLength => Some(Fault::CorruptLength),
        }
    }
}

/// Per-edge fault rates, each in `[0, 1]`. At most one fault fires per
/// `(edge, round, attempt)` — the rates partition a single uniform
/// draw, so `drop + duplicate + delay + corrupt` must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is dropped.
    pub drop_rate: f64,
    /// Probability a message is duplicated.
    pub duplicate_rate: f64,
    /// Probability a message is delayed (possibly reordering it).
    pub delay_rate: f64,
    /// Probability a transfer's declared length is corrupted.
    pub corrupt_rate: f64,
    /// Probability the receiving engine crash-restarts mid-install
    /// (state shipped, ack never sent).
    pub crash_rate: f64,
    /// Probability an engine stalls at a stall-capable edge.
    pub stall_rate: f64,
    /// Upper bound (inclusive) on injected delay/stall, virtual ms.
    pub max_delay_ms: u64,
}

impl FaultConfig {
    /// All-zero rates: every decision is `Deliver`, nothing crashes.
    pub fn none() -> Self {
        FaultConfig {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
            stall_rate: 0.0,
            max_delay_ms: 0,
        }
    }

    /// The single-knob config behind `repro --fault-rate R`: message
    /// faults share `rate` equally across drop/duplicate/delay/corrupt,
    /// engines crash at a quarter of it and stall at half of it.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be in [0, 1], got {rate}"
        );
        FaultConfig {
            drop_rate: rate / 4.0,
            duplicate_rate: rate / 4.0,
            delay_rate: rate / 4.0,
            corrupt_rate: rate / 4.0,
            crash_rate: rate / 4.0,
            stall_rate: rate / 2.0,
            max_delay_ms: 500,
        }
    }

    fn message_rate_sum(&self) -> f64 {
        self.drop_rate + self.duplicate_rate + self.delay_rate + self.corrupt_rate
    }

    /// True if any rate can ever fire a fault.
    pub fn is_active(&self) -> bool {
        self.message_rate_sum() > 0.0 || self.crash_rate > 0.0 || self.stall_rate > 0.0
    }

    /// True if a fault can lose, hold back or repeat a message, or wipe
    /// an install: what a coordinator times a round's phases out for. A
    /// stall only makes an engine's message late — a later clock pulse
    /// sends it — so a plan that only stalls needs no timeout.
    pub fn needs_patience(&self) -> bool {
        self.message_rate_sum() > 0.0 || self.crash_rate > 0.0
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Collapse `(seed, domain, round, attempt)` into one well-mixed RNG
/// seed. Chained SplitMix64 finalizers with golden-ratio injection per
/// field: flipping any input bit flips ~half the output bits, so
/// adjacent rounds/attempts land in unrelated decision streams.
fn edge_key(seed: u64, domain: u64, round: u64, attempt: u32) -> u64 {
    let mut h = mix(seed ^ domain.wrapping_mul(GOLDEN));
    h = mix(h ^ round.wrapping_mul(GOLDEN));
    mix(h ^ (attempt as u64).wrapping_mul(GOLDEN))
}

/// The seeded fault schedule. Cheap to clone (plain `Copy` data); both
/// runtimes and every engine thread can hold one and will agree on
/// every decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Build the schedule for `seed` with the given rates.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        assert!(
            cfg.message_rate_sum() <= 1.0 + 1e-9,
            "message fault rates must sum to at most 1"
        );
        FaultPlan { seed, cfg }
    }

    /// A plan that never injects anything (the default for both
    /// runtimes; every consultation short-circuits to `Deliver`).
    pub fn disabled() -> Self {
        FaultPlan::new(0, FaultConfig::none())
    }

    /// The seed this schedule was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// See [`FaultConfig::needs_patience`].
    pub fn needs_patience(&self) -> bool {
        self.cfg.needs_patience()
    }

    /// What happens to the message on `edge` for relocation `round`,
    /// delivery `attempt` (first send is attempt 0; each retry bumps
    /// it, so a retried message gets a fresh decision and a round
    /// cannot be doomed forever).
    pub fn decide(&self, edge: FaultEdge, round: u64, attempt: u32) -> FaultDecision {
        if !self.is_active() {
            return FaultDecision::Deliver;
        }
        let mut rng = StdRng::seed_from_u64(edge_key(self.seed, domain(edge), round, attempt));
        let x: f64 = rng.gen();
        let mut bound = self.cfg.drop_rate;
        if x < bound {
            return FaultDecision::Drop;
        }
        bound += self.cfg.duplicate_rate;
        if x < bound {
            return FaultDecision::Duplicate;
        }
        bound += self.cfg.delay_rate;
        if x < bound {
            let ms = if self.cfg.max_delay_ms == 0 {
                0
            } else {
                rng.gen_range(1..self.cfg.max_delay_ms + 1)
            };
            return FaultDecision::Delay(ms);
        }
        bound += self.cfg.corrupt_rate;
        if x < bound {
            return FaultDecision::CorruptLength;
        }
        FaultDecision::Deliver
    }

    /// Whether the *receiving* engine crash-restarts mid-install on
    /// this `(round, attempt)`: state was shipped and installed, the
    /// restart wipes the uncommitted installation, and the ack is never
    /// sent. Keyed by attempt so a retried transfer can succeed.
    pub fn crash_during_install(&self, round: u64, attempt: u32) -> bool {
        if self.cfg.crash_rate <= 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(edge_key(self.seed, 0x10, round, attempt));
        rng.gen_bool(self.cfg.crash_rate)
    }

    /// Extra virtual milliseconds the engine freezes at a stall-capable
    /// edge (0 = no stall). Used mid-relocation (install processing)
    /// and mid-spill-cleanup (segment merging).
    pub fn stall_ms(&self, edge: FaultEdge, round: u64, attempt: u32) -> u64 {
        if self.cfg.stall_rate <= 0.0 || self.cfg.max_delay_ms == 0 {
            return 0;
        }
        let mut rng =
            StdRng::seed_from_u64(edge_key(self.seed, 0x20 ^ domain(edge), round, attempt));
        if rng.gen_bool(self.cfg.stall_rate) {
            rng.gen_range(1..self.cfg.max_delay_ms + 1)
        } else {
            0
        }
    }

    /// Corrupt a declared transfer length the way the fabric would:
    /// deterministically, as a function of the true length.
    pub fn corrupt_length(true_bytes: u64) -> u64 {
        true_bytes ^ 0xBAD0_BAD0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [FaultEdge; 6] = [
        FaultEdge::Cptv,
        FaultEdge::Ptv,
        FaultEdge::SendStates,
        FaultEdge::InstallStates,
        FaultEdge::TransferAck,
        FaultEdge::CleanupSegments,
    ];

    fn schedule(plan: &FaultPlan) -> Vec<FaultDecision> {
        let mut out = Vec::new();
        for edge in EDGES {
            for round in 0..32u64 {
                for attempt in 0..4u32 {
                    out.push(plan.decide(edge, round, attempt));
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule_bit_for_bit() {
        let cfg = FaultConfig::uniform(0.3);
        let a = FaultPlan::new(42, cfg);
        let b = FaultPlan::new(42, cfg);
        assert_eq!(schedule(&a), schedule(&b));
        for round in 0..32 {
            for attempt in 0..4 {
                assert_eq!(
                    a.crash_during_install(round, attempt),
                    b.crash_during_install(round, attempt)
                );
                assert_eq!(
                    a.stall_ms(FaultEdge::CleanupSegments, round, attempt),
                    b.stall_ms(FaultEdge::CleanupSegments, round, attempt)
                );
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let plan = FaultPlan::new(7, FaultConfig::uniform(0.5));
        // Consultation order must not matter: interleave two orders.
        let forward = schedule(&plan);
        let mut reversed = Vec::new();
        for edge in EDGES.iter().rev() {
            for round in (0..32u64).rev() {
                for attempt in (0..4u32).rev() {
                    reversed.push(plan.decide(*edge, round, attempt));
                }
            }
        }
        reversed.reverse();
        // Rebuild forward order from the reversed walk.
        let mut rebuilt = vec![FaultDecision::Deliver; forward.len()];
        let mut i = 0;
        for (e_i, _) in EDGES.iter().enumerate() {
            for round in 0..32usize {
                for attempt in 0..4usize {
                    let fwd_idx = e_i * 32 * 4 + round * 4 + attempt;
                    rebuilt[fwd_idx] = reversed[i];
                    i += 1;
                }
            }
        }
        assert_eq!(forward, rebuilt);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::uniform(0.4);
        let a = schedule(&FaultPlan::new(1, cfg));
        let b = schedule(&FaultPlan::new(2, cfg));
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_plan_never_faults() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        for d in schedule(&plan) {
            assert_eq!(d, FaultDecision::Deliver);
        }
        for round in 0..64 {
            assert!(!plan.crash_during_install(round, 0));
            assert_eq!(plan.stall_ms(FaultEdge::InstallStates, round, 0), 0);
        }
    }

    #[test]
    fn rates_partition_a_single_draw() {
        // drop_rate = 1 ⇒ everything drops; no other fault can fire.
        let all_drop = FaultPlan::new(
            9,
            FaultConfig {
                drop_rate: 1.0,
                ..FaultConfig::none()
            },
        );
        for d in schedule(&all_drop) {
            assert_eq!(d, FaultDecision::Drop);
        }
        // Sum > 1 is rejected.
        let bad = FaultConfig {
            drop_rate: 0.6,
            duplicate_rate: 0.6,
            ..FaultConfig::none()
        };
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, bad)).is_err());
    }

    #[test]
    fn observed_fault_fraction_tracks_rate() {
        let plan = FaultPlan::new(11, FaultConfig::uniform(0.4));
        let decisions = schedule(&plan);
        let faults = decisions.iter().filter(|d| d.fault().is_some()).count();
        let frac = faults as f64 / decisions.len() as f64;
        assert!(
            (0.25..0.55).contains(&frac),
            "expected ~0.4 fault fraction, got {frac}"
        );
    }

    #[test]
    fn delay_bounded_and_nonzero() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                delay_rate: 1.0,
                max_delay_ms: 250,
                ..FaultConfig::none()
            },
        );
        for d in schedule(&plan) {
            match d {
                FaultDecision::Delay(ms) => assert!((1..=250).contains(&ms)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn retried_attempts_get_fresh_decisions() {
        // With a 50% drop rate, some (edge, round) must see attempt 0
        // dropped but a later attempt delivered — the keying by attempt
        // is what keeps a doomed round from staying doomed.
        let plan = FaultPlan::new(
            5,
            FaultConfig {
                drop_rate: 0.5,
                ..FaultConfig::none()
            },
        );
        let mut recovered = false;
        for round in 0..64u64 {
            if plan.decide(FaultEdge::InstallStates, round, 0) == FaultDecision::Drop {
                recovered |= (1..4u32).any(|a| {
                    plan.decide(FaultEdge::InstallStates, round, a) == FaultDecision::Deliver
                });
            }
        }
        assert!(recovered, "no dropped message ever recovered on retry");
    }

    #[test]
    fn corrupt_length_is_detectable_and_reversible() {
        for bytes in [0u64, 1, 4096, u64::MAX] {
            let bad = FaultPlan::corrupt_length(bytes);
            assert_ne!(bad, bytes);
            assert_eq!(FaultPlan::corrupt_length(bad), bytes);
        }
    }
}
