//! Virtual-time network cost model.
//!
//! The paper's relocations cross a private gigabit ethernet and are
//! observed to be cheap (§4.2: "the cost of our pair-wised state
//! relocation is low in the context of our test environment … expected
//! to be higher if the underlying network is slow"). The simulated
//! driver charges relocation transfers through this model, so the
//! slow-network regime is a config change, not a code change.

use dcape_common::time::VirtualDuration;

/// Point-to-point transfer cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in virtual milliseconds.
    pub latency_ms: u64,
    /// Throughput in bytes per virtual millisecond.
    pub bytes_per_ms: u64,
}

impl NetworkModel {
    /// Gigabit ethernet (the paper's cluster): ~0.1 ms latency,
    /// ~125 MB/s ⇒ 125 000 bytes/ms. Latency rounds up to 1 ms on our
    /// millisecond clock.
    pub fn gigabit() -> Self {
        NetworkModel {
            latency_ms: 1,
            bytes_per_ms: 125_000,
        }
    }

    /// A slow, high-latency network (WAN-ish) for the sensitivity
    /// ablation.
    pub fn slow_wan() -> Self {
        NetworkModel {
            latency_ms: 50,
            bytes_per_ms: 1_250,
        }
    }

    /// A free network (isolates algorithmic effects).
    pub fn free() -> Self {
        NetworkModel {
            latency_ms: 0,
            bytes_per_ms: u64::MAX,
        }
    }

    /// Virtual time to move `bytes` in one transfer.
    pub fn transfer_cost(&self, bytes: u64) -> VirtualDuration {
        let transfer = if self.bytes_per_ms == u64::MAX {
            0
        } else {
            bytes.div_ceil(self.bytes_per_ms.max(1))
        };
        VirtualDuration::from_millis(self.latency_ms + transfer)
    }

    /// End-to-end cost of one relocation round moving `bytes`: the
    /// state transfer plus a control message for **every**
    /// message-bearing protocol step — Cptv (1), Ptv (2), SendStates
    /// (3/4), TransferAck (6) and Resume (7/8). Charging all of them
    /// uniformly keeps the sim and threaded horizons in agreement under
    /// high latency; charging only step 1 (the old behaviour) made
    /// `slow_wan` rounds look 4 control-latencies cheaper in the sim
    /// than on the wire.
    pub fn relocation_round_cost(&self, bytes: u64) -> VirtualDuration {
        const CONTROL_STEPS: u64 = 5;
        VirtualDuration::from_millis(
            self.transfer_cost(bytes).as_millis() + CONTROL_STEPS * self.latency_ms,
        )
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::gigabit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_moves_60mb_in_about_half_a_second() {
        let n = NetworkModel::gigabit();
        let cost = n.transfer_cost(60_000_000);
        assert_eq!(cost.as_millis(), 481);
    }

    #[test]
    fn slow_wan_is_much_slower() {
        let fast = NetworkModel::gigabit().transfer_cost(1_000_000);
        let slow = NetworkModel::slow_wan().transfer_cost(1_000_000);
        assert!(slow.as_millis() > fast.as_millis() * 10);
    }

    #[test]
    fn free_network_costs_nothing() {
        let n = NetworkModel::free();
        assert_eq!(n.transfer_cost(u64::MAX).as_millis(), 0);
    }

    #[test]
    fn round_cost_charges_every_control_step() {
        // One transfer + five control messages (steps 1, 2, 3/4, 6,
        // 7/8). Under slow_wan the difference is 4 × 50 ms per round —
        // exactly the gap the sim horizon used to be short by.
        let wan = NetworkModel::slow_wan();
        let round = wan.relocation_round_cost(1_000_000).as_millis();
        let old = wan.transfer_cost(1_000_000).as_millis() + wan.latency_ms;
        assert_eq!(round, old + 4 * wan.latency_ms);
        // On a free network the round is still free.
        assert_eq!(
            NetworkModel::free()
                .relocation_round_cost(1 << 30)
                .as_millis(),
            0
        );
    }

    #[test]
    fn zero_throughput_guarded() {
        let n = NetworkModel {
            latency_ms: 2,
            bytes_per_ms: 0,
        };
        assert_eq!(n.transfer_cost(5).as_millis(), 7);
    }
}
