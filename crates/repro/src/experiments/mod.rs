//! Experiment modules, one per paper figure/table, and the one way each
//! of them takes a configuration through a simulated run.

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::RunReport;
use dcape_common::error::Result;
use dcape_common::time::VirtualTime;

pub mod ablations;
pub mod fig05_06;
pub mod fig07;
pub mod fig09_10;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod verify;

/// Run `cfg` on the simulated cluster up to `deadline`, then quiesce and
/// clean up. What completed by the deadline is
/// [`RunReport::relocations_before`]`(deadline)`.
pub fn run_sim(cfg: SimConfig, deadline: VirtualTime) -> Result<RunReport> {
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(deadline)?;
    driver.finish()
}

#[cfg(test)]
mod tests {
    use dcape_common::time::VirtualDuration;
    use dcape_metrics::journal::AdaptEvent;

    use super::*;
    use crate::opts::RunOpts;
    use crate::scale;

    /// A deadline between a round's step 1 and its remap: the round is
    /// open when the run phase ends, and quiesce completes it. The
    /// report holds it; "completed by the deadline" does not.
    #[test]
    fn completed_by_the_deadline_is_stamped_before_it() {
        let opts = RunOpts::fast_quiet();
        let cfg = fig09_10::theta_config(90, &opts);
        let full = run_sim(cfg.clone(), scale::default_duration(true)).unwrap();
        let third_round = full
            .journal
            .iter()
            .filter(|e| matches!(e.event, AdaptEvent::RelocationStep { step: 1, .. }))
            .nth(2)
            .expect("fast theta=90% makes at least three rounds")
            .at;
        let deadline = third_round + VirtualDuration::from_millis(1);

        let mut driver = SimDriver::new(cfg.clone()).unwrap();
        driver.run_until(deadline).unwrap();
        let by_deadline = driver.relocations().len();
        assert_eq!(by_deadline, 2, "two rounds completed before the third");

        let report = run_sim(cfg, deadline).unwrap();
        assert_eq!(report.relocations_before(deadline).count(), by_deadline);
        assert_eq!(
            report.relocations.len(),
            by_deadline + 1,
            "quiesce completed the open round"
        );
        assert!(report.relocations[by_deadline].at >= deadline);
    }
}
