//! Virtual-time cost model for disk I/O.
//!
//! The simulated cluster driver cannot rely on wall-clock I/O latency to
//! reproduce the paper's disk-cost effects (a scaled experiment finishes
//! in seconds), so it *charges* virtual time for every spill write and
//! cleanup read using this model: a fixed per-operation seek cost plus a
//! throughput term over the **accounted state bytes** (which include
//! `Pad` virtual payloads — the whole point of padding is to model big
//! state).
//!
//! Defaults approximate the paper's 2006-era SCSI disks (~8 ms seek,
//! ~60 MB/s sequential) — the *ratio* of disk to memory speed is what
//! shapes Figures 5/7/12, not the absolute numbers.

use dcape_common::time::VirtualDuration;

/// Charge model for one disk device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed cost per operation (seek + syscall), in virtual milliseconds.
    pub seek_ms: u64,
    /// Sequential throughput in bytes per virtual millisecond
    /// (1 MB/s == 1_000 bytes/ms... strictly 1048.576, we use 10^6/10^3).
    pub bytes_per_ms: u64,
}

impl DiskModel {
    /// Paper-era default: 8 ms seek, 60 MB/s sequential.
    pub const fn default_2006() -> Self {
        DiskModel {
            seek_ms: 8,
            bytes_per_ms: 60_000,
        }
    }

    /// Virtual time to write or read `bytes` in one operation.
    pub fn io_cost(&self, bytes: u64) -> VirtualDuration {
        let transfer = bytes.div_ceil(self.bytes_per_ms.max(1));
        VirtualDuration::from_millis(self.seek_ms + transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_bytes() {
        let d = DiskModel::default_2006();
        let small = d.io_cost(1_000);
        let big = d.io_cost(60_000_000);
        assert!(big > small);
        // 60 MB at 60 MB/s ~ 1000 ms + 8 ms seek.
        assert_eq!(big.as_millis(), 1008);
    }

    #[test]
    fn seek_dominates_tiny_io() {
        let d = DiskModel::default_2006();
        assert_eq!(d.io_cost(0).as_millis(), 8);
        assert_eq!(d.io_cost(1).as_millis(), 9); // div_ceil
    }

    #[test]
    fn zero_throughput_does_not_divide_by_zero() {
        let d = DiskModel {
            seek_ms: 1,
            bytes_per_ms: 0,
        };
        assert_eq!(d.io_cost(10).as_millis(), 11);
    }
}
