//! Launch results.
//!
//! A launch runs to completion before [`Device::launch`](crate::Device::launch)
//! returns. The paper's hybrid scheme overlaps CPU work with kernel flight
//! (its Fig. 4); here that overlap is billed in virtual time by the caller,
//! so the simulator needs no asynchronous launch path.

use crate::stats::KernelStats;

/// The result of a completed kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchResult<O> {
    /// Per-thread outputs in global-thread order.
    pub outputs: Vec<O>,
    /// Cost and utilisation accounting.
    pub stats: KernelStats,
}

#[cfg(test)]
mod tests {
    use crate::device::{Device, DeviceSpec};
    use crate::kernel::{Kernel, LaunchConfig, ThreadId};

    /// A lane that spins `n` steps then returns its global id.
    struct Spin {
        n: u32,
    }

    impl Kernel for Spin {
        type ThreadState = u32;
        type Output = u32;
        fn init(&self, _tid: ThreadId) -> u32 {
            self.n
        }
        fn step(&self, s: &mut u32, _tid: ThreadId) -> bool {
            *s -= 1;
            *s == 0
        }
        fn finish(&self, _s: u32, tid: ThreadId) -> u32 {
            tid.global
        }
    }

    #[test]
    fn sync_launch_returns_all_outputs() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let r = dev.launch(&Spin { n: 3 }, LaunchConfig::new(4, 64));
        assert_eq!(r.outputs.len(), 256);
        assert_eq!(r.outputs[17], 17);
        assert!(r.stats.elapsed() > pmcts_util::SimTime::ZERO);
    }
}
