//! Integration tests of the kernel execution contract: custom kernels
//! exercising ordering, readback accounting and occupancy.

use pmcts_gpu_sim::{Device, DeviceSpec, Kernel, LaunchConfig, ThreadId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Records every `init` call and returns the thread's coordinates.
struct Echo {
    inits: AtomicU32,
}

impl Kernel for Echo {
    type ThreadState = ThreadId;
    type Output = (u32, u32, u32);

    fn init(&self, tid: ThreadId) -> ThreadId {
        self.inits.fetch_add(1, Ordering::Relaxed);
        tid
    }

    fn step(&self, _s: &mut ThreadId, _t: ThreadId) -> bool {
        true // single-step kernel
    }

    fn finish(&self, s: ThreadId, _t: ThreadId) -> (u32, u32, u32) {
        (s.block, s.thread, s.global)
    }
}

#[test]
fn thread_ids_are_consistent_and_each_lane_inits_once() {
    let dev = Device::new(DeviceSpec::tesla_c2050());
    let kernel = Echo {
        inits: AtomicU32::new(0),
    };
    let cfg = LaunchConfig::new(6, 48);
    let r = dev.launch(&kernel, cfg);
    assert_eq!(kernel.inits.load(Ordering::Relaxed), 6 * 48);
    for (i, &(block, thread, global)) in r.outputs.iter().enumerate() {
        assert_eq!(global as usize, i);
        assert_eq!(block, i as u32 / 48);
        assert_eq!(thread, i as u32 % 48);
    }
}

/// Kernel whose per-lane output size is configurable.
struct Wide {
    bytes: u64,
}

impl Kernel for Wide {
    type ThreadState = ();
    type Output = ();
    fn init(&self, _t: ThreadId) {}
    fn step(&self, _s: &mut (), _t: ThreadId) -> bool {
        true
    }
    fn finish(&self, _s: (), _t: ThreadId) {}
    fn output_bytes(&self) -> u64 {
        self.bytes
    }
}

#[test]
fn readback_time_scales_with_output_bytes() {
    let dev = Device::new(DeviceSpec::tesla_c2050());
    let cfg = LaunchConfig::new(4, 64);
    let small = dev.launch(&Wide { bytes: 1 }, cfg);
    let large = dev.launch(&Wide { bytes: 4096 }, cfg);
    assert!(large.stats.readback_time > small.stats.readback_time);
    // Device time itself is unaffected by output size.
    assert_eq!(large.stats.device_time, small.stats.device_time);
}

#[test]
fn occupancy_reported_on_stats() {
    let dev = Device::new(DeviceSpec::tesla_c2050());
    let tiny = dev.launch(&Wide { bytes: 1 }, LaunchConfig::new(1, 32));
    let full = dev.launch(&Wide { bytes: 1 }, LaunchConfig::new(448, 1024));
    assert!(tiny.stats.occupancy < 0.01);
    assert_eq!(full.stats.occupancy, 1.0);
}

/// A kernel with heavy per-lane work to check SM queueing arithmetic.
struct Busy {
    steps: u32,
}

impl Kernel for Busy {
    type ThreadState = u32;
    type Output = u32;
    fn init(&self, _t: ThreadId) -> u32 {
        self.steps
    }
    fn step(&self, s: &mut u32, _t: ThreadId) -> bool {
        *s -= 1;
        *s == 0
    }
    fn finish(&self, _s: u32, t: ThreadId) -> u32 {
        t.global
    }
}

#[test]
fn uniform_kernels_have_exact_device_time() {
    // With identical lanes there is no divergence: device time must equal
    // blocks-per-SM x warps-per-block x steps x cycles-per-step exactly.
    let spec = DeviceSpec::tesla_c2050();
    let dev = Device::new(spec.clone());
    let steps = 50u32;
    // 28 blocks on 14 SMs -> exactly 2 blocks per SM; 2 warps per block.
    let cfg = LaunchConfig::new(28, 64);
    let r = dev.launch(&Busy { steps }, cfg);
    let expected_cycles = 2 * 2 * steps as u64 * spec.cycles_per_warp_step;
    assert_eq!(r.stats.device_time, spec.cycles_to_time(expected_cycles));
    assert_eq!(r.stats.idle_lane_steps, 0);
    assert_eq!(r.stats.lane_efficiency(), 1.0);
}

#[test]
fn device_time_unchanged_when_grid_fits_anyway() {
    // 7 blocks vs 14 blocks on a 14-SM device: same per-SM load (1 block),
    // same device time; sims double for free — the rising region of Fig. 5.
    let dev = Device::new(DeviceSpec::tesla_c2050());
    let seven = dev.launch(&Busy { steps: 40 }, LaunchConfig::new(7, 64));
    let fourteen = dev.launch(&Busy { steps: 40 }, LaunchConfig::new(14, 64));
    assert_eq!(seven.stats.device_time, fourteen.stats.device_time);
    assert_eq!(fourteen.outputs.len(), 2 * seven.outputs.len());
}
