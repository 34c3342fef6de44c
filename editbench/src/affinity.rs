//! Pinning the calling thread to one CPU at a time (Linux).
//!
//! On a virtual machine shared with other guests, each virtual CPU's
//! speed on memory-bound code changes with what runs beside it: on a
//! 2-vCPU Xeon guest, a fixed random-access loop over 8 MiB ran 38 ms on
//! one vCPU and 65 ms on the other at the same moment, and the two
//! swapped within tens of seconds. The scheduler keeps a lone busy thread
//! on one CPU for long stretches, so an unpinned run measures whichever
//! CPU it landed on. Pinning successive sessions to each allowed CPU in
//! turn makes every run sample all of them equally.

use std::ffi::c_int;

/// `cpu_set_t` of the C library: a bit mask of 1024 CPUs.
#[derive(Clone, Copy)]
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Sets the calling thread's CPU mask; whether it took.
fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// The CPUs the calling thread may run on, and its mask to restore.
pub struct Cpus {
    original: CpuSet,
    allowed: Vec<usize>,
}

impl Cpus {
    /// The calling thread's allowed CPUs; `None` if they cannot be read.
    pub fn current() -> Option<Cpus> {
        let mut original = CpuSet { bits: [0; 16] };
        // SAFETY: `original` is a valid, writable `cpu_set_t` of the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) };
        if rc != 0 {
            return None;
        }
        let allowed = (0..1024)
            .filter(|&cpu| original.bits[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Some(Cpus { original, allowed })
    }

    /// Pins the calling thread to the `turn`-th allowed CPU (cyclically)
    /// until the returned guard drops; unpinned if the mask cannot be set.
    pub fn pin(&self, turn: usize) -> Pinned<'_> {
        let cpu = self.allowed[turn % self.allowed.len()];
        let mut mask = CpuSet { bits: [0; 16] };
        mask.bits[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
        Pinned { cpus: self }
    }
}

/// Restores the thread's original CPU mask on drop.
pub struct Pinned<'a> {
    cpus: &'a Cpus,
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        set(&self.cpus.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_in_turn_and_restores() {
        let cpus = Cpus::current().expect("affinity readable");
        assert!(!cpus.allowed.is_empty());
        for turn in 0..cpus.allowed.len() {
            let _pinned = cpus.pin(turn);
            let now = Cpus::current().expect("affinity readable");
            assert_eq!(now.allowed, vec![cpus.allowed[turn]]);
        }
        assert_eq!(
            Cpus::current().expect("affinity readable").allowed,
            cpus.allowed
        );
    }
}
