//! Moves the calling thread between the CPUs the process may use.
//!
//! On a shared host one CPU can run well below another for tens of
//! seconds: on a 2-CPU VM, two copies of the same 6 s compile window, run
//! at once and each pinned to its own CPU, read 231–246 compiles/s on one
//! CPU and 165–270 on the other over five pairs. A single-threaded window
//! that the scheduler leaves on one CPU reads that CPU's speed; moving it
//! round every allowed CPU, one sweep each, and keeping each op's best time
//! reads the fastest.

/// A CPU mask: a glibc-default 1024-bit `cpu_set_t`.
pub struct Mask([u8; 128]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

impl Mask {
    /// The calling thread's mask; `None` where it cannot be read.
    pub fn current() -> Option<Mask> {
        let mut mask = [0u8; 128];
        // SAFETY: pid 0 is the calling thread; the pointer and length
        // describe `mask`, which outlives the call.
        #[cfg(target_os = "linux")]
        let read = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let read = false;
        read.then_some(Mask(mask))
    }

    /// One CPU alone.
    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0u8; 128];
        mask[cpu / 8] |= 1 << (cpu % 8);
        Mask(mask)
    }

    /// The CPUs in the mask, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 8)
            .filter(|&c| self.0[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }

    /// Restricts the calling thread to the mask (threads it spawns after
    /// inherit it). Best effort: a refused call leaves the thread as it was.
    pub fn apply(&self) {
        // SAFETY: pid 0 is the calling thread; the pointer and length
        // describe `self.0`.
        #[cfg(target_os = "linux")]
        let _ = unsafe { sched_setaffinity(0, self.0.len(), self.0.as_ptr()) };
    }
}
