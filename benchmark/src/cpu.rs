//! Pinning the harness to one CPU. A workload whose op is a few thread
//! hand-offs (`sampling_epochs`) costs 23 µs when both threads share a CPU
//! and 87 µs when the wake-up crosses to an idle CPU of a shared host, and
//! which of the two a block gets is the hypervisor's choice, not the
//! program's. On one CPU every hand-off is a context switch: the count of
//! hand-offs per op is still what is priced, the placement lottery is not.
//!
//! Affinity is per thread and inherited by the threads a thread spawns, so
//! pinning the main thread before a stack is built pins that stack's
//! workers too. The two calls are glibc's, declared here because the
//! benchmark adds no dependency.

/// CPU masks of 1,024 bits, the size glibc's `cpu_set_t` has.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs a thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    /// The calling thread's set.
    pub fn current() -> Result<CpuSet, String> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is WORDS * 8 writable bytes and that size is passed.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(CpuSet(mask))
        } else {
            Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Restrict the calling thread (and the threads it spawns from now on)
    /// to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is WORDS * 8 readable bytes and that size is passed.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// The highest-numbered CPU of the set (CPU 0 takes most of a small
    /// guest's interrupts) and the set holding only it.
    pub fn last_only(&self) -> Option<(usize, CpuSet)> {
        let word = self.0.iter().rposition(|w| *w != 0)?;
        let bit = 63 - self.0[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        Some((word * 64 + bit, CpuSet(one)))
    }
}

/// Pin the calling thread to one of its CPUs. Returns the set it had, to
/// put back with [`CpuSet::apply`], and the CPU chosen.
pub fn pin_to_one() -> Result<(CpuSet, usize), String> {
    let before = CpuSet::current()?;
    let (cpu, one) = before.last_only().ok_or("the CPU set is empty")?;
    one.apply()?;
    Ok((before, cpu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_only_picks_the_highest_cpu() {
        let mut mask = [0u64; WORDS];
        mask[0] = 0b1011;
        assert_eq!(CpuSet(mask).last_only().map(|(cpu, _)| cpu), Some(3));
        mask[1] = 1 << 5;
        let (cpu, one) = CpuSet(mask).last_only().unwrap();
        assert_eq!(cpu, 69);
        assert_eq!(one.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(CpuSet([0; WORDS]).last_only(), None);
    }

    #[test]
    fn pinning_narrows_this_thread_and_its_children_and_is_undone() {
        let (before, cpu) = pin_to_one().unwrap();
        let pinned = CpuSet::current().unwrap();
        assert_eq!(pinned.last_only().map(|(c, _)| c), Some(cpu));
        assert_eq!(pinned.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        let child = std::thread::spawn(CpuSet::current).join().unwrap().unwrap();
        assert_eq!(child, pinned);
        before.apply().unwrap();
        assert_eq!(CpuSet::current().unwrap(), before);
    }
}
