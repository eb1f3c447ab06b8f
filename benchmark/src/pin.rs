//! Pinning a process to one CPU (Linux; a no-op elsewhere).

/// Words of a CPU mask: 1024 CPUs, the kernel's default `cpu_set_t`.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to one of the CPUs it may run on now: the `turn`-th of them, wrapping
/// round. Returns that CPU, or `None` when the kernel refuses (or this
/// is not Linux) and nothing changed.
pub fn to_one_cpu(turn: usize) -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is WORDS * 8 writable bytes, the size passed.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let allowed: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let cpu = *allowed.get(turn % allowed.len().max(1))?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is WORDS * 8 readable bytes, the size passed.
        (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (turn, WORDS);
        None
    }
}
