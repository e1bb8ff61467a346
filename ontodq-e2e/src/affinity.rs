//! CPU placement: the whole benchmark — load generator, server process and
//! in-process rungs — runs on one CPU.
//!
//! Left to the scheduler, a run on the 2-CPU box settles into one of two
//! regimes for its whole length: client, session and worker threads sharing
//! a CPU (a hot `?q-` takes ~20 us) or spread over both (~85 us: four
//! cross-CPU wake-ups per request, each an inter-processor interrupt into an
//! idle virtual CPU).  Which one is decided at launch, so the same commit
//! measures 4x apart from run to run.  Putting the server on one CPU and the
//! client on the other is repeatable only to ~±12%.  With one CPU for
//! everything a closed-loop request is a strict hand-over — client, session,
//! worker, session, client — with no idle CPU to wake, and repeats to ~2%.
//! The server is therefore measured as a one-CPU server.

use std::io;

extern "C" {
    // From the C library every Rust program on Linux already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Pin the calling thread — and every thread and process it goes on to
/// create — to the last CPU it may run on (the first one tends to take the
/// machine's interrupts).  Returns the CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let cpu = *allowed_cpus()?
        .last()
        .ok_or_else(|| io::Error::other("no CPU allowed"))?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_and_processes_inherit_the_pin() {
        // On a thread of its own: the pin must not leak into the other tests
        // of this process.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            assert_eq!(allowed_cpus().unwrap(), vec![cpu]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap().unwrap();
            assert_eq!(child, vec![cpu]);
            let status = std::process::Command::new("grep")
                .args(["Cpus_allowed_list", "/proc/self/status"])
                .output()
                .unwrap();
            let listed = String::from_utf8(status.stdout).unwrap();
            assert_eq!(
                listed.split_whitespace().last(),
                Some(cpu.to_string().as_str())
            );
        })
        .join()
        .unwrap();
    }
}
