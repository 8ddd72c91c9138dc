//! Process plumbing the standard library does not expose: reaping a
//! child together with its resource usage (for its final peak RSS) and
//! sending it SIGTERM.

use std::io;
use std::process::Child;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a reaped child ended.
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// The kernel's high-water mark of the child's resident set
    /// (`ru_maxrss`, the value `VmHWM` held when it exited), in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` to end and reaps it with `wait4`, so the peak RSS
/// covers the whole life of the process, including its last moments
/// (which polling `/proc/<pid>/status` would miss).
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the sizes `wait4` writes on 64-bit Linux.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; dropping the handle only closes its pipes.
    drop(child);
    Ok(Exit {
        success: status == 0,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Asks `child` to shut down gracefully.
pub fn terminate(child: &Child) -> io::Result<()> {
    // SAFETY: plain syscall on a pid we own and have not reaped yet.
    if unsafe { kill(child.id() as i32, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
