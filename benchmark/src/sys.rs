//! The one system call the standard library does not offer: wait for a
//! socket to become readable *or* for a deadline, with the deadline kept
//! to the microsecond. (`set_read_timeout` rounds up to scheduler ticks,
//! which would make the open loop send late.)

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls ppoll(2): 64-bit Linux only");

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64-bit.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until `stream` has bytes to read (or was closed or failed, which
/// a following `read` reports) or `timeout` passes. `Ok(false)` is a
/// timeout or an interrupted wait; the caller re-checks its clock.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call; `nfds` is 1, matching the single `PollFd` passed; a null
    // signal mask is allowed and leaves the mask unchanged. The descriptor
    // stays open because `stream` is borrowed for the duration.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn times_out_when_quiet_and_wakes_on_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();

        let t = Instant::now();
        assert!(!wait_readable(&b, Duration::from_millis(20)).unwrap());
        let waited = t.elapsed();
        assert!(waited >= Duration::from_millis(20) && waited < Duration::from_millis(200));

        a.write_all(b"x").unwrap();
        assert!(wait_readable(&b, Duration::from_secs(5)).unwrap());
    }
}
