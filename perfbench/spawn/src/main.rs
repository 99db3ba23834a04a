//! Runs one command and prints `EXIT_CODE WALL_NS MAXRSS_KIB` on stdout.
//!
//! ```text
//! perfbench-spawn STDOUT_PATH STDERR_PATH PROGRAM [ARGS...]
//! ```
//!
//! The command's stdout goes to `STDOUT_PATH` (`-` discards it) and its
//! stderr is appended to `STDERR_PATH`.
//!
//! On Linux a process's `ru_maxrss` starts at the peak resident set of the
//! process that spawned it, because exec carries the old address space's
//! high-water mark into the new image.  Measured from the benchmark's Python
//! process, whose heap grows during a run, every small command would report
//! Python's footprint.  This spawner is small, so the figure it reports is
//! the command's own.

use std::fs::{File, OpenOptions};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // libc is already linked through std; declaring `wait4` directly avoids
    // a crate dependency the offline build cannot fetch.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [stdout_path, stderr_path, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-spawn STDOUT_PATH STDERR_PATH PROGRAM [ARGS...]");
        std::process::exit(2);
    };
    let stdout = if stdout_path == "-" {
        Stdio::null()
    } else {
        Stdio::from(File::create(stdout_path).expect("stdout file is writable"))
    };
    let stderr = OpenOptions::new()
        .create(true)
        .append(true)
        .open(stderr_path)
        .expect("stderr file is writable");
    let started = Instant::now();
    // Reaped by `wait4` below, which also yields the resource usage.
    #[allow(clippy::zombie_processes)]
    let child = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|err| panic!("cannot run `{program}`: {err}"));
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0_i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // `int` and `struct rusage`; `pid` is our own unreaped child, which
    // `child` never waits for afterwards.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed();
    assert_eq!(
        reaped,
        pid,
        "wait4 failed: {}",
        std::io::Error::last_os_error()
    );
    // WIFEXITED / WEXITSTATUS, else 128 + the terminating signal.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    println!("{code} {} {}", wall.as_nanos(), usage.maxrss);
}
