//! Runs one command and reports its wall time, peak RSS and exit status.
//!
//! ```text
//! timed_exec --report FILE [--env KEY=VALUE]... -- COMMAND [ARGS...]
//! ```
//!
//! The child inherits stdin, stdout and stderr, and gets the extra
//! environment only for itself (so an `LD_PRELOAD` never applies to this
//! launcher). `FILE` receives `wall_ns=<n> maxrss_kb=<n> status=<n>`, where
//! a negative status is the signal that killed the child. `ru_maxrss`
//! survives `exec`, so a child forked from a large process (such as a
//! Python interpreter) inherits that process's peak; a launcher this small
//! keeps the floor at its own few MB.

use std::ffi::c_int;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let split = args.iter().position(|a| a == "--").unwrap_or_else(|| {
        eprintln!("timed_exec: missing -- COMMAND");
        std::process::exit(2)
    });
    let (opts, cmd) = (&args[..split], &args[split + 1..]);
    let mut report = None;
    let mut command = Command::new(cmd.first().unwrap_or_else(|| std::process::exit(2)));
    command.args(&cmd[1..]);
    let mut i = 0;
    while i + 1 < opts.len() {
        match opts[i].as_str() {
            "--report" => report = Some(opts[i + 1].clone()),
            "--env" => {
                let (k, v) = opts[i + 1].split_once('=').expect("--env takes KEY=VALUE");
                command.env(k, v);
            }
            other => panic!("timed_exec: unknown option {other}"),
        }
        i += 2;
    }
    let report = report.expect("--report FILE is required");

    let t0 = Instant::now();
    let (wall_ns, maxrss, status) = match command.spawn() {
        Ok(child) => {
            let pid = c_int::try_from(child.id()).expect("pids fit in c_int");
            let mut raw: c_int = 0;
            let mut ru = Rusage {
                utime: [0; 2],
                stime: [0; 2],
                maxrss: 0,
                rest: [0; 13],
            };
            // SAFETY: `pid` is our unreaped child; both out-pointers are
            // valid for writes. Reaping here leaves `child` unwaited, which
            // std allows (dropping a Child does not wait).
            let rc = unsafe { wait4(pid, &mut raw, 0, &mut ru) };
            assert_eq!(rc, pid, "wait4: {}", std::io::Error::last_os_error());
            let wall = perfbench_driver::ns_since(t0);
            let status = if raw & 0x7f == 0 {
                (raw >> 8) & 0xff
            } else {
                -(raw & 0x7f)
            };
            (wall, ru.maxrss, status)
        }
        Err(e) => {
            eprintln!("timed_exec: cannot run {}: {e}", cmd[0]);
            (perfbench_driver::ns_since(t0), 0, 127)
        }
    };
    std::fs::write(
        &report,
        format!("wall_ns={wall_ns} maxrss_kb={maxrss} status={status}\n"),
    )
    .expect("write the report file");
}
