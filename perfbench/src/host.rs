//! The `host` block: what a result depends on besides the code. Two runs
//! are comparable only when their host blocks match.

use em_nn::threadpool;

/// The host block as a JSON object.
pub fn json() -> String {
    let budget = threadpool::budget_snapshot();
    let (avx512f, avx512_vnni) = avx512();
    format!(
        "{{\"nproc\": {}, \"threads\": {{\"em_num_threads\": {}, \"effective_budget\": {}}}, \"avx512f\": {avx512f}, \"avx512_vnni\": {avx512_vnni}, \"commit\": \"{}\"}}",
        budget.available_parallelism,
        budget
            .env_threads
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
        budget.effective,
        commit(),
    )
}

/// Whether the CPU has AVX-512F and AVX-512 VNNI (the kernels dispatch on
/// the same runtime detection).
#[cfg(target_arch = "x86_64")]
fn avx512() -> (bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx512vnni"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512() -> (bool, bool) {
    (false, false)
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" in a plain source tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (the kernel's `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    // `getrusage(RUSAGE_SELF)` reports the same high-water mark as
    // `/proc/self/status`'s VmHWM, in KiB, without touching the
    // filesystem.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct rusage`
    // (two `timeval`s then fourteen `long`s, 144 bytes), `usage` is a
    // valid exclusive pointer to it for the duration of the call, and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}
