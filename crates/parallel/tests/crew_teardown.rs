//! A thread's crew is joined when the thread exits. The only test in
//! its binary, so no other test's threads come and go in the count.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

/// Threads of this process, from `/proc/self/task`.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn a_callers_crew_is_joined_when_the_caller_exits() {
    let baseline = tasks();
    let during = std::thread::spawn(|| {
        parallel::with_thread_count(4, || {
            parallel::run_chunked(64, |i| {
                std::hint::black_box(i);
            })
        });
        tasks()
    })
    .join()
    .expect("the caller thread");
    // The caller and its three workers, still alive after the region.
    assert!(
        during >= baseline + 4,
        "{during} tasks during, {baseline} before"
    );
    // A joined thread's task entry can outlive the join by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while tasks() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tasks(), baseline, "tasks after the caller exited");
}
