//! Attribution self-test: extra host work injected into one wrapped
//! layer must show up in the per-layer report as that layer's growth.

use std::time::Duration;

use requiem_perfbench::workloads::{Scale, Trace, Workload};
use requiem_perfbench::{grown_layer, run, run_with};

fn check(workload: Workload, slow: fn(&Trace), expected: &str) {
    let scale = Scale::tiny();
    let base = run(workload, 7, 0.01, true, &scale);
    let slowed = run_with(workload, 7, 0.01, true, &scale, &slow);
    assert!(base.correct && slowed.correct, "{:?}", slowed.report);
    assert_eq!(
        grown_layer(&base, &slowed),
        Some(expected),
        "{} with extra work in {expected}",
        workload.name()
    );
}

#[test]
fn slow_storage_is_blamed_on_storage() {
    check(
        Workload::OltpVision,
        |t| t.storage.inject(Duration::from_micros(100)),
        "db.storage_s",
    );
}

#[test]
fn slow_wal_is_blamed_on_wal() {
    check(
        Workload::OltpVision,
        |t| t.wal.inject(Duration::from_micros(300)),
        "wal.call_s",
    );
}

#[test]
fn slow_submit_is_blamed_on_ssd() {
    check(
        Workload::SsdAging,
        |t| t.submit.inject(Duration::from_micros(100)),
        "ssd.submit_s",
    );
}

#[test]
fn slow_generator_is_blamed_on_workload() {
    check(
        Workload::SsdAging,
        |t| t.gen.inject(Duration::from_micros(100)),
        "workload.gen_s",
    );
}
