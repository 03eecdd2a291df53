//! The exact half of "what does watching cost": how many records the
//! observers handle per operation. The overhead percentages the same runs
//! report are wall clock on a shared host and are bounded nowhere; these
//! counts repeat at every pool width and build profile.
//!
//! One test, alone in its file: the collector and the happens-before seam
//! are process-wide, so a sibling test planning or using the instrumented
//! pool at the same time would be counted too.

use crossmesh_bench::{obs_overhead, race};

#[test]
fn observers_handle_a_pinned_number_of_records_per_operation() {
    let obs = obs_overhead::run(true);
    let plans = obs.iters as u64;
    assert_eq!(obs.observed, 3 * plans, "spans+events per ensemble plan");
    assert_eq!(
        obs.recorder_records,
        6 * plans,
        "records the flight recorder takes in per ensemble plan"
    );

    let race = race::run(true);
    assert_eq!(
        race.events,
        64 * race.iters as u64,
        "seam events per armed all-to-all"
    );
}
