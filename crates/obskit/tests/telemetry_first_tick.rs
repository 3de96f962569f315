//! `obskit::telemetry::ensure_global` installs the series store before
//! it starts the sampler, so the sampler's first tick — taken before
//! the call returns — is already in the store's rings.
//!
//! This lives in its own integration-test binary because the store and
//! the sampler are process-global and install once: nothing else in
//! the process may start them first.

#[test]
#[cfg(target_os = "linux")]
fn first_tick_lands_in_the_global_series_store() {
    // No background tick can land before the assertions: only the
    // first, synchronous one can have recorded a point.
    obskit::telemetry::set_default_interval_ms(3_600_000);
    assert!(obskit::series::global_series().is_none());
    let telemetry = obskit::telemetry::ensure_global();
    let store = obskit::series::global_series().expect("ensure_global installs the store");
    let point = store
        .latest("proc_rss_kb")
        .expect("the first tick recorded proc_rss_kb");
    assert!(point.value > 0.0, "{point:?}");
    assert!(telemetry.max_rss_kb() > 0);
}
