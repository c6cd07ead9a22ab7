//! Fixture: the one clock read a hot-path file may carry — the
//! allow-listed `now_if` probe, gated at run time by its caller's flag.
use std::time::Instant;

pub fn now_if(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}
