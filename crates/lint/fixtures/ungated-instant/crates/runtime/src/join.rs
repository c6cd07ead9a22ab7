//! Fixture: a clock read on a hot-path file outside `now_if`.
use std::time::Instant;

pub fn hot() -> u128 {
    Instant::now().elapsed().as_nanos()
}
