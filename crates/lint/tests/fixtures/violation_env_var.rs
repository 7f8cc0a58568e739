//! Seeded `env-var` violations: every environment read outside the knob
//! registry fires, whichever function it sits in; test code is exempt.

pub fn pops_from_env() -> usize {
    std::env::var("STELLAR_POPS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

pub fn workers() -> Option<std::ffi::OsString> {
    std::env::var_os("STELLAR_TICK_WORKERS")
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_in_tests_are_exempt() {
        let _ = std::env::var("TEST_ONLY_VARIABLE");
    }
}
