//! Support shared by the workspace's tests.

/// Case count for a property test: `PROPTEST_CASES` when set (the CI
/// stress job raises it), else `default`. The vendored proptest shim
/// does not read the variable itself.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
