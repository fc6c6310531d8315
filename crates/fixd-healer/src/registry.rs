//! Version registry: which program version each process runs.

use std::collections::HashMap;

use fixd_runtime::Pid;

/// Tracks per-process code versions.
#[derive(Default)]
pub struct VersionRegistry {
    versions: HashMap<Pid, u32>,
}

impl VersionRegistry {
    /// Empty registry; processes default to version 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version of `pid` (1 if never set).
    pub fn version_of(&self, pid: Pid) -> u32 {
        self.versions.get(&pid).copied().unwrap_or(1)
    }

    /// Record that `pid` now runs `version`.
    pub fn set_version(&mut self, pid: Pid, version: u32) {
        self.versions.insert(pid, version);
    }
}

impl std::fmt::Debug for VersionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VersionRegistry({} processes tracked)",
            self.versions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_version_is_one() {
        let r = VersionRegistry::new();
        assert_eq!(r.version_of(Pid(0)), 1);
    }

    #[test]
    fn version_tracking() {
        let mut r = VersionRegistry::new();
        r.set_version(Pid(2), 3);
        assert_eq!(r.version_of(Pid(2)), 3);
        assert_eq!(r.version_of(Pid(0)), 1);
    }
}
