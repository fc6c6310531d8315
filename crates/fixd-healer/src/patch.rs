//! Patches: a new program version plus everything needed to apply it
//! safely to a running process.
//!
//! Mirrors Ginseng's shape (§4.4) at the [`Program`] granularity: the
//! compiler + patch generator become the `factory` (code for the new
//! version) and `migration` (state transformer); the safety analysis
//! becomes the `precondition` evaluated at the chosen update point.

use std::sync::Arc;

use fixd_runtime::Program;

use crate::migrate::{identity, Migration};

/// Shared update-point safety predicate over an old-version snapshot.
pub type Precondition = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// A dynamic software update for one program type.
#[derive(Clone)]
pub struct Patch {
    /// Human-readable patch name (bug tracker id, etc.).
    pub name: String,
    /// Version this patch upgrades from.
    pub from_version: u32,
    /// Version this patch produces.
    pub to_version: u32,
    /// Constructor for the new version's program (initial state; real
    /// state arrives via `migration`).
    pub factory: Arc<dyn Fn() -> Box<dyn Program> + Send + Sync>,
    /// State migration from old snapshot to new snapshot.
    pub migration: Migration,
    /// Update-point safety check over the *old* state ("all invariants
    /// hold here, and the state is equivalent-translatable").
    pub precondition: Option<Precondition>,
}

impl Patch {
    /// A patch with an identity migration and no precondition.
    pub fn code_only(
        name: &str,
        from_version: u32,
        to_version: u32,
        factory: impl Fn() -> Box<dyn Program> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            from_version,
            to_version,
            factory: Arc::new(factory),
            migration: identity(),
            precondition: None,
        }
    }

    /// Attach a state migration (builder style).
    pub fn with_migration(mut self, m: Migration) -> Self {
        self.migration = m;
        self
    }

    /// Attach an update-point precondition.
    pub fn with_precondition(mut self, p: impl Fn(&[u8]) -> bool + Send + Sync + 'static) -> Self {
        self.precondition = Some(Arc::new(p));
        self
    }

    /// Does the precondition accept this old state? (Vacuously true when
    /// no precondition is attached.)
    pub fn applicable_to(&self, old_state: &[u8]) -> bool {
        self.precondition.as_ref().is_none_or(|p| p(old_state))
    }

    /// Build the new program with the migrated state installed.
    pub fn instantiate(
        &self,
        old_state: &[u8],
    ) -> Result<Box<dyn Program>, crate::migrate::MigrateError> {
        let new_state = (self.migration)(old_state)?;
        let mut p = (self.factory)();
        p.restore(&new_state);
        Ok(p)
    }
}

impl std::fmt::Debug for Patch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Patch({} v{}→v{})",
            self.name, self.from_version, self.to_version
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Context;

    #[derive(Clone)]
    pub(crate) struct V1 {
        pub n: u64,
    }
    impl Program for V1 {
        fn on_message(&mut self, _ctx: &mut Context, _msg: &fixd_runtime::Message) {
            self.n += 1; // v1 "bug": counts everything
        }
        fn snapshot(&self) -> Vec<u8> {
            self.n.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b.try_into().unwrap());
        }
        fn name(&self) -> &'static str {
            "v1"
        }
    }

    #[derive(Clone)]
    pub(crate) struct V2 {
        pub n: u64,
        pub skipped: u64,
    }
    impl Program for V2 {
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.n.to_le_bytes().to_vec();
            b.extend_from_slice(&self.skipped.to_le_bytes());
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.skipped = u64::from_le_bytes(b[8..16].try_into().unwrap());
        }
        fn name(&self) -> &'static str {
            "v2"
        }
    }

    fn v1_to_v2() -> Patch {
        Patch::code_only("fix-123", 1, 2, || Box::new(V2 { n: 0, skipped: 0 }))
            .with_migration(crate::migrate::append(0u64.to_le_bytes().to_vec()))
            .with_precondition(|old| old.len() == 8)
    }

    #[test]
    fn instantiate_migrates_state() {
        let p = v1_to_v2();
        let old = V1 { n: 42 };
        let new_prog = p.instantiate(&old.snapshot()).unwrap();
        let v2 = new_prog.downcast_ref::<V2>().unwrap();
        assert_eq!(v2.n, 42, "counter carried over");
        assert_eq!(v2.skipped, 0, "new field defaulted");
    }

    #[test]
    fn precondition_gates_applicability() {
        let p = v1_to_v2();
        assert!(p.applicable_to(&7u64.to_le_bytes()));
        assert!(!p.applicable_to(b"bad"));
        let no_pre = Patch::code_only("x", 1, 2, || Box::new(V2 { n: 0, skipped: 0 }));
        assert!(no_pre.applicable_to(b"anything"));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", v1_to_v2()), "Patch(fix-123 v1→v2)");
    }
}
