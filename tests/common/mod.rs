//! Helpers shared by the tests that spawn real `skyup` server processes.

use std::ops::{Deref, DerefMut};
use std::process::Child;

/// A spawned server process that is killed and reaped when dropped, so
/// a failing assertion (or any other panic) never leaves a `skyup`
/// server running. Derefs to the [`Child`]: a test that shuts a server
/// down on purpose still calls `wait()` and asserts on its exit status;
/// once the child has been reaped, the drop's `kill` is a no-op.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn new(child: Child) -> Self {
        ChildGuard(child)
    }
}

impl Deref for ChildGuard {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for ChildGuard {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}
