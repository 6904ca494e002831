//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] rides along inside [`crate::ExecutionLimits`] and is
//! evaluated by [`crate::ExecGuard::visit_node`] against the *shared*
//! visit count, so a fault scheduled at visit `N` fires exactly once
//! per query, at a reproducible point of the traversal (sequentially
//! deterministic; under concurrent clones of one guard, at the Nth
//! global visit in whatever interleaving occurs).
//!
//! Three failure modes cover the interesting containment stories:
//!
//! * `panic_at_visit` — simulates a bug inside a traversal; a caller
//!   that runs traversals on worker threads must contain it via
//!   `catch_unwind` and surface a structured error instead of aborting
//!   the process.
//! * `stall_at_visit` — simulates a slow disk/lock by sleeping inside
//!   the traversal, burning the wall-clock deadline so the query comes
//!   back `Partial(DeadlineExceeded)`.
//! * `cancel_at_visit` — simulates a spurious external cancellation by
//!   tripping the query's own token mid-traversal.

use std::time::Duration;

use crate::exec::CancellationToken;

/// A deterministic schedule of injected faults, keyed by the shared
/// node-visit count of the query's guard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panic_at_visit: Option<u64>,
    stall_at_visit: Option<(u64, Duration)>,
    cancel_at_visit: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics (with a `"fault injection"` message) at the `n`-th
    /// guarded node visit.
    pub fn panic_at_visit(mut self, n: u64) -> Self {
        self.panic_at_visit = Some(n);
        self
    }

    /// Sleeps for `pause` at the `n`-th guarded node visit, simulating
    /// a stall that burns the deadline.
    pub fn stall_at_visit(mut self, n: u64, pause: Duration) -> Self {
        self.stall_at_visit = Some((n, pause));
        self
    }

    /// Cancels the query's own token at the `n`-th guarded node visit.
    pub fn cancel_at_visit(mut self, n: u64) -> Self {
        self.cancel_at_visit = Some(n);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Fires whichever faults are scheduled for this visit. Called by
    /// the guard with the post-increment shared visit count.
    pub(crate) fn fire(&self, visit: u64, token: &CancellationToken) {
        if let Some((at, pause)) = self.stall_at_visit {
            if at == visit {
                std::thread::sleep(pause);
            }
        }
        if self.cancel_at_visit == Some(visit) {
            token.cancel();
        }
        if self.panic_at_visit == Some(visit) {
            panic!("fault injection: panic at node visit {visit}");
        }
    }
}

/// A deterministic schedule of injected durability I/O failures, keyed
/// by 1-based operation counts maintained by the consumer (the serve
/// WAL counts its own writes and syncs and consults the plan before
/// touching the file).
///
/// Unlike [`FaultPlan`], which fires inside query traversals, an
/// `IoFaultPlan` simulates the disk failing underneath the write path —
/// `ENOSPC` on the Nth write, or an fsync error on the Nth sync. The
/// engine must respond by degrading to read-only with a structured
/// error, never by panicking a worker or corrupting published state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    fail_write_at: Option<u64>,
    fail_sync_at: Option<u64>,
}

impl IoFaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fails the `n`-th write (1-based) with a simulated disk-full
    /// error.
    pub fn fail_write_at(mut self, n: u64) -> Self {
        self.fail_write_at = Some(n);
        self
    }

    /// Fails the `n`-th sync (1-based) with a simulated fsync error.
    pub fn fail_sync_at(mut self, n: u64) -> Self {
        self.fail_sync_at = Some(n);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Consults the plan before the `n`-th write (1-based count kept by
    /// the caller). `Err` simulates the write failing with disk-full.
    pub fn check_write(&self, n: u64) -> Result<(), &'static str> {
        if self.fail_write_at == Some(n) {
            Err("injected fault: simulated disk full on write")
        } else {
            Ok(())
        }
    }

    /// Consults the plan before the `n`-th sync (1-based count kept by
    /// the caller). `Err` simulates `fsync` reporting an I/O error.
    pub fn check_sync(&self, n: u64) -> Result<(), &'static str> {
        if self.fail_sync_at == Some(n) {
            Err("injected fault: simulated fsync failure")
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecutionLimits, Interrupt};

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let token = CancellationToken::new();
        for visit in 1..100 {
            plan.fire(visit, &token);
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn panic_fault_fires_at_exact_visit() {
        let mut g = ExecutionLimits::none()
            .with_faults(FaultPlan::new().panic_at_visit(3))
            .start();
        assert!(g.visit_node().is_ok());
        assert!(g.visit_node().is_ok());
        let _ = g.visit_node(); // third visit panics
    }

    #[test]
    fn cancel_fault_trips_guard() {
        let mut g = ExecutionLimits::none()
            .with_faults(FaultPlan::new().cancel_at_visit(2))
            .start();
        assert!(g.visit_node().is_ok());
        assert_eq!(g.visit_node(), Err(Interrupt::Cancelled));
        assert_eq!(g.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn io_fault_plan_fires_at_exact_counts() {
        let plan = IoFaultPlan::new().fail_write_at(3).fail_sync_at(2);
        assert!(!plan.is_empty());
        assert!(plan.check_write(1).is_ok());
        assert!(plan.check_write(2).is_ok());
        assert!(plan.check_write(3).is_err());
        assert!(plan.check_write(4).is_ok());
        assert!(plan.check_sync(1).is_ok());
        assert!(plan.check_sync(2).is_err());
        assert!(plan.check_sync(3).is_ok());

        let inert = IoFaultPlan::new();
        assert!(inert.is_empty());
        for n in 1..50 {
            assert!(inert.check_write(n).is_ok());
            assert!(inert.check_sync(n).is_ok());
        }
    }

    #[test]
    fn stall_fault_burns_deadline() {
        let mut g = ExecutionLimits::none()
            .with_deadline(Duration::from_millis(20))
            .with_faults(FaultPlan::new().stall_at_visit(1, Duration::from_millis(40)))
            .start();
        assert_eq!(g.visit_node(), Err(Interrupt::DeadlineExceeded));
    }
}
