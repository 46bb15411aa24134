//! The publish core both control planes share: [`Publisher`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::router::RouterHealth;
use crate::snapcell::SnapCell;

/// Published snapshots a [`Publisher`] keeps its own [`Arc`] on: the
/// current one, the one the [`SnapCell`] may still hold retired, and one
/// before it, so that a reader a publish late to move on has usually let
/// go of a snapshot by the time this thread drops it.
const KEPT_SNAPSHOTS: usize = 3;

/// The publish half of a control plane: its epoch, the [`SnapCell`]
/// readers load from, the last [`KEPT_SNAPSHOTS`] snapshots published,
/// oldest first — so a retired one is freed on the control thread, not on
/// the forwarding thread that lets go of it last — and contained builds.
pub(crate) struct Publisher<S: Send + Sync + 'static> {
    epoch: u64,
    cell: SnapCell<S>,
    kept: VecDeque<Arc<S>>,
    panics: u64,
    last_panic: Option<String>,
    /// The last build panicked.
    failing: bool,
    /// The last publish could not build; readers get the last good epoch.
    serving_stale: bool,
}

impl<S: Send + Sync + 'static> Publisher<S> {
    /// A publisher serving `initial` as `epoch`.
    pub(crate) fn new(epoch: u64, initial: S) -> Self {
        let initial = Arc::new(initial);
        Self {
            epoch,
            cell: SnapCell::new(Arc::clone(&initial)),
            kept: VecDeque::from([initial]),
            panics: 0,
            last_panic: None,
            failing: false,
            serving_stale: false,
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn cell(&self) -> &SnapCell<S> {
        &self.cell
    }

    /// Whether the last build run through [`Self::build`] panicked.
    pub(crate) fn failing(&self) -> bool {
        self.failing
    }

    /// Runs `build`, returning `None` and recording the panic for the
    /// health report instead of unwinding into the control plane.
    pub(crate) fn build<T>(&mut self, build: impl FnOnce() -> T) -> Option<T> {
        let panic = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
            Ok(built) => {
                self.failing = false;
                return Some(built);
            }
            Err(panic) => panic,
        };
        let message = panic.downcast_ref::<&str>().map(ToString::to_string);
        let message = message.or_else(|| panic.downcast_ref::<String>().cloned());
        self.panics += 1;
        self.last_panic = Some(message.unwrap_or_else(|| "build panicked".to_string()));
        self.failing = true;
        None
    }

    /// A publish whose build failed: the published snapshot keeps
    /// serving, flagged stale until the next publish.
    pub(crate) fn serve_stale(&mut self) -> Arc<S> {
        self.serving_stale = true;
        self.cell.load()
    }

    /// Cuts and publishes the next epoch: `cut` gets its number. Once the
    /// ring is full, the snapshot pushed out of it is dropped here — and
    /// freed, unless a reader still holds it.
    pub(crate) fn publish(&mut self, cut: impl FnOnce(u64) -> S) -> Arc<S> {
        if self.kept.len() == KEPT_SNAPSHOTS {
            self.kept.pop_front();
        }
        self.epoch += 1;
        self.serving_stale = false;
        let snapshot = Arc::new(cut(self.epoch));
        self.kept.push_back(Arc::clone(&snapshot));
        self.cell.publish(Arc::clone(&snapshot));
        snapshot
    }

    /// `base` with the build half of the report filled in.
    pub(crate) fn report(&self, base: RouterHealth) -> RouterHealth {
        RouterHealth {
            rebuild_panics: self.panics,
            last_rebuild_panic: self.last_panic.clone(),
            serving_stale: self.serving_stale,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_lets_go_after_kept_snapshots_more_publishes() {
        let mut core = Publisher::new(0, 0u64);
        let first = core.publish(|epoch| epoch);
        for more in 1..=KEPT_SNAPSHOTS {
            assert!(Arc::strong_count(&first) > 1, "released after {more}");
            core.publish(|epoch| epoch);
        }
        assert_eq!(Arc::strong_count(&first), 1, "the core still holds it");
        assert_eq!(core.epoch(), 1 + KEPT_SNAPSHOTS as u64);
    }
}
