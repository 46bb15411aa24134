//! The publish core both control planes share: [`Publisher`].

use std::collections::VecDeque;
use std::sync::Arc;

use fib_core::ArenaPublish;

use crate::router::RouterStats;
use crate::snapcell::SnapCell;

/// Published snapshots a [`Publisher`] keeps its own [`Arc`] on: the
/// current one, the one the [`SnapCell`] may still hold retired, and one
/// before it, so that a reader a publish late to move on has usually let
/// go of a snapshot by the time this thread drops it.
const KEPT_SNAPSHOTS: usize = 3;

/// The publish half of a control plane: its epoch, the [`SnapCell`]
/// readers load from, the last [`KEPT_SNAPSHOTS`] snapshots published,
/// oldest first — so a retired one is freed on the control thread, not on
/// the forwarding thread that lets go of it last — contained builds, and
/// the control plane's one [`RouterStats`].
pub(crate) struct Publisher<S: Send + Sync + 'static> {
    epoch: u64,
    cell: SnapCell<S>,
    kept: VecDeque<Arc<S>>,
    /// The last build panicked.
    failing: bool,
    /// The control plane's report: its publish half — epochs, records,
    /// builds, staleness — is counted here and nowhere else; the router
    /// that owns this publisher counts the rest.
    pub(crate) stats: RouterStats,
}

impl<S: Send + Sync + 'static> Publisher<S> {
    /// A publisher serving `initial` as `epoch`.
    pub(crate) fn new(epoch: u64, initial: S) -> Self {
        let initial = Arc::new(initial);
        Self {
            epoch,
            cell: SnapCell::new(Arc::clone(&initial)),
            kept: VecDeque::from([initial]),
            failing: false,
            stats: RouterStats {
                epochs: 1,
                ..RouterStats::default()
            },
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

    /// Runs `build`, returning `None` and counting the panic in
    /// [`RouterStats::rebuild_panics`] instead of unwinding into the
    /// control plane.
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
        self.stats.rebuild_panics += 1;
        self.stats.last_rebuild_panic =
            Some(message.unwrap_or_else(|| "build panicked".to_string()));
        self.failing = true;
        None
    }

    /// A publish whose build failed: the published snapshot keeps
    /// serving, flagged stale until the next publish.
    pub(crate) fn serve_stale(&mut self) -> Arc<S> {
        self.stats.serving_stale = true;
        self.cell.load()
    }

    /// Cuts and publishes the next epoch: `cut` gets its number and
    /// returns the snapshot with what the publish handed readers of an
    /// append-only record log, which is counted here (`None` for a
    /// snapshot that copies its engine). Once the ring is full, the
    /// snapshot pushed out of it is dropped here — and freed, unless a
    /// reader still holds it.
    pub(crate) fn publish(&mut self, cut: impl FnOnce(u64) -> (S, Option<ArenaPublish>)) -> Arc<S> {
        if self.kept.len() == KEPT_SNAPSHOTS {
            self.kept.pop_front();
        }
        self.epoch += 1;
        let (snapshot, published) = cut(self.epoch);
        let stats = &mut self.stats;
        stats.epochs += 1;
        stats.serving_stale = false;
        if let Some(published) = published {
            stats.records_written += published.records_written as u64;
            stats.recycled += u64::from(published.shared);
            stats.compactions += u64::from(!published.shared);
        }
        let snapshot = Arc::new(snapshot);
        self.kept.push_back(Arc::clone(&snapshot));
        self.cell.publish(Arc::clone(&snapshot));
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_lets_go_after_kept_snapshots_more_publishes() {
        let mut core = Publisher::new(0, 0u64);
        let first = core.publish(|epoch| (epoch, None));
        for more in 1..=KEPT_SNAPSHOTS {
            assert!(Arc::strong_count(&first) > 1, "released after {more}");
            core.publish(|epoch| (epoch, None));
        }
        assert_eq!(Arc::strong_count(&first), 1, "the core still holds it");
        assert_eq!(core.epoch(), 1 + KEPT_SNAPSHOTS as u64);
    }

    #[test]
    fn the_publish_half_is_counted_from_what_each_cut_hands_over() {
        let mut core = Publisher::new(0, 0u64);
        let log = |records_written, shared| {
            let published = ArenaPublish {
                records_written,
                shared,
            };
            move |epoch| (epoch, Some(published))
        };
        core.publish(log(10, false));
        core.publish(log(3, true));
        core.publish(|epoch| (epoch, None));
        assert!(core.build(|| panic!("poisoned")).is_none());
        core.serve_stale();
        let stats = &core.stats;
        let counts = (stats.epochs, stats.records_written, stats.recycled);
        assert_eq!((counts, stats.compactions), ((4, 13, 1), 1));
        assert_eq!(stats.rebuild_panics, 1);
        assert_eq!(stats.last_rebuild_panic.as_deref(), Some("poisoned"));
        assert!(stats.serving_stale);
        core.publish(|epoch| (epoch, None));
        assert!(!core.stats.serving_stale, "a publish serves fresh");
    }
}
