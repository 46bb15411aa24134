//! Model-side implementations of the `fib_router::shim` trait family.
//!
//! [`ModelShim`] is the second instantiation of the shim that
//! [`fib_router::snapcell::SnapCellCore`] is generic over: every atomic access, mutex acquisition, and heap-cell
//! read/free becomes a scheduling point of the [`crate::model`]
//! explorer, and the "heap" is a slab with liveness flags so
//! use-after-free is a detected violation instead of undefined
//! behavior. The protocol source under test is *identical* to what the
//! router ships — only the primitives change.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use fib_router::shim::{AtomCell, AtomU64, MutexLike, Ordering, Shim};

use crate::model;

/// Model `u64` atomic: a location id in the current execution's store
/// history.
#[derive(Debug)]
pub struct ModelAtomicU64 {
    loc: usize,
}

impl AtomU64 for ModelAtomicU64 {
    fn new(value: u64) -> Self {
        Self {
            loc: model::loc_new(value),
        }
    }
    fn load(&self, order: Ordering) -> u64 {
        model::atomic_load(self.loc, order)
    }
    fn store(&self, value: u64, order: Ordering) {
        model::atomic_store(self.loc, value, order);
    }
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64 {
        model::atomic_rmw(self.loc, order, |old| old.wrapping_add(delta))
    }
}

/// Model pointer: a slab cell id. `Copy + Eq` without any bound on `V`,
/// like a raw pointer — and like a raw pointer it can dangle, except
/// here a dangling read is a *reported violation*, not UB.
pub struct ModelPtr<V> {
    id: u64,
    _ph: PhantomData<fn() -> V>,
}

impl<V> Clone for ModelPtr<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for ModelPtr<V> {}
impl<V> PartialEq for ModelPtr<V> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<V> Eq for ModelPtr<V> {}
impl<V> std::fmt::Debug for ModelPtr<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelPtr({})", self.id)
    }
}

/// Model pointer-sized atomic cell: the slab id is stored as a `u64` in
/// an ordinary model location, so publication ordering on the pointer
/// is explored exactly like any other atomic.
#[derive(Debug)]
pub struct ModelAtomicCell<V> {
    loc: usize,
    _ph: PhantomData<fn() -> V>,
}

impl<V: Send + Sync + 'static> AtomCell<ModelPtr<V>> for ModelAtomicCell<V> {
    fn new(value: ModelPtr<V>) -> Self {
        Self {
            loc: model::loc_new(value.id),
            _ph: PhantomData,
        }
    }
    fn load(&self, order: Ordering) -> ModelPtr<V> {
        ModelPtr {
            id: model::atomic_load(self.loc, order),
            _ph: PhantomData,
        }
    }
    fn swap(&self, value: ModelPtr<V>, order: Ordering) -> ModelPtr<V> {
        ModelPtr {
            id: model::atomic_rmw(self.loc, order, move |_| value.id),
            _ph: PhantomData,
        }
    }
}

/// Model mutex: acquisition is a scheduling point with deadlock
/// detection and a happens-before baton; the data itself lives in an
/// ordinary `std::sync::Mutex` (never contended — the model runs one
/// thread at a time) so this crate stays free of `unsafe`.
#[derive(Debug)]
pub struct ModelMutex<T> {
    mid: usize,
    data: std::sync::Mutex<T>,
}

/// Guard returned by [`ModelMutex`]'s `lock`. Dropping it performs the
/// model unlock (a scheduling point) and then releases the inner lock;
/// no other model thread can run between the two, so the pair is
/// atomic from the model's point of view.
pub struct ModelGuard<'a, T> {
    mid: usize,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for ModelGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for ModelGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for ModelGuard<'_, T> {
    fn drop(&mut self) {
        // Model-unlock first (scheduling point), then release the real
        // lock. We remain the active thread throughout, and the next
        // model-granted locker only touches `data` after *its* lock
        // scheduling point, by which time the real guard is gone.
        model::mutex_unlock(self.mid);
        self.inner.take();
    }
}

impl<T: Send> MutexLike<T> for ModelMutex<T> {
    type Guard<'a>
        = ModelGuard<'a, T>
    where
        Self: 'a,
        T: 'a;
    fn new(value: T) -> Self {
        Self {
            mid: model::mutex_new(),
            data: std::sync::Mutex::new(value),
        }
    }
    fn lock(&self) -> Self::Guard<'_> {
        model::mutex_lock(self.mid);
        ModelGuard {
            mid: self.mid,
            inner: Some(
                self.data
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
        }
    }
    fn get_mut(&mut self) -> &mut T {
        self.data
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The model instantiation of the router's synchronization shim.
#[derive(Debug)]
pub struct ModelShim;

impl Shim for ModelShim {
    type AtomicU64 = ModelAtomicU64;
    type Cell<V: Send + Sync + 'static> = ModelAtomicCell<V>;
    type Mutex<T: Send> = ModelMutex<T>;
    type Ptr<V: Send + Sync + 'static> = ModelPtr<V>;

    fn alloc<V: Send + Sync + 'static>(value: V) -> Self::Ptr<V> {
        ModelPtr {
            id: model::slab_alloc(Box::new(value)),
            _ph: PhantomData,
        }
    }
    fn free<V: Send + Sync + 'static>(ptr: Self::Ptr<V>) {
        model::slab_free(ptr.id);
    }
    fn read<V: Clone + Send + Sync + 'static>(ptr: Self::Ptr<V>) -> V {
        model::slab_read::<V>(ptr.id)
    }
}

/// The production `SnapCell` protocol running on model primitives.
pub type ModelSnapCell<T> = fib_router::snapcell::SnapCellCore<T, ModelShim>;
/// The production reader handle running on model primitives.
pub type ModelSnapReader<T> = fib_router::snapcell::SnapReaderCore<T, ModelShim>;
