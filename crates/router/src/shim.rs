//! Synchronization shim: the trait family that lets the `SnapCell`
//! protocol core run unchanged on either real `std::sync` primitives or the
//! `fib-check` model checker's instrumented replacements.
//!
//! The protocol code in [`crate::snapcell`] is generic over [`Shim`]; the production aliases instantiate it with [`crate::snapcell::RealShim`]
//! (plain std atomics, `Box::into_raw` pointers), while `fib-check` provides a
//! `ModelShim` whose every operation is a scheduling point of a deterministic
//! DFS explorer. Keeping one source for both sides is the point: the code the
//! model checker exhaustively explores *is* the code the router ships.

pub use std::sync::atomic::Ordering;

/// A `u64` atomic cell (generation counters, hazard announcements).
pub trait AtomU64: Send + Sync {
    /// A cell initialized to `value`.
    fn new(value: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, value: u64, order: Ordering);
    /// Atomic fetch-add; returns the previous value.
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64;
}

/// An atomic cell holding a copyable pointer-like token (the published
/// snapshot slot).
pub trait AtomCell<P: Copy>: Send + Sync {
    /// A cell initialized to `value`.
    fn new(value: P) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> P;
    /// Atomic swap; returns the previous value.
    fn swap(&self, value: P, order: Ordering) -> P;
}

/// A mutex. The model side turns `lock` into a scheduling point and checks
/// for deadlock; the real side is `std::sync::Mutex`.
pub trait MutexLike<T>: Send + Sync {
    /// The RAII guard `lock` returns.
    type Guard<'a>: std::ops::DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// A mutex around `value`.
    fn new(value: T) -> Self;
    /// Blocks until the mutex is held.
    fn lock(&self) -> Self::Guard<'_>;
    /// Direct access through exclusive ownership (no locking needed).
    fn get_mut(&mut self) -> &mut T;
}

/// The shim: a family of synchronization primitives plus a tiny heap for the
/// snapshot cells the writer allocates and defers reclamation of. The model
/// implementation backs `Ptr` with slab indices so use-after-free and leaks
/// are detected structurally, without any real dangling pointers.
pub trait Shim: Sized + 'static {
    /// The `u64` atomic family member.
    type AtomicU64: AtomU64;
    /// The pointer-cell family member, holding a [`Shim::Ptr`].
    type Cell<V: Send + Sync + 'static>: AtomCell<Self::Ptr<V>>;
    /// The mutex family member.
    type Mutex<T: Send>: MutexLike<T>;
    /// Pointer-like handle to a heap cell holding a `V`.
    type Ptr<V: Send + Sync + 'static>: Copy + Eq + Send;

    /// Moves `value` onto the shim heap, returning its handle.
    fn alloc<V: Send + Sync + 'static>(value: V) -> Self::Ptr<V>;
    /// Reclaim a cell. On the model side, freeing twice or reading after free
    /// is reported as a violation rather than being undefined behavior.
    fn free<V: Send + Sync + 'static>(ptr: Self::Ptr<V>);
    /// Clone the value out of a live cell.
    fn read<V: Clone + Send + Sync + 'static>(ptr: Self::Ptr<V>) -> V;
}

impl AtomU64 for std::sync::atomic::AtomicU64 {
    fn new(value: u64) -> Self {
        std::sync::atomic::AtomicU64::new(value)
    }
    fn load(&self, order: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::load(self, order)
    }
    fn store(&self, value: u64, order: Ordering) {
        std::sync::atomic::AtomicU64::store(self, value, order)
    }
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::fetch_add(self, delta, order)
    }
}

impl<T: Send> MutexLike<T> for std::sync::Mutex<T> {
    type Guard<'a>
        = std::sync::MutexGuard<'a, T>
    where
        Self: 'a,
        T: 'a;
    fn new(value: T) -> Self {
        std::sync::Mutex::new(value)
    }
    fn lock(&self) -> Self::Guard<'_> {
        self.lock().expect("shim mutex poisoned")
    }
    fn get_mut(&mut self) -> &mut T {
        self.get_mut().expect("shim mutex poisoned")
    }
}
