//! Multi-tenant VRF fleet generation.
//!
//! A provider-edge router compiles many logical tables (VRFs) that are
//! mostly the same FIB: every tenant sees the provider's base routes,
//! plus a thin per-tenant layer of private more-specifics and re-homed
//! next-hops. This module builds deterministic synthetic stand-ins for
//! that fleet shape so the cross-table dedup compiler in `fib-core` can
//! be measured end to end:
//!
//! * [`VrfFleetSpec`] — derives `tables` VRF tries from one base FIB,
//!   keeping an `overlap` fraction of routes shared verbatim and
//!   churning the rest per VRF (re-labeled routes plus injected
//!   more-specifics),
//! * [`instance_fleet`] — the same, seeded from a named Table 1 paper
//!   instance (the ISSUE's "64 VRFs derived from taz" fleet),
//! * [`mixed_keys`] / [`MixedKeys`] — an interleaved `(vrf, addr)` probe
//!   stream over the fleet, uniformly or Zipf-weighted across VRFs,
//! * [`fleet_weights`] — the matching per-VRF traffic-weight vector for
//!   cost-model engine placement.
//!
//! Everything is deterministic given a seed.

use std::marker::PhantomData;

use fib_trie::{Address, BinaryTrie, NextHop, Prefix};

use crate::instances;
use crate::rng::{Rng, Xoshiro256};

/// How to derive a fleet of VRF tables from one base FIB.
#[derive(Clone, Copy, Debug)]
pub struct VrfFleetSpec {
    /// Number of VRF tables to derive.
    pub tables: usize,
    /// Fraction of base routes every VRF keeps verbatim (`0.0..=1.0`).
    /// The remaining `1 − overlap` fraction is churned per VRF.
    pub overlap: f64,
    /// Master seed; VRF `v` draws from an independent stream.
    pub seed: u64,
}

/// Contiguous churn runs per VRF. Divergence in a real fleet is not
/// uniform over the table — each tenant re-homes and punches holes in
/// *its own* address blocks — so churn lands in a few address-order
/// clusters. Routes outside the clusters stay bit-identical across the
/// fleet, which is exactly the sharing the cross-table interner folds.
const CHURN_CLUSTERS: usize = 8;

impl VrfFleetSpec {
    /// Derives the fleet. Each VRF starts as an exact copy of `base`;
    /// `round((1 − overlap) · N)` churn events then mutate it, each
    /// either re-homing an existing route to a new next-hop or injecting
    /// a private more-specific under an existing route. Events are
    /// grouped into `CHURN_CLUSTERS` contiguous runs over the routes
    /// in address order (tenant-local divergence), so the untouched
    /// `overlap` fraction stays structurally identical across the whole
    /// fleet.
    ///
    /// # Panics
    /// Panics if `overlap` is not in `0.0..=1.0`.
    #[must_use]
    pub fn generate<A: Address>(&self, base: &BinaryTrie<A>) -> Vec<BinaryTrie<A>> {
        assert!(
            (0.0..=1.0).contains(&self.overlap),
            "overlap must be in [0, 1], got {}",
            self.overlap
        );
        let routes: Vec<(Prefix<A>, NextHop)> = base.iter().collect();
        let delta = routes
            .iter()
            .map(|(_, nh)| nh.index())
            .max()
            .map_or(1, |m| m + 1);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let churn = ((1.0 - self.overlap) * routes.len() as f64).round() as usize;
        (0..self.tables)
            .map(|v| {
                let mut rng = Xoshiro256::seed_from_u64(
                    self.seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut table = base.clone();
                if churn > 0 && !routes.is_empty() {
                    let clusters = churn.min(CHURN_CLUSTERS);
                    for c in 0..clusters {
                        let run = churn / clusters + usize::from(c < churn % clusters);
                        let start = rng.random_range(0..routes.len());
                        for i in 0..run {
                            let (prefix, nh) = routes[(start + i) % routes.len()];
                            churn_route(&mut table, prefix, nh, delta, &mut rng);
                        }
                    }
                }
                table
            })
            .collect()
    }
}

/// One churn event: re-home the route to a fresh next-hop, or hang a
/// private more-specific (1–4 bits longer, random branch) under it.
fn churn_route<A: Address, R: Rng + ?Sized>(
    table: &mut BinaryTrie<A>,
    prefix: Prefix<A>,
    nh: NextHop,
    delta: u32,
    rng: &mut R,
) {
    let relabel = rng.random::<bool>() || prefix.len() >= A::WIDTH;
    if relabel {
        // A new label distinct from the current one (mod δ+1 keeps the
        // alphabet from growing without bound).
        let fresh = (nh.index() + 1 + rng.random_range(0..delta)) % (delta + 1);
        table.insert(prefix, NextHop::new(fresh));
    } else {
        let extend = rng.random_range(1..=4u8).min(A::WIDTH - prefix.len());
        let mut addr = prefix.addr();
        for i in 0..extend {
            if rng.random::<bool>() {
                addr = addr.with_bit(prefix.len() + i);
            }
        }
        let specific = Prefix::new(addr, prefix.len() + extend);
        table.insert(specific, NextHop::new(rng.random_range(0..delta)));
    }
}

/// Builds the canonical fleet: the named paper instance at
/// `scale`, derived into `tables` VRFs at the given `overlap`. Returns
/// `None` for an unknown instance name.
#[must_use]
pub fn instance_fleet(
    name: &str,
    scale: f64,
    tables: usize,
    overlap: f64,
    seed: u64,
) -> Option<Vec<BinaryTrie<u32>>> {
    let base = instances::scaled(name, scale, seed)?;
    Some(
        VrfFleetSpec {
            tables,
            overlap,
            seed: seed.wrapping_add(1),
        }
        .generate(&base),
    )
}

/// Per-VRF traffic weights for cost-model placement: `w_v ∝ 1/(v+1)^s`,
/// normalized to sum to 1. `s = 0` is uniform; `s ≈ 1` models the usual
/// few-hot-tenants skew.
///
/// # Panics
/// Panics if `tables` is 0 or `s` is negative or non-finite.
#[must_use]
pub fn fleet_weights(tables: usize, s: f64) -> Vec<f64> {
    assert!(tables > 0, "need at least one table");
    assert!(s.is_finite() && s >= 0.0, "skew must be finite and >= 0");
    #[allow(clippy::cast_precision_loss)]
    let raw: Vec<f64> = (0..tables)
        .map(|v| 1.0 / ((v + 1) as f64).powf(s))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// An interleaved probe stream over the fleet: `count` pairs of
/// `(vrf id, addr)` — the first `count` of [`MixedKeys`].
///
/// # Panics
/// Panics if `tables` is 0 or `weights` has the wrong length.
#[must_use]
pub fn mixed_keys<A: Address>(
    tables: usize,
    weights: Option<&[f64]>,
    seed: u64,
    count: usize,
) -> Vec<(u32, A)> {
    MixedKeys::new(tables, weights, seed).take(count).collect()
}

/// An endless interleaved probe stream over the fleet: `(vrf id, addr)`
/// pairs, VRF ids `0..tables` drawn from `weights` (see
/// [`fleet_weights`]; uniform when `None`), addresses uniform over the
/// space, the paper's "rand." key model. A forwarding worker draws its
/// keys from one a batch at a time.
pub struct MixedKeys<A> {
    tables: usize,
    cumulative: Option<Vec<f64>>,
    rng: Xoshiro256,
    addr_rng: Xoshiro256,
    addr: PhantomData<A>,
}

impl<A: Address> MixedKeys<A> {
    /// The stream `seed` draws.
    ///
    /// # Panics
    /// Panics if `tables` is 0 or `weights` has the wrong length.
    #[must_use]
    pub fn new(tables: usize, weights: Option<&[f64]>, seed: u64) -> Self {
        assert!(tables > 0, "need at least one table");
        let cumulative = weights.map(|w| {
            assert_eq!(w.len(), tables, "one weight per table");
            let mut acc = 0.0;
            w.iter()
                .map(|x| {
                    acc += x;
                    acc
                })
                .collect()
        });
        Self {
            tables,
            cumulative,
            rng: Xoshiro256::seed_from_u64(seed),
            addr_rng: Xoshiro256::seed_from_u64(seed ^ 0xA5A5_5A5A_F00D_BEEF),
            addr: PhantomData,
        }
    }
}

impl<A: Address> Iterator for MixedKeys<A> {
    type Item = (u32, A);

    fn next(&mut self) -> Option<(u32, A)> {
        let tables = self.tables;
        #[allow(clippy::cast_possible_truncation)]
        let vrf = match &self.cumulative {
            None => self.rng.random_range(0..tables) as u32,
            Some(cum) => {
                let x: f64 = self.rng.random::<f64>() * cum.last().copied().unwrap_or(1.0);
                cum.partition_point(|&c| c <= x).min(tables - 1) as u32
            }
        };
        // The draw `traces::uniform` makes, one address at a time.
        let addr = A::from_u128(self.addr_rng.random::<u128>() >> (128 - u32::from(A::WIDTH)));
        Some((vrf, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genfib::FibSpec;
    use crate::labels::LabelModel;
    use crate::traces;

    fn small_base() -> BinaryTrie<u32> {
        let spec = FibSpec {
            n_prefixes: 2_000,
            max_len: 25,
            depth_bias: 0.35,
            labels: LabelModel::Uniform { delta: 4 },
            spatial_correlation: 0.5,
            default_route: false,
        };
        spec.generate(&mut Xoshiro256::seed_from_u64(7))
    }

    #[test]
    fn fleet_is_deterministic_and_sized() {
        let base = small_base();
        let spec = VrfFleetSpec {
            tables: 5,
            overlap: 0.9,
            seed: 11,
        };
        let a = spec.generate(&base);
        let b = spec.generate(&base);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            let rx: Vec<_> = x.iter().collect();
            let ry: Vec<_> = y.iter().collect();
            assert_eq!(rx, ry);
        }
    }

    #[test]
    fn full_overlap_reproduces_the_base_verbatim() {
        let base = small_base();
        let fleet = VrfFleetSpec {
            tables: 3,
            overlap: 1.0,
            seed: 1,
        }
        .generate(&base);
        let base_routes: Vec<_> = base.iter().collect();
        for table in &fleet {
            let routes: Vec<_> = table.iter().collect();
            assert_eq!(routes, base_routes);
        }
    }

    #[test]
    fn churn_stays_near_the_overlap_budget() {
        let base = small_base();
        let overlap = 0.9;
        let fleet = VrfFleetSpec {
            tables: 4,
            overlap,
            seed: 3,
        }
        .generate(&base);
        let base_routes: std::collections::HashMap<_, _> = base.iter().collect();
        let budget = (1.0 - overlap) * base.len() as f64;
        for table in &fleet {
            let mut changed = 0usize;
            for (p, nh) in table.iter() {
                if base_routes.get(&p) != Some(&nh) {
                    changed += 1;
                }
            }
            assert!(changed > 0, "churn must actually change routes");
            // Each churn event changes at most one route (relabels can
            // collide or no-op); allow slack for the injected specifics.
            assert!(
                (changed as f64) <= budget * 1.05,
                "changed {changed} of {} exceeds churn budget {budget}",
                table.len()
            );
        }
        // Distinct VRFs churn differently.
        let r0: Vec<_> = fleet[0].iter().collect();
        let r1: Vec<_> = fleet[1].iter().collect();
        assert_ne!(r0, r1);
    }

    #[test]
    fn instance_fleet_builds_taz_and_rejects_unknown() {
        let fleet = instance_fleet("taz", 0.01, 3, 0.9, 42).expect("taz exists");
        assert_eq!(fleet.len(), 3);
        assert!(fleet.iter().all(|t| t.len() > 1_000));
        assert!(instance_fleet("nope", 1.0, 1, 0.9, 0).is_none());
    }

    #[test]
    fn fleet_weights_are_normalized_and_skewed() {
        let uniform = fleet_weights(8, 0.0);
        assert!(uniform.iter().all(|&w| (w - 0.125).abs() < 1e-12));
        let zipf = fleet_weights(8, 1.0);
        assert!((zipf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(zipf.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn mixed_keys_cover_all_vrfs_deterministically() {
        let keys: Vec<(u32, u32)> = mixed_keys(4, None, 9, 4_000);
        let again: Vec<(u32, u32)> = mixed_keys(4, None, 9, 4_000);
        assert_eq!(keys, again);
        let addrs = traces::uniform::<u32, _>(
            &mut Xoshiro256::seed_from_u64(9 ^ 0xA5A5_5A5A_F00D_BEEF),
            4_000,
        );
        assert!(
            keys.iter().map(|&(_, a)| a).eq(addrs),
            "the addresses are a uniform trace"
        );
        let mut seen = [false; 4];
        for &(v, _) in &keys {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Skewed draw favors VRF 0.
        let w = fleet_weights(4, 1.0);
        let skewed: Vec<(u32, u32)> = mixed_keys(4, Some(&w), 9, 4_000);
        let hot = skewed.iter().filter(|&&(v, _)| v == 0).count();
        assert!(hot > 1_400, "vrf 0 drew {hot} of 4000");
    }
}
