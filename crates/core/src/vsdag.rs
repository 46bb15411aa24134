//! Traffic-weighted variable-stride multibit prefix DAG (`vsdag`).
//!
//! The paper's §7 names multibit prefix DAGs as the direction beyond the
//! λ-barrier: re-chunk the leaf-pushed normal form into stride-`s`
//! supernodes (each consuming `s` address bits through a 2^s-way slot
//! array, leaves duplicated into every slot they cover — controlled
//! prefix expansion) and hash-cons the supernodes like the binary prefix
//! DAG. A constant stride spends the same fanout everywhere, and the
//! paper's λ-optimization (Eqs. 2–3) picks one global leaf-push barrier
//! assuming uniform access. Both leave measured traffic on the table:
//! under zipf-shaped load the popular prefixes sit deep and every packet
//! pays the full walk. `VarStrideDag` generalizes both — the stride is
//! chosen **per node** by a dynamic program over the leaf-pushed normal
//! form that minimizes expected traffic-weighted lookup depth
//!
//! ```text
//! C(v) = w(v) + min_{s ∈ [1, max_stride]} [ μ·2^s + Σ_{c ∈ I_s(v)} C(c) ]
//! ```
//!
//! where `w(v)` is the fraction of traffic whose lookup passes through
//! `v` (projected from a heat summary, or the uniform address fraction
//! when no heat is attached), `I_s(v)` are the internal descendants at
//! depth exactly `s` (the slots that recurse after controlled prefix
//! expansion), and `μ` is a Lagrangian slot penalty bisected until the
//! plan's pre-dedup slot mass fits a configurable multiple of the fixed
//! stride-4 plan. `μ = 0` with uniform weights degenerates to the best
//! fixed stride (and beats it when mixing strides pays); `max_stride = 1`
//! degenerates to the binary prefix DAG. The constant stride itself is
//! the other way to fill in the per-node choice — [`StridePlan::Fixed`],
//! spelled [`MultibitDag::from_trie`] at call sites — and goes through
//! the same emitter, view, kernels and image codec as a planned one.
//!
//! The emitted structure is two flat word strings shared verbatim by the
//! owned builder and the zero-copy [`VarStrideDagRef`] a FIB image
//! borrows: a node directory (one `u64` per supernode: stride in the
//! upper half, first-slot index in the lower) and a packed slot table
//! (two tagged 32-bit references per word; every node's array is
//! word-aligned because 2^s is even). Nodes are hash-consed per
//! `(stride, slots)` shape, and children always precede their parent in
//! the directory, so untrusted images are validated by one monotonicity
//! scan and the walk provably terminates.

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::idhash::IdBuildHasher;
use fib_succinct::storage::get_u32 as slot_at;
use fib_trie::{project_heat_weights, Address, BinaryTrie, Depth, NextHop, ProperNode, ProperTrie};

const LEAF_TAG: u32 = 0x8000_0000;
const BOT: u32 = 0x7FFF_FFFF;

/// The next-hop a leaf-tagged reference carries (`None` for ⊥).
#[inline]
fn leaf_hop(reference: u32) -> Option<NextHop> {
    let label = reference & !LEAF_TAG;
    (label != BOT).then(|| NextHop::new(label))
}

/// In-flight walks of the rolling-refill kernel behind
/// [`VarStrideDagRef::lookup_batch`]. Each slot owns one walk and takes
/// the next address the moment its walk resolves, so the (short —
/// usually one or two slot reads) dependency chains of eight lookups
/// overlap instead of convoying on the slowest chunk member. Eight
/// matches the XBW retune's lane sweep: enough chains to saturate the
/// load ports on a cache-resident table, few enough that the lane
/// state stays in registers.
pub const VS_REFILL_LANES: usize = 8;

/// Knobs of the stride-placement dynamic program.
#[derive(Clone, Copy, Debug)]
pub struct VsParams {
    /// Widest per-node stride the DP may choose (1 ≤ max_stride ≤ 16).
    pub max_stride: u8,
    /// Slot budget as a multiple of the fixed stride-4 plan's pre-dedup
    /// slot mass; `f64::INFINITY` disables the budget (pure
    /// depth-minimizing placement).
    pub budget: f64,
}

impl Default for VsParams {
    /// Tuned on taz 0.1 with zipf(1.0) heat: stride cap 12 keeps the
    /// root table L2-sized, and a 0.6× pre-dedup budget lands the
    /// *post*-dedup image around 1.2× the hash-consed fixed stride-4
    /// plan's slots (stride-4 dedup removes ~2.4× of the pre-dedup
    /// slot mass, so a sub-1.0 pre-dedup multiple is not a shrink) —
    /// inside the 1.5× size gate, at ~1.1/~2.0 expected hops for
    /// uniform/zipf traffic (both pinned by
    /// `crates/bench/tests/design_gates.rs`).
    fn default() -> Self {
        Self {
            max_stride: 12,
            budget: 0.6,
        }
    }
}

/// Where a [`VarStrideDag`]'s per-node strides come from — what
/// [`VarStrideDag::from_trie`] takes, as a bare `u8` or a [`VsParams`].
#[derive(Clone, Copy, Debug)]
pub enum StridePlan {
    /// The same stride (1 ≤ stride ≤ 16) at every supernode: the
    /// fixed-stride multibit prefix DAG. Stride 1 is the binary prefix
    /// DAG with λ = 0; wider strides trade sharing for depth (lookup
    /// reads `⌈W/s⌉` slots worst case).
    Fixed(u8),
    /// Strides placed by the DP under these knobs, uniform weights.
    Planned(VsParams),
}

impl From<u8> for StridePlan {
    fn from(stride: u8) -> Self {
        Self::Fixed(stride)
    }
}

impl From<VsParams> for StridePlan {
    fn from(params: VsParams) -> Self {
        Self::Planned(params)
    }
}

/// The fixed-stride multibit DAG under the name the benches and the
/// ablation sweep know it by: `MultibitDag::from_trie(&trie, 4)` is a
/// [`VarStrideDag`] whose plan is [`StridePlan::Fixed`]. It is an alias,
/// not a second structure — anything typed `MultibitDag<A>` builds
/// through [`crate::FibBuild`] exactly as a `VarStrideDag<A>` does.
pub type MultibitDag<A> = VarStrideDag<A>;

/// A traffic-weighted variable-stride multibit prefix DAG (owned builder;
/// queries run on the borrowed [`VarStrideDagRef`]).
#[derive(Clone, Debug)]
pub struct VarStrideDag<A: Address> {
    /// Node directory: `stride << 32 | first_slot_index` per supernode.
    nodes: Vec<u64>,
    /// Slot arrays, flattened and packed two tagged references per word.
    words: Vec<u64>,
    /// Number of slots (tagged references) stored in `words`.
    n_slots: usize,
    /// Tagged reference to the root.
    root: u32,
    /// Expected traffic-weighted slot reads the DP planned for; `None`
    /// for a fixed plan, where nothing was planned.
    plan_cost: Option<f64>,
    /// The slot penalty μ the plan was solved at, for the next compile of
    /// a nearby table to start from ([`Self::rebuild_from`]). `None` when
    /// no budget shaped the plan: a fixed plan, `budget = ∞`, or a budget
    /// nothing can meet. Compile-time state like `plan_cost`: not part of
    /// [`Self::size_bytes`], not in the image.
    held_mu: Option<f64>,
    /// DP rounds the compile that produced this engine ran.
    solves: u32,
    _marker: PhantomData<A>,
}

/// Borrowed zero-copy view of a [`VarStrideDag`].
#[derive(Clone, Copy, Debug)]
pub struct VarStrideDagRef<'a, A: Address> {
    nodes: &'a [u64],
    words: &'a [u64],
    n_slots: usize,
    root: u32,
    _marker: PhantomData<A>,
}

/// One stride plan: per-proper-node stride choice plus the aggregate
/// traffic cost (expected slot reads) and pre-dedup slot mass it implies.
struct Plan {
    choice: Vec<u8>,
    cost: f64,
    mass: u64,
}

/// Work arrays of [`solve`], allocated once per compile and reused by
/// every round of the μ search. A round writes each internal node's entry
/// (children before parents) before it reads it, and nothing reads a
/// leaf's, so no array is cleared between rounds.
struct Scratch {
    choice: Vec<u8>,
    pcost: Vec<f64>,
    cost: Vec<f64>,
    mass: Vec<u64>,
    stack: Vec<(u32, bool)>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            choice: vec![0; n],
            pcost: vec![0.0; n],
            cost: vec![0.0; n],
            mass: vec![0; n],
            stack: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// Runs the DP recurrence bottom-up for one Lagrangian penalty `mu`
/// (traffic cost per slot). Leaves the per-node choice that minimizes
/// `cost + mu·mass` in `scratch.choice` and returns the unpenalized
/// `(cost, mass)` it achieves.
fn solve<A: Address>(
    proper: &ProperTrie<A>,
    weights: &[f64],
    max_stride: u8,
    mu: f64,
    scratch: &mut Scratch,
) -> (f64, u64) {
    let Scratch {
        choice,
        pcost,
        cost,
        mass,
        stack,
        frontier,
        next,
    } = scratch;
    stack.clear();
    stack.push((proper.root_idx(), false));
    while let Some((idx, expanded)) = stack.pop() {
        let ProperNode::Internal { left, right } = *proper.node(idx) else {
            continue;
        };
        if !expanded {
            stack.push((idx, true));
            stack.push((left, false));
            stack.push((right, false));
            continue;
        }
        // The frontier holds the internal descendants at depth exactly s
        // — the slots that recurse; each candidate stride extends the
        // previous one's frontier by one level instead of re-walking the
        // subtree per candidate.
        frontier.clear();
        let mut psum = 0.0;
        let mut csum = 0.0;
        let mut msum = 0u64;
        for c in [left, right] {
            if matches!(proper.node(c), ProperNode::Internal { .. }) {
                frontier.push(c);
                psum += pcost[c as usize];
                csum += cost[c as usize];
                msum += mass[c as usize];
            }
        }
        let mut best_s = 1u8;
        let mut best_p = mu * 2.0 + psum;
        let mut best_c = csum;
        let mut best_m = 2 + msum;
        for s in 2..=max_stride {
            if frontier.is_empty() {
                // Every path already hit a leaf: wider strides only add
                // slots.
                break;
            }
            next.clear();
            psum = 0.0;
            csum = 0.0;
            msum = 0;
            for &f in frontier.iter() {
                let ProperNode::Internal { left, right } = *proper.node(f) else {
                    unreachable!("frontier holds internal nodes")
                };
                for c in [left, right] {
                    if matches!(proper.node(c), ProperNode::Internal { .. }) {
                        next.push(c);
                        psum += pcost[c as usize];
                        csum += cost[c as usize];
                        msum += mass[c as usize];
                    }
                }
            }
            std::mem::swap(frontier, next);
            let width = 1u64 << s;
            let p = mu * width as f64 + psum;
            if p < best_p {
                best_p = p;
                best_s = s;
                best_c = csum;
                best_m = width + msum;
            }
        }
        let w = weights[idx as usize];
        choice[idx as usize] = best_s;
        pcost[idx as usize] = w + best_p;
        cost[idx as usize] = w + best_c;
        mass[idx as usize] = best_m;
    }
    let r = proper.root_idx() as usize;
    (cost[r], mass[r])
}

/// Pre-dedup slot mass of the fixed-stride-`s` plan — the budget's unit.
fn forced_mass<A: Address>(proper: &ProperTrie<A>, s: u8) -> u64 {
    if !matches!(proper.node(proper.root_idx()), ProperNode::Internal { .. }) {
        return 0;
    }
    let mut total = 0u64;
    let mut stack = vec![proper.root_idx()];
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    while let Some(idx) = stack.pop() {
        total += 1u64 << s;
        frontier.clear();
        frontier.push(idx);
        for _ in 0..s {
            next.clear();
            for &f in &frontier {
                if let ProperNode::Internal { left, right } = *proper.node(f) {
                    for c in [left, right] {
                        if matches!(proper.node(c), ProperNode::Internal { .. }) {
                            next.push(c);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        stack.extend_from_slice(&frontier);
    }
    total
}

/// A held-μ rebuild accepts a plan whose pre-dedup mass is at least
/// `budget − budget / REPLAN_BAND_DIV`; under that floor the held penalty
/// has become too harsh for the table (withdrawals, a new heat profile)
/// and the cold search re-anchors it. 1/32 is wide beside the drift of
/// steady churn — over forty 100-update `bgp_sequence` bursts on taz 1.0
/// (410k routes) the mass at the first compile's μ moves 0.9964 → 0.9872
/// of the budget — and keeps `size_bytes` within 1/32 (plus what folding
/// moves) under a cold compile's, never more than 2 % over it. The same
/// width bounds the overshoot a walk-up is tried on: past
/// `budget + budget / REPLAN_BAND_DIV` no four steps come back.
const REPLAN_BAND_DIV: u64 = 32;

/// When the mass at the held μ overshoots the budget, the rebuild walks μ
/// up by this factor, at most [`REPLAN_MAX_STEPS`] times, before it gives
/// up and declines. Measured elasticity near the optimum on taz 1.0:
/// μ × 1.0156 moves the mass −0.25 %, μ × 1.0625 moves it −1.3 %, so one
/// step buys several hundred bursts of headroom — hysteresis against
/// re-bisecting every other publish — and four steps stay well inside
/// the floor above.
const REPLAN_STEP: f64 = 1.0 + 1.0 / 64.0;
const REPLAN_MAX_STEPS: u32 = 4;

/// Expansion rounds of the cold search (`hi *= 4` from 1e-12; the default
/// budget takes about nine) after which it stops to ask whether *any*
/// penalty can fit the budget.
const FEASIBILITY_ROUNDS: u32 = 12;

/// A penalty that makes the DP minimize slot mass alone: 2^100 times an
/// integer mass is exact in an `f64`, and a traffic weight (≤ 1) added to
/// it is rounded away, so the objective *is* the integer mass — ties go to
/// the narrower stride, which also folds best — while the plan's cost is
/// still summed from the real weights.
const MASS_ONLY_MU: f64 = (1u128 << 100) as f64;

/// What every planned compile sets up — the leaf-pushed trie, its traffic
/// weights and the budget in slots — and the DP rounds run over it: the
/// cold μ search and the held-μ rebuild share this and nothing else.
struct Planner<A: Address> {
    proper: ProperTrie<A>,
    weights: Vec<f64>,
    max_stride: u8,
    /// The budget in pre-dedup slots; `None` when unbounded.
    budget_slots: Option<u64>,
    scratch: Scratch,
    solves: u32,
}

impl<A: Address> Planner<A> {
    /// # Panics
    /// Panics if `params.max_stride` is outside `[1, 16]`.
    fn new(trie: &BinaryTrie<A>, params: VsParams, heat: Option<(&[(u64, u64)], u8)>) -> Self {
        let max_stride = params.max_stride;
        assert!(
            (1..=16).contains(&max_stride),
            "max_stride {max_stride} out of [1, 16]"
        );
        let proper = ProperTrie::from_trie(trie);
        let spans = proper.node_spans();
        let weights = match heat {
            Some((entries, depth)) => project_heat_weights(&spans, entries, depth),
            None => project_heat_weights(&spans, &[], 0),
        };
        let budget_slots = params.budget.is_finite().then(|| {
            let reference = forced_mass(&proper, 4).max(1);
            (params.budget * reference as f64) as u64
        });
        let scratch = Scratch::new(proper.node_count());
        Self {
            proper,
            weights,
            max_stride,
            budget_slots,
            scratch,
            solves: 0,
        }
    }

    /// One DP round at penalty `mu`.
    fn solve(&mut self, mu: f64) -> Plan {
        self.solves += 1;
        let (cost, mass) = solve(
            &self.proper,
            &self.weights,
            self.max_stride,
            mu,
            &mut self.scratch,
        );
        Plan {
            choice: self.scratch.choice.clone(),
            cost,
            mass,
        }
    }

    /// The cold search: the cheapest plan that fits the budget, and the
    /// penalty it was solved at — what the next compile of a nearby table
    /// may hold (`None` when there is no budget, or none can be met).
    fn search(&mut self) -> (Plan, Option<f64>) {
        let plan = self.solve(0.0);
        let Some(budget) = self.budget_slots else {
            return (plan, None);
        };
        if plan.mass <= budget {
            return (plan, Some(0.0));
        }
        // Bisect the Lagrangian slot penalty: mass is monotone
        // non-increasing in μ, so the smallest feasible μ gives the
        // cheapest plan that fits.
        let mut lo = 0.0f64;
        let mut hi = 1e-12f64;
        let mut plan = self.solve(hi);
        let mut rounds = 0;
        while plan.mass > budget && rounds < 60 {
            if rounds == FEASIBILITY_ROUNDS {
                // Even the tightest achievable plan may exceed the budget
                // (the stride-4 reference can be unusually small): ship
                // that one instead of expanding to the end.
                let tightest = self.solve(MASS_ONLY_MU);
                if tightest.mass > budget {
                    return (tightest, None);
                }
            }
            hi *= 4.0;
            plan = self.solve(hi);
            rounds += 1;
        }
        if plan.mass > budget {
            return (plan, None);
        }
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            let mid_plan = self.solve(mid);
            if mid_plan.mass <= budget {
                hi = mid;
                plan = mid_plan;
            } else {
                lo = mid;
            }
        }
        (plan, Some(hi))
    }

    /// The rebuild from a previous compile's penalty: one round at `held`,
    /// accepted iff its mass lands in `[budget − budget/32, budget]`; an
    /// overshoot of less than that width walks μ up a few [`REPLAN_STEP`]s
    /// first. `None` hands the compile to [`Self::search`], which
    /// re-anchors μ. A plan held at μ = 0 has no floor: nothing cheaper
    /// exists.
    fn replan(&mut self, held: f64) -> Option<(Plan, f64)> {
        let budget = self.budget_slots?;
        if held == 0.0 {
            let plan = self.solve(0.0);
            return (plan.mass <= budget).then_some((plan, 0.0));
        }
        let band = budget / REPLAN_BAND_DIV;
        let mut mu = held;
        for _ in 0..=REPLAN_MAX_STEPS {
            let plan = self.solve(mu);
            if plan.mass <= budget {
                return (plan.mass >= budget - band).then_some((plan, mu));
            }
            if plan.mass > budget + band {
                break;
            }
            mu *= REPLAN_STEP;
        }
        None
    }

    /// Emits `plan`, stamped with the penalty to hold and the rounds run.
    fn finish(self, plan: &Plan, held_mu: Option<f64>) -> VarStrideDag<A> {
        // The weights and work arrays are done: free them ahead of the
        // emitter's own allocations.
        let Self { proper, solves, .. } = self;
        VarStrideDag {
            plan_cost: Some(plan.cost),
            held_mu,
            solves,
            ..VarStrideDag::emit(&proper, &plan.choice)
        }
    }
}

struct Emitter<'a, A: Address> {
    proper: &'a ProperTrie<A>,
    choice: &'a [u8],
    slots: Vec<u32>,
    nodes: Vec<u64>,
    interner: HashMap<(u8, Box<[u32]>), u32, IdBuildHasher>,
}

impl<A: Address> Emitter<'_, A> {
    /// Encodes the proper-trie node `idx` as a tagged reference.
    fn encode(&mut self, idx: u32) -> u32 {
        match *self.proper.node(idx) {
            ProperNode::Leaf(label) => LEAF_TAG | label.map_or(BOT, |nh| nh.index()),
            ProperNode::Internal { .. } => {
                let stride = self.choice[idx as usize];
                let width = 1usize << stride;
                let mut children = Vec::with_capacity(width);
                for slot in 0..width {
                    children.push(self.encode_slot(idx, slot as u32, stride));
                }
                let key = (stride, children.into_boxed_slice());
                if let Some(&existing) = self.interner.get(&key) {
                    return existing;
                }
                let node = self.nodes.len() as u32;
                let base = self.slots.len() as u32;
                self.slots.extend_from_slice(&key.1);
                // Children were interned before their parent, so every
                // interior slot reference is a strictly smaller directory
                // index — the monotonicity `from_parts` re-checks.
                self.nodes.push(u64::from(stride) << 32 | u64::from(base));
                self.interner.insert(key, node);
                node
            }
        }
    }

    /// Walks `stride` bits (MSB-first bits of `slot`) down from `idx`,
    /// duplicating early leaves into the slot (controlled prefix
    /// expansion).
    fn encode_slot(&mut self, mut idx: u32, slot: u32, stride: u8) -> u32 {
        for depth in 0..stride {
            match *self.proper.node(idx) {
                ProperNode::Leaf(label) => {
                    return LEAF_TAG | label.map_or(BOT, |nh| nh.index());
                }
                ProperNode::Internal { left, right } => {
                    let bit = (slot >> (stride - 1 - depth)) & 1 == 1;
                    idx = if bit { right } else { left };
                }
            }
        }
        self.encode(idx)
    }
}

impl<A: Address> VarStrideDag<A> {
    /// Compiles `trie` under `plan`: a bare `u8` is one constant stride
    /// at every node ([`StridePlan::Fixed`]), a [`VsParams`] the DP with
    /// uniform per-node weights (every address equally likely) — the
    /// heat-free fallback of [`Self::from_trie_weighted`].
    ///
    /// # Panics
    /// Panics if the stride, or `max_stride`, is outside `[1, 16]`.
    #[must_use]
    pub fn from_trie(trie: &BinaryTrie<A>, plan: impl Into<StridePlan>) -> Self {
        match plan.into() {
            StridePlan::Planned(params) => Self::from_trie_weighted(trie, params, None),
            StridePlan::Fixed(stride) => {
                assert!((1..=16).contains(&stride), "stride {stride} out of [1, 16]");
                let proper = ProperTrie::from_trie(trie);
                Self::emit(&proper, &vec![stride; proper.node_count()])
            }
        }
    }

    /// Compiles `trie` with strides placed by the traffic-weighted DP.
    ///
    /// `heat` is `(entries, depth)` in the workload `HeatSummary` shape:
    /// MSB-aligned `u64` prefix keys truncated to `depth` bits with hit
    /// counts. `None` (or an all-zero summary) falls back to the uniform
    /// address-fraction distribution.
    ///
    /// # Panics
    /// Panics if `params.max_stride` is outside `[1, 16]`.
    #[must_use]
    pub fn from_trie_weighted(
        trie: &BinaryTrie<A>,
        params: VsParams,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Self {
        let mut planner = Planner::new(trie, params, heat);
        let (plan, held_mu) = planner.search();
        planner.finish(&plan, held_mu)
    }

    /// Compiles `trie` as [`Self::from_trie_weighted`] would a nearby
    /// table, starting from the penalty μ `previous` was solved at instead
    /// of searching for it: one DP round where the search runs some
    /// thirty. `None` when `previous` holds no μ, or the plan at it (after
    /// at most four small steps up) misses `[budget − budget/32, budget]`
    /// in pre-dedup slots — the caller then compiles cold, which
    /// re-anchors μ. Whatever is returned is a complete compile of `trie`;
    /// only its μ is inherited.
    ///
    /// # Panics
    /// Panics if `params.max_stride` is outside `[1, 16]`.
    #[must_use]
    pub fn rebuild_from(
        previous: &Self,
        trie: &BinaryTrie<A>,
        params: VsParams,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Option<Self> {
        let held = previous.held_mu?;
        let mut planner = Planner::new(trie, params, heat);
        let (plan, mu) = planner.replan(held)?;
        Some(planner.finish(&plan, Some(mu)))
    }

    /// Compiles `trie` at exactly the slot penalty `mu` — one DP round, no
    /// budget test. This is the from-scratch reference a held-μ rebuild
    /// must equal bit for bit; serving code wants
    /// [`Self::from_trie_weighted`].
    ///
    /// # Panics
    /// Panics if `params.max_stride` is outside `[1, 16]`.
    #[must_use]
    pub fn from_trie_at(
        trie: &BinaryTrie<A>,
        params: VsParams,
        heat: Option<(&[(u64, u64)], u8)>,
        mu: f64,
    ) -> Self {
        let mut planner = Planner::new(trie, params, heat);
        let plan = planner.solve(mu);
        planner.finish(&plan, Some(mu))
    }

    /// Emits the hash-consed directory and slot table for one stride per
    /// proper-trie node — the step planned and fixed strides share.
    fn emit(proper: &ProperTrie<A>, choice: &[u8]) -> Self {
        let mut emitter = Emitter {
            proper,
            choice,
            slots: Vec::new(),
            nodes: Vec::new(),
            interner: HashMap::default(),
        };
        let root = emitter.encode(proper.root_idx());
        let n_slots = emitter.slots.len();
        let mut words = Vec::with_capacity(n_slots.div_ceil(2));
        for pair in emitter.slots.chunks(2) {
            let lo = u64::from(pair[0]);
            let hi = pair.get(1).map_or(0, |&s| u64::from(s));
            words.push(lo | (hi << 32));
        }
        Self {
            nodes: emitter.nodes,
            words,
            n_slots,
            root,
            plan_cost: None,
            held_mu: None,
            solves: 0,
            _marker: PhantomData,
        }
    }

    /// Number of distinct supernodes after folding.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Footprint in bytes (see [`VarStrideDagRef::size_bytes`]).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.view().size_bytes()
    }

    /// Expected traffic-weighted slot reads the DP planned for (exact for
    /// the weight distribution the build saw). A fixed plan saw none, so
    /// it reports the uniform expectation [`Self::depth_stats`] measures.
    #[must_use]
    pub fn planned_cost(&self) -> f64 {
        self.plan_cost.unwrap_or_else(|| self.depth_stats().0)
    }

    /// The slot penalty μ this plan was solved at, when a budget shaped it
    /// — what [`Self::rebuild_from`] starts the next compile from.
    #[must_use]
    pub fn held_mu(&self) -> Option<f64> {
        self.held_mu
    }

    /// DP rounds the compile that produced this engine ran: about
    /// thirty-four for a cold μ search under the default budget, one for
    /// a rebuild that held μ, zero for a fixed plan.
    #[must_use]
    pub fn plan_solves(&self) -> u32 {
        self.solves
    }

    /// How many supernodes chose each stride, `(stride, count)` pairs in
    /// ascending stride order.
    #[must_use]
    pub fn stride_histogram(&self) -> Vec<(u8, usize)> {
        let mut counts = [0usize; 17];
        for &node in &self.nodes {
            counts[((node >> 32) & 0x1F) as usize] += 1;
        }
        (1..=16u8)
            .filter(|&s| counts[s as usize] > 0)
            .map(|s| (s, counts[s as usize]))
            .collect()
    }

    /// The borrowed view all queries run on.
    #[must_use]
    #[inline]
    pub fn view(&self) -> VarStrideDagRef<'_, A> {
        VarStrideDagRef {
            nodes: &self.nodes,
            words: &self.words,
            n_slots: self.n_slots,
            root: self.root,
            _marker: PhantomData,
        }
    }

    /// The node directory words (`stride << 32 | base` each).
    #[must_use]
    pub fn node_words(&self) -> &[u64] {
        &self.nodes
    }

    /// The packed slot words (two tagged references per word).
    #[must_use]
    pub fn slot_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of slots (tagged references).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// The tagged root reference.
    #[must_use]
    pub fn root_ref(&self) -> u32 {
        self.root
    }

    /// Lookup also returning the number of slot reads.
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.view().lookup_with_depth(addr)
    }

    /// Average and maximum slot reads over the address space, weighting
    /// each slot by the address fraction it covers.
    #[must_use]
    pub fn depth_stats(&self) -> (f64, u32) {
        let view = self.view();
        let mut avg = 0.0;
        let mut max = 0u32;
        let mut stack = vec![(self.root, 0u32, 1.0f64)];
        while let Some((reference, hops, frac)) = stack.pop() {
            if reference & LEAF_TAG != 0 {
                avg += f64::from(hops) * frac;
                max = max.max(hops);
                continue;
            }
            let node = view.nodes[reference as usize];
            let width = 1usize << ((node >> 32) & 0x1F);
            let base = (node as u32) as usize;
            let child_frac = frac / width as f64;
            for slot in 0..width {
                stack.push((slot_at(view.words, base + slot), hops + 1, child_frac));
            }
        }
        (avg, max)
    }
}

impl<'a, A: Address> VarStrideDagRef<'a, A> {
    /// Assembles a view over the directory and slot words, validating
    /// every node's stride, slot span, and child monotonicity (interior
    /// references strictly precede their parent) so the walk cannot index
    /// out of bounds or loop on untrusted bytes.
    ///
    /// # Errors
    /// A static message naming the structural violation.
    pub fn from_parts(
        nodes: &'a [u64],
        words: &'a [u64],
        n_slots: usize,
        root: u32,
    ) -> Result<Self, &'static str> {
        let view = Self::from_parts_trusted(nodes, words, n_slots, root)?;
        if root & LEAF_TAG == 0 && root as usize >= nodes.len() {
            return Err("root reference past node directory");
        }
        for (i, &node) in nodes.iter().enumerate() {
            let stride = node >> 32;
            if !(1..=16).contains(&stride) {
                return Err("node stride out of [1, 16]");
            }
            let base = (node as u32) as usize;
            let width = 1usize << stride;
            if base + width > n_slots {
                return Err("node slot span past slot table");
            }
            for j in base..base + width {
                let r = slot_at(words, j);
                if r & LEAF_TAG == 0 && r as usize >= i {
                    return Err("interior reference breaks directory order");
                }
            }
        }
        Ok(view)
    }

    /// [`Self::from_parts`] minus the O(n) directory scan — only for
    /// words that already passed a full validation (a loaded image is
    /// immutable, so one scan covers its lifetime).
    pub fn from_parts_trusted(
        nodes: &'a [u64],
        words: &'a [u64],
        n_slots: usize,
        root: u32,
    ) -> Result<Self, &'static str> {
        if n_slots.div_ceil(2) != words.len() {
            return Err("slot count does not match word count");
        }
        Ok(Self {
            nodes,
            words,
            n_slots,
            root,
            _marker: PhantomData,
        })
    }

    /// The pointer range of the borrowed slot words, for zero-copy
    /// assertions in tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.words.as_ptr() as usize;
        start..start + std::mem::size_of_val(self.words)
    }

    /// Footprint in bytes: 4 per slot plus 8 per directory entry.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.n_slots * 4 + self.nodes.len() * 8
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.lookup_with_depth(addr).0
    }

    /// Lookup also returning the number of slot reads.
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.walk(addr, |_, _| {})
    }

    /// The scalar walk; `touch` sees each hop's directory index and slot
    /// index (the traced lookup is this walk with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(u32, usize)) -> (Option<NextHop>, Depth) {
        let mut reference = self.root;
        let mut offset = 0u8;
        let mut hops: Depth = 0;
        while reference & LEAF_TAG == 0 {
            let node = self.nodes[reference as usize];
            let stride = ((node >> 32) & 0x1F) as u8;
            // Final chunk may be narrower than the stride; expansion
            // stops at leaf-tagged refs at depth W, so take stays > 0.
            let take = stride.min(A::WIDTH - offset);
            debug_assert!(take > 0, "walked past the address width");
            let slot = addr.bits(offset, take) << (stride - take);
            let index = (node as u32) as usize + slot as usize;
            touch(reference, index);
            reference = slot_at(self.words, index);
            offset += take;
            hops += 1;
        }
        (leaf_hop(reference), hops)
    }

    /// Batched longest-prefix match: resolves `addrs[i]` into `out[i]`
    /// with a rolling-refill walk kernel — [`VS_REFILL_LANES`] walks in
    /// flight, each lane taking the next address the moment its walk
    /// resolves. The refill overlaps the serial directory-read →
    /// slot-read chains whether the table lives in L2 or misses to
    /// memory, so this is the one batch kernel at every size.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let n = addrs.len();
        let out = &mut out[..n];
        // Degenerate table: the root itself is a leaf reference.
        if self.root & LEAF_TAG != 0 {
            out.fill(leaf_hop(self.root));
            return;
        }
        // The root directory word is loop-invariant, so a lane's first
        // slot read fuses into the round that refills it: a one-hop
        // lookup (the uniform-traffic common case once the DP widens the
        // root) costs exactly one round, not a refill round plus a walk
        // round.
        let root_node = self.nodes[self.root as usize];
        let root_stride = ((root_node >> 32) & 0x1F) as u8;
        let root_take = root_stride.min(A::WIDTH);
        let step0 = |addr: A| {
            let slot = addr.bits(0, root_take) << (root_stride - root_take);
            slot_at(self.words, (root_node as u32) as usize + slot as usize)
        };
        let mut reference = [0u32; VS_REFILL_LANES];
        let mut offset = [0u8; VS_REFILL_LANES];
        // Index into `addrs` each lane is walking; `usize::MAX` = drained.
        let mut job = [usize::MAX; VS_REFILL_LANES];
        let mut live = VS_REFILL_LANES.min(n);
        for lane in 0..live {
            job[lane] = lane;
            reference[lane] = step0(addrs[lane]);
            offset[lane] = root_take;
        }
        let mut next = live;
        while live > 0 {
            for lane in 0..VS_REFILL_LANES {
                let j = job[lane];
                if j == usize::MAX {
                    continue;
                }
                let r = reference[lane];
                if r & LEAF_TAG != 0 {
                    out[j] = leaf_hop(r);
                    if next < n {
                        job[lane] = next;
                        reference[lane] = step0(addrs[next]);
                        offset[lane] = root_take;
                        next += 1;
                    } else {
                        job[lane] = usize::MAX;
                        live -= 1;
                    }
                } else {
                    let node = self.nodes[r as usize];
                    let stride = ((node >> 32) & 0x1F) as u8;
                    let take = stride.min(A::WIDTH - offset[lane]);
                    let slot = addrs[j].bits(offset[lane], take) << (stride - take);
                    reference[lane] = slot_at(self.words, (node as u32) as usize + slot as usize);
                    offset[lane] += take;
                }
            }
        }
    }

    /// Lookup reporting each read as `(byte offset, size)` for the cache
    /// and SRAM models: slot reads at their packed offsets, directory
    /// reads mapped above the slot table.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        let dir_base = self.words.len() as u64 * 8;
        let touch = |node: u32, slot: usize| {
            sink(dir_base + u64::from(node) * 8, 8);
            sink(slot as u64 * 4, 4);
        };
        self.walk(addr, touch).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FibLookup;
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn fig1_trie() -> BinaryTrie<u32> {
        [
            (p("0.0.0.0/0"), nh(2)),
            (p("0.0.0.0/1"), nh(3)),
            (p("0.0.0.0/2"), nh(3)),
            (p("32.0.0.0/3"), nh(2)),
            (p("64.0.0.0/2"), nh(2)),
            (p("96.0.0.0/3"), nh(1)),
        ]
        .into_iter()
        .collect()
    }

    fn spread_trie() -> BinaryTrie<u32> {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(0));
        for i in 0..512u32 {
            trie.insert(Prefix4::new(i << 15, 17), nh(1 + i % 5));
        }
        trie.insert(p("10.1.2.3/32"), nh(9));
        trie
    }

    #[test]
    fn equivalence_with_oracle_uniform() {
        for trie in [fig1_trie(), spread_trie()] {
            let vs = VarStrideDag::from_trie(&trie, VsParams::default());
            for i in 0..4000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(vs.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn equivalence_with_heat_attached() {
        let trie = spread_trie();
        // Heat concentrated on one /8 block at depth 8.
        let heat: Vec<(u64, u64)> = vec![(0x0A00_0000_0000_0000, 1000), (0x8000_0000_0000_0000, 1)];
        for budget in [1.0, 1.5, f64::INFINITY] {
            let vs = VarStrideDag::from_trie_weighted(
                &trie,
                VsParams {
                    max_stride: 16,
                    budget,
                },
                Some((&heat, 8)),
            );
            for i in 0..4000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(vs.lookup(addr), trie.lookup(addr), "b={budget} {addr:#x}");
            }
        }
    }

    #[test]
    fn unbounded_uniform_plan_beats_every_fixed_stride() {
        let trie = spread_trie();
        let vs = VarStrideDag::from_trie(
            &trie,
            VsParams {
                max_stride: 12,
                budget: f64::INFINITY,
            },
        );
        let (vs_avg, _) = vs.depth_stats();
        for s in 1..=12u8 {
            let (mb_avg, _) = crate::MultibitDag::from_trie(&trie, s).depth_stats();
            assert!(
                vs_avg <= mb_avg + 1e-9,
                "uniform DP ({vs_avg}) must not lose to fixed stride {s} ({mb_avg})"
            );
        }
    }

    #[test]
    fn heat_shifts_strides_toward_hot_subtree() {
        let trie = spread_trie();
        // All traffic inside 10.0.0.0/8: the DP should spend its slot
        // budget reaching depth-17 leaves (and the /32) fast there, so
        // the expected heat-weighted depth must beat the uniform plan's
        // on that traffic.
        let heat: Vec<(u64, u64)> = vec![(0x0A00_0000_0000_0000, 1_000_000)];
        let params = VsParams {
            max_stride: 16,
            budget: 1.2,
        };
        let uniform = VarStrideDag::from_trie(&trie, params);
        let hot = VarStrideDag::from_trie_weighted(&trie, params, Some((&heat, 8)));
        let probe: Vec<u32> = (0..4096).map(|i| 0x0A00_0000 | (i * 4093)).collect();
        let avg = |vs: &VarStrideDag<u32>| {
            probe
                .iter()
                .map(|&a| f64::from(vs.lookup_with_depth(a).1))
                .sum::<f64>()
                / probe.len() as f64
        };
        assert!(
            avg(&hot) <= avg(&uniform) + 1e-9,
            "heat-placed strides must not walk hot traffic deeper: hot {} uniform {}",
            avg(&hot),
            avg(&uniform)
        );
        for (a, b) in probe.iter().map(|&a| (hot.lookup(a), trie.lookup(a))) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn budget_caps_size() {
        let trie = spread_trie();
        let tight = VarStrideDag::from_trie(
            &trie,
            VsParams {
                max_stride: 16,
                budget: 1.0,
            },
        );
        let loose = VarStrideDag::from_trie(
            &trie,
            VsParams {
                max_stride: 16,
                budget: f64::INFINITY,
            },
        );
        assert!(tight.size_bytes() <= loose.size_bytes());
        // The budget is counted pre-dedup against the fixed stride-4
        // plan, so the deduped structure lands well under it.
        assert!(
            tight.slot_count() as f64 <= 1.0 * forced_mass(&ProperTrie::from_trie(&trie), 4) as f64,
            "tight plan {} exceeds its own budget",
            tight.slot_count()
        );
    }

    #[test]
    fn max_stride_one_is_binary_dag() {
        let trie = fig1_trie();
        let vs = VarStrideDag::from_trie(
            &trie,
            VsParams {
                max_stride: 1,
                budget: f64::INFINITY,
            },
        );
        let mb = crate::MultibitDag::from_trie(&trie, 1);
        assert_eq!(vs.node_count(), mb.node_count());
        assert_eq!(vs.slot_count(), mb.slot_count());
        let hist = vs.stride_histogram();
        assert_eq!(hist, vec![(1, vs.node_count())]);
    }

    #[test]
    fn empty_fib() {
        let vs = VarStrideDag::from_trie(&BinaryTrie::<u32>::new(), VsParams::default());
        assert_eq!(vs.lookup(42), None);
        assert_eq!(vs.node_count(), 0);
        assert_eq!(vs.size_bytes(), 0);
        assert_eq!(vs.depth_stats(), (0.0, 0));
    }

    #[test]
    fn host_routes_at_full_width() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(1));
        trie.insert(p("10.0.0.1/32"), nh(2));
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        assert_eq!(vs.lookup(0x0A00_0001), Some(nh(2)));
        assert_eq!(vs.lookup(0x0A00_0002), Some(nh(1)));
    }

    #[test]
    fn batch_and_stream_match_scalar() {
        let trie = spread_trie();
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        for n in [0usize, 2, 4, 5, 9, 64, 257] {
            let addrs: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let mut out = vec![None; n];
            vs.lookup_batch(&addrs, &mut out);
            for (a, got) in addrs.iter().zip(&out) {
                assert_eq!(*got, vs.lookup(*a), "batch addr {a:#x}");
            }
            let mut streamed = vec![Some(NextHop::new(u32::MAX - 1)); n + 5];
            vs.lookup_stream(&addrs, &mut streamed);
            for (a, got) in addrs.iter().zip(&streamed) {
                assert_eq!(*got, vs.lookup(*a), "stream addr {a:#x}");
            }
        }
    }

    #[test]
    fn traced_lookup_matches_plain() {
        let trie = spread_trie();
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        for addr in [0u32, 0x0A01_0203, 0x8000_0000, u32::MAX] {
            let mut slot_reads = 0u32;
            let traced = vs.lookup_traced(addr, &mut |_, size| {
                if size == 4 {
                    slot_reads += 1;
                }
            });
            assert_eq!(traced, vs.lookup(addr), "addr {addr:#x}");
            let (_, hops) = vs.lookup_with_depth(addr);
            assert_eq!(slot_reads, hops, "addr {addr:#x}");
        }
    }

    #[test]
    fn from_parts_rejects_bad_shapes() {
        let trie = spread_trie();
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        let ok = VarStrideDagRef::<u32>::from_parts(
            vs.node_words(),
            vs.slot_words(),
            vs.slot_count(),
            vs.root_ref(),
        );
        assert!(ok.is_ok());
        // Stride out of range.
        let mut bad = vs.node_words().to_vec();
        bad[0] = (bad[0] & 0xFFFF_FFFF) | (31u64 << 32);
        assert!(VarStrideDagRef::<u32>::from_parts(
            &bad,
            vs.slot_words(),
            vs.slot_count(),
            vs.root_ref()
        )
        .is_err());
        // Slot span past the table.
        let mut bad = vs.node_words().to_vec();
        let last = bad.len() - 1;
        bad[last] = (bad[last] & !0xFFFF_FFFFu64) | (vs.slot_count() as u64 - 1);
        assert!(VarStrideDagRef::<u32>::from_parts(
            &bad,
            vs.slot_words(),
            vs.slot_count(),
            vs.root_ref()
        )
        .is_err());
        // Forward (order-breaking) reference: point a low node's slot at
        // the last node.
        if vs.node_count() >= 2 {
            let mut slots = vs.slot_words().to_vec();
            slots[0] = (slots[0] & !0xFFFF_FFFFu64) | (vs.node_count() as u64 - 1);
            assert!(VarStrideDagRef::<u32>::from_parts(
                vs.node_words(),
                &slots,
                vs.slot_count(),
                vs.root_ref()
            )
            .is_err());
        }
    }

    #[test]
    fn ipv6_vsdag() {
        let mut trie: BinaryTrie<u128> = BinaryTrie::new();
        let p1: fib_trie::Prefix6 = "2001:db8::/32".parse().unwrap();
        let p2: fib_trie::Prefix6 = "2001:db8:1::/48".parse().unwrap();
        trie.insert(p1, nh(1));
        trie.insert(p2, nh(2));
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        let a: u128 = "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().into();
        let b: u128 = "2001:db8:1::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        assert_eq!(vs.lookup(a), Some(nh(1)));
        assert_eq!(vs.lookup(b), Some(nh(2)));
        assert_eq!(vs.lookup(0u128), None);
    }
}
