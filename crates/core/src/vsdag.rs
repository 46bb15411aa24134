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
//! degenerates to the binary prefix DAG.
//!
//! One DP round is one forward pass over the leaf-pushed arena, which is
//! in post-order: each internal node leaves on a stack its **depth
//! sums** — level 0 its own `(C, cost, mass)`, level `k` the sums of
//! those over `I_k(v)` — for `k < max_stride`. A node's level `k + 1` is
//! its two children's level `k` added, so the candidates of every stride
//! are read off the node's own record (`O(max_stride)` per node, no
//! subtree re-walk), and the two child records on top of the stack are
//! replaced by the parent's. The constant stride itself is
//! the other way to fill in the per-node choice — [`StridePlan::Fixed`],
//! spelled [`MultibitDag::from_trie`] at call sites — and goes through
//! the same emitter, view, kernels and image codec as a planned one.
//!
//! The emitted structure is three `u64` word strings shared verbatim by
//! the owned builder and the zero-copy [`VarStrideDagRef`] a FIB image
//! borrows. Controlled prefix expansion copies a leaf into every slot it
//! covers (on a DFZ-like table nine slots in ten are such copies), so the
//! 2^s slots of a node are not stored: only its maximal **runs** of equal
//! references are, behind a rank directory —
//!
//! * the node directory, one word per supernode: stride in the upper
//!   half, index of the node's first block in the lower;
//! * **blocks**, one word per 32 slots (a node of stride < 5 still owns
//!   one): the low half a bitmap whose bit `k` is set iff slot `32·b + k`
//!   starts a run (slot 0 of a node always does), the high half the index
//!   in `runs` of the run in force when the block begins — the count of
//!   runs started before it, minus one, wrapping — so a slot's run is
//!   `rank + popcount(bitmap & mask(slot))`;
//! * **runs**, one tagged reference per maximal run, every node's runs
//!   contiguous and in slot order: 16 bits each (bit 15 the leaf tag,
//!   `0x7FFF` ⊥) when the directory has fewer than 2^15 nodes and every
//!   label is below `0x7FFF`, the 32-bit tags otherwise. The emitter
//!   decides from what it emitted; [`VsShape::run_width`] records it and
//!   the kernels are monomorphised over it.
//!
//! A hop is three dependent reads (directory, block, run) where the flat
//! table paid two, over a table a quarter the size. Nodes are hash-consed
//! per `(stride, expanded slots)` shape, children always precede their
//! parent in the directory, and adjacent runs of a node differ, so one
//! table has one encoding and untrusted images are validated by a single
//! pass ([`VarStrideDagRef::from_parts`]) after which the walk provably
//! terminates in bounds.
//!
//! The emitter reads each proper-trie node once. A supernode of stride
//! `s` fills its 2^s slots in one recursive descent — an early leaf
//! fills its whole slot range, a node `s` levels down is encoded (its own
//! supernode, first) into its one slot — so an expansion costs O(2^s)
//! plus the nodes it covers. The slots go into a buffer reused at that
//! level of the recursion, behind the stride as word 0, and that slice
//! is the interner key: hashed once per lookup, boxed only when it is
//! new (most expansions repeat one already interned). Children are
//! interned before their parent, left to right, which is the post-order
//! of the supernodes and so the directory order. The budget's unit and
//! the heat-free weights read the depth [`ProperTrie`] records at
//! leaf-push.

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::idhash::IdBuildHasher;
use fib_trie::{project_heat_weights, Address, BinaryTrie, Depth, NextHop, ProperNode, ProperTrie};

/// Leaf tag and ⊥ label of a reference in its 32-bit form — what the
/// emitter works in, what the root is stored as, and what
/// [`VarStrideDagRef::node_runs`] reports at either run width.
const LEAF_TAG: u32 = W32::LEAF;
const BOT: u32 = W32::BOT;

/// How a run array packs its tagged references. The top bit of a
/// reference is the leaf tag and the all-ones label is ⊥ at either width,
/// so one walk body serves both: the kernels are monomorphised over the
/// two implementors and hold references in the array's own form.
trait RunWidth {
    /// Bits per reference: 16 or 32.
    const BITS: u32;
    const LEAF: u32 = 1 << (Self::BITS - 1);
    const BOT: u32 = Self::LEAF - 1;
    const PER_WORD: usize = (64 / Self::BITS) as usize;

    /// The `i`-th reference of a packed run array.
    #[inline(always)]
    fn get(runs: &[u64], i: usize) -> u32 {
        let shift = Self::BITS as usize * (i % Self::PER_WORD);
        (runs[i / Self::PER_WORD] >> shift) as u32 & (Self::LEAF | Self::BOT)
    }

    /// The next-hop a leaf-tagged reference carries (`None` for ⊥).
    #[inline(always)]
    fn leaf_hop(reference: u32) -> Option<NextHop> {
        let label = reference & Self::BOT;
        (label != Self::BOT).then(|| NextHop::new(label))
    }

    /// A 32-bit-form reference in this width's form. Interior indices and
    /// labels must fit below [`Self::BOT`]; the emitter checks before it
    /// picks the width.
    fn narrow(reference: u32) -> u32 {
        match reference & LEAF_TAG {
            0 => reference,
            _ if reference & BOT == BOT => Self::LEAF | Self::BOT,
            _ => Self::LEAF | (reference & BOT),
        }
    }

    /// The inverse of [`Self::narrow`].
    fn widen(reference: u32) -> u32 {
        match reference & Self::LEAF {
            0 => reference,
            _ if reference & Self::BOT == Self::BOT => LEAF_TAG | BOT,
            _ => LEAF_TAG | (reference & Self::BOT),
        }
    }

    /// Packs 32-bit-form references, [`Self::PER_WORD`] per word, little
    /// end first, the last word zero-padded.
    fn pack(references: &[u32]) -> Vec<u64> {
        let mut words = vec![0u64; references.len().div_ceil(Self::PER_WORD)];
        for (i, &reference) in references.iter().enumerate() {
            let shift = Self::BITS as usize * (i % Self::PER_WORD);
            words[i / Self::PER_WORD] |= u64::from(Self::narrow(reference)) << shift;
        }
        words
    }
}

/// Four 16-bit references per word.
struct W16;
/// Two 32-bit references per word.
struct W32;

impl RunWidth for W16 {
    const BITS: u32 = 16;
}

impl RunWidth for W32 {
    const BITS: u32 = 32;
}

/// The stride a directory word declares (its whole upper half).
#[inline(always)]
fn stride_of(node: u64) -> u32 {
    (node >> 32) as u32
}

/// Index in the block table of a directory word's first block.
#[inline(always)]
fn first_block_of(node: u64) -> usize {
    node as u32 as usize
}

/// The slot the `stride` address bits at `offset` select, and how many of
/// them the address still had: a final chunk narrower than the stride is
/// padded with zeros (expansion stops at leaf-tagged references at depth
/// `WIDTH`, so at least one bit is always left).
#[inline(always)]
fn slot_of<A: Address>(addr: A, offset: u8, stride: u8) -> (u32, u8) {
    let take = stride.min(A::WIDTH - offset);
    debug_assert!(take > 0, "walked past the address width");
    // A 16-bit window (a constant-width read compiles branch-free) that
    // starts at `offset`, or ends at the address's end when fewer than 16
    // bits are left; shifted up against bit 15 it holds the chunk, zeros
    // behind it.
    let start = offset.min(A::WIDTH - 16);
    let window = (addr.bits(start, 16) << (offset - start)) & 0xFFFF;
    (
        window.wrapping_shr(16u32.wrapping_sub(u32::from(stride))),
        take,
    )
}

/// The scalars of an emitted table — what an image's `PARAMS` section
/// carries beside the three word strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VsShape {
    /// Tagged reference to the root, in 32-bit form at either run width.
    pub root: u32,
    /// Σ 2^stride over the directory: the slots the runs expand to.
    pub slots: usize,
    /// Maximal runs stored in the run array.
    pub runs: usize,
    /// Bits per run reference, 16 or 32.
    pub run_width: u32,
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
    /// slot mass, so a sub-1.0 pre-dedup multiple is not a shrink), at
    /// ~1.1/~2.0 expected hops for uniform/zipf traffic (pinned by
    /// `crates/bench/tests/design_gates.rs`, beside the stored table's
    /// runs per slot and bytes over entropy).
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

/// The fixed-stride multibit DAG under the name `fibreport`, the
/// `ablation` stride sweep and the benchmark's engine matrix know it by: `MultibitDag::from_trie(&trie, 4)` is a
/// [`VarStrideDag`] whose plan is [`StridePlan::Fixed`]. It is an alias,
/// not a second structure — anything typed `MultibitDag<A>` builds
/// through [`crate::FibBuild`] exactly as a `VarStrideDag<A>` does.
pub type MultibitDag<A> = VarStrideDag<A>;

/// A traffic-weighted variable-stride multibit prefix DAG (owned builder;
/// queries run on the borrowed [`VarStrideDagRef`]).
#[derive(Clone, Debug)]
pub struct VarStrideDag<A: Address> {
    /// Node directory: `stride << 32 | first_block_index` per supernode.
    nodes: Vec<u64>,
    /// One word per 32 slots: run-start bitmap below, run rank above.
    blocks: Vec<u64>,
    /// One tagged reference per maximal run, packed at `shape.run_width`.
    runs: Vec<u64>,
    shape: VsShape,
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
    blocks: &'a [u64],
    runs: &'a [u64],
    shape: VsShape,
    _marker: PhantomData<A>,
}

/// One stride plan: per-proper-node stride choice plus the aggregate
/// traffic cost (expected slot reads) and pre-dedup slot mass it implies.
struct Plan {
    choice: Vec<u8>,
    cost: f64,
    mass: u64,
}

/// One level of a node's depth sums: over a set of internal nodes, the
/// sum of their penalized costs `C`, of their unpenalized costs, and of
/// their pre-dedup slot masses.
#[derive(Clone, Copy, Debug, Default)]
struct Level {
    pcost: f64,
    cost: f64,
    mass: u64,
}

impl Level {
    fn add(self, other: Self) -> Self {
        Self {
            pcost: self.pcost + other.pcost,
            cost: self.cost + other.cost,
            mass: self.mass + other.mass,
        }
    }
}

/// Work state of [`solve`], allocated once per compile and reused by
/// every round of the μ search. A round writes every internal node's
/// `choice` and nothing reads a leaf's, so `choice` is not cleared between
/// rounds; the stacks are.
struct Scratch {
    choice: Vec<u8>,
    /// The records of the nodes whose parent the pass has not reached,
    /// back to back: a node's depth sums, level 0 first, at most
    /// `max_stride` levels. A leaf's record is empty.
    levels: Vec<Level>,
    /// Where each pending record starts in `levels`, oldest first.
    starts: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            choice: vec![0; n],
            levels: Vec::new(),
            starts: Vec::new(),
        }
    }
}

/// Runs the DP recurrence bottom-up for one Lagrangian penalty `mu`
/// (traffic cost per slot). Leaves the per-node choice that minimizes
/// `cost + mu·mass` in `scratch.choice` and returns the root's
/// `(C, cost, mass)` — the penalized objective and the unpenalized cost
/// and mass it achieves (all zero when the root is a leaf).
///
/// One forward pass over the post-order arena ([`ProperTrie`]'s
/// invariant): the children's records are the top two on the stack. Their
/// level `k` summed is the node's level `k + 1`, the sums over `I_{k+1}`,
/// so stride `s` costs `μ·2^s` plus level `s`. Strides stop one past the
/// deepest level — every path has hit a leaf there, and wider strides only
/// add slots — and ties go to the narrower stride.
fn solve<A: Address>(
    proper: &ProperTrie<A>,
    weights: &[f64],
    max_stride: u8,
    mu: f64,
    scratch: &mut Scratch,
) -> Level {
    const POST_ORDER: &str = "post-order: a node's children are the top two records";
    let Scratch {
        choice,
        levels,
        starts,
    } = scratch;
    let cap = usize::from(max_stride);
    levels.clear();
    starts.clear();
    for (i, node) in proper.nodes().iter().enumerate() {
        if let ProperNode::Leaf(_) = node {
            starts.push(levels.len());
            continue;
        }
        let right = starts.pop().expect(POST_ORDER);
        let left = starts.pop().expect(POST_ORDER);
        // Fold the right child's record into the left's, in place: level
        // `k` of the sum is the node's level `k + 1`. Child records hold at
        // most `cap` levels, so `depth ≤ cap`.
        let (left_len, right_len) = (right - left, levels.len() - right);
        for k in 0..left_len.min(right_len) {
            levels[left + k] = levels[left + k].add(levels[right + k]);
        }
        if right_len > left_len {
            levels.copy_within(right + left_len.., left + left_len);
        }
        let depth = left_len.max(right_len);
        levels.truncate(left + depth);
        let below = &levels[left..];
        let candidate = |s: usize| {
            let sums = below.get(s - 1).copied().unwrap_or_default();
            let width = 1u64 << s;
            Level {
                pcost: mu * width as f64 + sums.pcost,
                cost: sums.cost,
                mass: width + sums.mass,
            }
        };
        let mut best_s = 1;
        let mut best = candidate(1);
        for s in 2..=(depth + 1).min(cap) {
            let c = candidate(s);
            if c.pcost < best.pcost {
                best_s = s;
                best = c;
            }
        }
        let w = weights[i];
        choice[i] = best_s as u8;
        let own = Level {
            pcost: w + best.pcost,
            cost: w + best.cost,
            mass: best.mass,
        };
        levels.insert(left, own);
        levels.truncate(left + cap);
        starts.push(left);
    }
    levels.first().copied().unwrap_or_default()
}

/// Pre-dedup slot mass of the fixed-stride-`s` plan — the budget's unit.
/// That plan's supernodes are the interior nodes at depths `0, s, 2s, …`
/// (every ancestor of an interior node is interior), 2^s slots each, so
/// one pass over the depth record, counting interior nodes by depth,
/// finds them.
fn forced_mass<A: Address>(proper: &ProperTrie<A>, s: u8) -> u64 {
    let mut interior = [0u64; u8::MAX as usize + 1];
    for (node, &depth) in proper.nodes().iter().zip(proper.depths()) {
        interior[usize::from(depth)] += u64::from(matches!(node, ProperNode::Internal { .. }));
    }
    interior.iter().step_by(usize::from(s)).sum::<u64>() << s
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
        let (entries, depth) = heat.unwrap_or((&[], 0));
        let weights = project_heat_weights(&proper, entries, depth);
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
        let root = solve(
            &self.proper,
            &self.weights,
            self.max_stride,
            mu,
            &mut self.scratch,
        );
        Plan {
            choice: self.scratch.choice.clone(),
            cost: root.cost,
            mass: root.mass,
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

/// Emits the directory, blocks and runs of one stride plan (see the
/// module docs for the one-descent expansion and the interner).
struct Emitter<'a, A: Address> {
    proper: &'a ProperTrie<A>,
    choice: &'a [u8],
    nodes: Vec<u64>,
    blocks: Vec<u64>,
    /// One 32-bit-form reference per maximal run; packed once the whole
    /// table is out and the width can be chosen.
    runs: Vec<u32>,
    n_slots: usize,
    /// Every supernode emitted, keyed by its stride (word 0) and its
    /// expanded slots. Looked up with a borrowed slice, so a key is
    /// boxed only when it is new.
    interner: HashMap<Box<[u32]>, u32, IdBuildHasher>,
    /// Key buffers, one per level of supernode recursion, reused by every
    /// expansion at that level.
    keys: Vec<Vec<u32>>,
}

/// The tagged reference of a leaf carrying `label`.
fn leaf_ref(label: Option<NextHop>) -> u32 {
    LEAF_TAG | label.map_or(BOT, |nh| nh.index())
}

impl<'a, A: Address> Emitter<'a, A> {
    fn new(proper: &'a ProperTrie<A>, choice: &'a [u8]) -> Self {
        Self {
            proper,
            choice,
            nodes: Vec::new(),
            blocks: Vec::new(),
            runs: Vec::new(),
            n_slots: 0,
            interner: HashMap::default(),
            keys: Vec::new(),
        }
    }

    /// Encodes the proper-trie node `idx` as a tagged reference; `level`
    /// counts the supernodes above it.
    fn encode(&mut self, idx: u32, level: usize) -> u32 {
        if let ProperNode::Leaf(label) = *self.proper.node(idx) {
            return leaf_ref(label);
        }
        if level == self.keys.len() {
            self.keys.push(Vec::new());
        }
        let mut key = std::mem::take(&mut self.keys[level]);
        let stride = self.choice[idx as usize];
        key.clear();
        key.push(u32::from(stride));
        key.resize(1 + (1 << stride), 0);
        self.expand(idx, stride, &mut key[1..], level + 1);
        let reference = match self.interner.get(key.as_slice()) {
            Some(&existing) => existing,
            None => {
                let node = self.nodes.len() as u32;
                // Children were interned before their parent, so every
                // interior reference is a strictly smaller directory
                // index — the monotonicity `from_parts` re-checks.
                self.nodes
                    .push(u64::from(stride) << 32 | self.blocks.len() as u64);
                self.collapse(&key[1..]);
                self.interner.insert(key.as_slice().into(), node);
                node
            }
        };
        self.keys[level] = key;
        reference
    }

    /// Fills `slots`, the slots under `idx` that `bits` more address bits
    /// select, in one descent: a leaf fills its whole range (controlled
    /// prefix expansion), and a node `bits` below the supernode root is
    /// encoded, one level of supernodes deeper, into its one slot.
    fn expand(&mut self, idx: u32, bits: u8, slots: &mut [u32], level: usize) {
        match *self.proper.node(idx) {
            ProperNode::Leaf(label) => slots.fill(leaf_ref(label)),
            ProperNode::Internal { .. } if bits == 0 => slots[0] = self.encode(idx, level),
            ProperNode::Internal { left, right } => {
                let (lo, hi) = slots.split_at_mut(slots.len() / 2);
                self.expand(left, bits - 1, lo, level);
                self.expand(right, bits - 1, hi, level);
            }
        }
    }

    /// Appends one node's expanded `slots` as blocks and maximal runs.
    fn collapse(&mut self, slots: &[u32]) {
        let mut previous = None;
        for chunk in slots.chunks(32) {
            let rank = (self.runs.len() as u32).wrapping_sub(1);
            let mut starts = 0u32;
            for (k, &reference) in chunk.iter().enumerate() {
                if previous != Some(reference) {
                    starts |= 1 << k;
                    self.runs.push(reference);
                    previous = Some(reference);
                }
            }
            self.blocks.push(u64::from(rank) << 32 | u64::from(starts));
        }
        self.n_slots += slots.len();
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

    /// Emits the hash-consed directory, blocks and runs for one stride per
    /// proper-trie node — the step planned and fixed strides share.
    fn emit(proper: &ProperTrie<A>, choice: &[u8]) -> Self {
        let mut emitter = Emitter::new(proper, choice);
        let root = emitter.encode(proper.root_idx(), 0);
        Self::pack(emitter, root)
    }

    /// The table an emitter's output makes, its runs packed at the width
    /// they fit.
    fn pack(emitter: Emitter<'_, A>, root: u32) -> Self {
        // 16-bit references when every interior index and every label
        // has a 16-bit form distinct from ⊥.
        let fits = |&reference: &u32| reference == LEAF_TAG | BOT || reference & BOT < W16::BOT;
        let narrow = emitter.nodes.len() <= W16::BOT as usize && emitter.runs.iter().all(fits);
        let (runs, run_width) = if narrow {
            (W16::pack(&emitter.runs), W16::BITS)
        } else {
            (W32::pack(&emitter.runs), W32::BITS)
        };
        Self {
            nodes: emitter.nodes,
            blocks: emitter.blocks,
            runs,
            shape: VsShape {
                root,
                slots: emitter.n_slots,
                runs: emitter.runs.len(),
                run_width,
            },
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
            counts[stride_of(node) as usize] += 1;
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
            blocks: &self.blocks,
            runs: &self.runs,
            shape: self.shape,
            _marker: PhantomData,
        }
    }

    /// The node directory words (`stride << 32 | first_block` each).
    #[must_use]
    pub fn node_words(&self) -> &[u64] {
        &self.nodes
    }

    /// The block words (`rank << 32 | run-start bitmap`, one per 32 slots).
    #[must_use]
    pub fn block_words(&self) -> &[u64] {
        &self.blocks
    }

    /// The packed run words ([`Self::run_width`]-bit tagged references).
    #[must_use]
    pub fn run_words(&self) -> &[u64] {
        &self.runs
    }

    /// The table's scalars: root, slot and run counts, run width.
    #[must_use]
    pub fn shape(&self) -> VsShape {
        self.shape
    }

    /// Number of slots the plan expands to, Σ 2^stride over the directory
    /// — what the budget counts, not what is stored.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.shape.slots
    }

    /// Number of maximal runs stored.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.shape.runs
    }

    /// Number of 32-slot blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bits per stored run reference: 16 when the directory and the label
    /// alphabet fit, 32 otherwise.
    #[must_use]
    pub fn run_width(&self) -> u32 {
        self.shape.run_width
    }

    /// The tagged root reference.
    #[must_use]
    pub fn root_ref(&self) -> u32 {
        self.shape.root
    }

    /// Lookup also returning the number of slot reads.
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.view().lookup_with_depth(addr)
    }

    /// Average and maximum slot reads over the address space, weighting
    /// each run by the address fraction its slots cover.
    #[must_use]
    pub fn depth_stats(&self) -> (f64, u32) {
        let view = self.view();
        let mut avg = 0.0;
        let mut max = 0u32;
        let mut stack = vec![(self.shape.root, 0u32, 1.0f64)];
        while let Some((reference, hops, frac)) = stack.pop() {
            if reference & LEAF_TAG != 0 {
                avg += f64::from(hops) * frac;
                max = max.max(hops);
                continue;
            }
            let node = reference as usize;
            let slot_frac = frac / f64::from(1u32 << stride_of(self.nodes[node]));
            for (len, child) in view.node_runs(node) {
                stack.push((child, hops + 1, slot_frac * f64::from(len)));
            }
        }
        (avg, max)
    }
}

impl<'a, A: Address> VarStrideDagRef<'a, A> {
    /// Assembles a view over the three word strings, proving in one pass
    /// what the walk assumes so it cannot index out of bounds, loop, or
    /// answer from the wrong run on untrusted bytes: every stride in
    /// `[1, 16]`; the nodes' block spans tiling `blocks` contiguously and
    /// in order; slot 0 of every node starting a run and no run starting
    /// past a short node's last slot; every block's rank equal to the
    /// running count of run starts; that count ending at `shape.runs`, and
    /// the strides summing to `shape.slots`; interior references strictly
    /// preceding their node; adjacent runs of a node distinct (the
    /// canonical form — one table, one encoding).
    ///
    /// # Errors
    /// A static message naming the structural violation.
    pub fn from_parts(
        nodes: &'a [u64],
        blocks: &'a [u64],
        runs: &'a [u64],
        shape: VsShape,
    ) -> Result<Self, &'static str> {
        let view = Self::from_parts_trusted(nodes, blocks, runs, shape)?;
        if shape.root & LEAF_TAG == 0 && shape.root as usize >= nodes.len() {
            return Err("root reference past node directory");
        }
        if shape.run_width == W16::BITS {
            view.validate::<W16>()?;
        } else {
            view.validate::<W32>()?;
        }
        Ok(view)
    }

    /// [`Self::from_parts`] minus the O(n) scan — only for words that
    /// already passed it, as an image's record of its first view vouches
    /// (see [`crate::image`], "Validation").
    pub(crate) fn from_parts_trusted(
        nodes: &'a [u64],
        blocks: &'a [u64],
        runs: &'a [u64],
        shape: VsShape,
    ) -> Result<Self, &'static str> {
        let per_word = match shape.run_width {
            W16::BITS => W16::PER_WORD,
            W32::BITS => W32::PER_WORD,
            _ => return Err("run width is neither 16 nor 32"),
        };
        if shape.runs.div_ceil(per_word) != runs.len() {
            return Err("run count does not match word count");
        }
        Ok(Self {
            nodes,
            blocks,
            runs,
            shape,
            _marker: PhantomData,
        })
    }

    /// The scan behind [`Self::from_parts`].
    fn validate<W: RunWidth>(&self) -> Result<(), &'static str> {
        let mut next_block = 0usize;
        let mut started = 0usize;
        let mut slots = 0usize;
        for (i, &node) in self.nodes.iter().enumerate() {
            let stride = stride_of(node);
            if !(1..=16).contains(&stride) {
                return Err("node stride out of [1, 16]");
            }
            if first_block_of(node) != next_block {
                return Err("node block span breaks the contiguous tiling");
            }
            let width = 1usize << stride;
            let span = self
                .blocks
                .get(next_block..next_block + width.div_ceil(32))
                .ok_or("node block span past block table")?;
            if span[0] & 1 == 0 {
                return Err("a node's first slot does not start a run");
            }
            if width < 32 && (span[0] as u32) >> width != 0 {
                return Err("run start past a node's last slot");
            }
            let mut previous = None;
            for &block in span {
                if (block >> 32) as u32 != (started as u32).wrapping_sub(1) {
                    return Err("block rank off the running run count");
                }
                let fresh = (block as u32).count_ones() as usize;
                if started + fresh > self.shape.runs {
                    return Err("run index past run table");
                }
                for run in started..started + fresh {
                    let reference = W::get(self.runs, run);
                    if reference & W::LEAF == 0 && reference as usize >= i {
                        return Err("interior reference breaks directory order");
                    }
                    if previous == Some(reference) {
                        return Err("adjacent runs of a node are equal");
                    }
                    previous = Some(reference);
                }
                started += fresh;
            }
            next_block += span.len();
            slots += width;
        }
        if next_block != self.blocks.len() {
            return Err("block table longer than the directory spans");
        }
        if started != self.shape.runs {
            return Err("run count does not match the block bitmaps");
        }
        if slots != self.shape.slots {
            return Err("slot count does not match the directory strides");
        }
        Ok(())
    }

    /// The pointer range of the borrowed run words, for zero-copy
    /// assertions in tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.runs.as_ptr() as usize;
        start..start + std::mem::size_of_val(self.runs)
    }

    /// The table's scalars: root, slot and run counts, run width.
    #[must_use]
    pub fn shape(&self) -> VsShape {
        self.shape
    }

    /// Footprint in bytes: the three word strings.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        (self.nodes.len() + self.blocks.len() + self.runs.len()) * 8
    }

    /// The maximal runs of directory node `node`, in slot order, as
    /// `(slots covered, tagged reference)` — the reference in 32-bit form
    /// (bit 31 the leaf tag, `0x7FFF_FFFF` ⊥) at either run width.
    ///
    /// # Panics
    /// Panics if `node` is past the directory.
    pub fn node_runs(self, node: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        let word = self.nodes[node];
        let width = 1u32 << stride_of(word);
        let first = first_block_of(word);
        let span = &self.blocks[first..first + (width as usize).div_ceil(32)];
        let first_run = ((span[0] >> 32) as u32).wrapping_add(1) as usize;
        let starts = span.iter().enumerate().flat_map(|(b, &block)| {
            let mut bits = block as u32;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = bits.trailing_zeros();
                    bits &= bits - 1;
                    b as u32 * 32 + k
                })
            })
        });
        let ends = starts.clone().skip(1).chain(std::iter::once(width));
        let wide = self.shape.run_width != W16::BITS;
        starts.zip(ends).enumerate().map(move |(k, (start, end))| {
            let reference = if wide {
                W32::get(self.runs, first_run + k)
            } else {
                W16::widen(W16::get(self.runs, first_run + k))
            };
            (end - start, reference)
        })
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
        self.walk(addr, |_, _, _| {})
    }

    /// The run slot `slot` of the node at directory word `node` reads:
    /// `(block index, run index)`.
    #[inline(always)]
    fn locate(&self, node: u64, slot: u32) -> (usize, usize) {
        let block_index = first_block_of(node) + (slot >> 5) as usize;
        let block = self.blocks[block_index];
        // Bits 0..=k of the bitmap, k = slot mod 32, shifted up against
        // bit 31: one shift where masking takes two.
        let upto = (block as u32) << (!slot & 31);
        let run = ((block >> 32) as u32).wrapping_add(upto.count_ones());
        (block_index, run as usize)
    }

    /// The scalar walk; `touch` sees each hop's directory, block and run
    /// index (the traced lookup is this walk with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, touch: impl FnMut(usize, usize, usize)) -> (Option<NextHop>, Depth) {
        if self.shape.root & LEAF_TAG != 0 {
            return (W32::leaf_hop(self.shape.root), 0);
        }
        if self.shape.run_width == W16::BITS {
            self.walk_at::<W16>(addr, touch)
        } else {
            self.walk_at::<W32>(addr, touch)
        }
    }

    #[inline(always)]
    fn walk_at<W: RunWidth>(
        &self,
        addr: A,
        mut touch: impl FnMut(usize, usize, usize),
    ) -> (Option<NextHop>, Depth) {
        // An interior reference reads the same at every width.
        let mut reference = self.shape.root;
        let mut offset = 0u8;
        let mut hops: Depth = 0;
        while reference & W::LEAF == 0 {
            let node = self.nodes[reference as usize];
            let (slot, take) = slot_of(addr, offset, stride_of(node) as u8);
            let (block, run) = self.locate(node, slot);
            touch(reference as usize, block, run);
            reference = W::get(self.runs, run);
            offset += take;
            hops += 1;
        }
        (W::leaf_hop(reference), hops)
    }

    /// Batched longest-prefix match: resolves `addrs[i]` into `out[i]`
    /// with a rolling-refill walk kernel — [`VS_REFILL_LANES`] walks in
    /// flight, each lane taking the next address the moment its walk
    /// resolves. The refill overlaps the serial directory → block → run
    /// read chains whether the table lives in L2 or misses to memory, so
    /// this is the one batch kernel at every size; the run width picks
    /// its monomorphisation once per call.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let out = &mut out[..addrs.len()];
        // Degenerate table: the root itself is a leaf reference.
        if self.shape.root & LEAF_TAG != 0 {
            out.fill(W32::leaf_hop(self.shape.root));
        } else if self.shape.run_width == W16::BITS {
            self.batch_at::<W16>(addrs, out);
        } else {
            self.batch_at::<W32>(addrs, out);
        }
    }

    #[inline(always)]
    fn batch_at<W: RunWidth>(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        let n = addrs.len();
        // The root directory word is loop-invariant, so a lane's first
        // hop fuses into the round that refills it: a one-hop lookup (the
        // uniform-traffic common case once the DP widens the root) costs
        // exactly one round, not a refill round plus a walk round.
        let root_node = self.nodes[self.shape.root as usize];
        // A stride is at most 16 and no address is narrower: the root hop
        // takes its whole stride.
        let root_stride = stride_of(root_node) as u8;
        let hop = |node: u64, slot: u32| W::get(self.runs, self.locate(node, slot).1);
        let step0 = |addr: A| hop(root_node, slot_of(addr, 0, root_stride).0);
        let mut reference = [0u32; VS_REFILL_LANES];
        let mut offset = [0u8; VS_REFILL_LANES];
        // Index into `addrs` each lane is walking; `usize::MAX` = drained.
        let mut job = [usize::MAX; VS_REFILL_LANES];
        let mut live = VS_REFILL_LANES.min(n);
        for lane in 0..live {
            job[lane] = lane;
            reference[lane] = step0(addrs[lane]);
            offset[lane] = root_stride;
        }
        let mut next = live;
        while live > 0 {
            for lane in 0..VS_REFILL_LANES {
                let j = job[lane];
                if j == usize::MAX {
                    continue;
                }
                let r = reference[lane];
                if r & W::LEAF != 0 {
                    out[j] = W::leaf_hop(r);
                    if next < n {
                        job[lane] = next;
                        reference[lane] = step0(addrs[next]);
                        offset[lane] = root_stride;
                        next += 1;
                    } else {
                        job[lane] = usize::MAX;
                        live -= 1;
                    }
                } else {
                    let node = self.nodes[r as usize];
                    let (slot, take) = slot_of(addrs[j], offset[lane], stride_of(node) as u8);
                    reference[lane] = hop(node, slot);
                    offset[lane] += take;
                }
            }
        }
    }

    /// Lookup reporting each read as `(byte offset, size)` for the cache
    /// and SRAM models — per hop an 8-byte directory word, an 8-byte
    /// block and a 2- or 4-byte run — with the three strings laid out as
    /// an image lays them: directory, blocks, runs, each starting on a
    /// 64-byte line.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        let blocks_base = (self.nodes.len() as u64 * 8).next_multiple_of(64);
        let runs_base = blocks_base + (self.blocks.len() as u64 * 8).next_multiple_of(64);
        let run_bytes = self.shape.run_width / 8;
        let touch = |node: usize, block: usize, run: usize| {
            sink(node as u64 * 8, 8);
            sink(blocks_base + block as u64 * 8, 8);
            sink(runs_base + run as u64 * u64::from(run_bytes), run_bytes);
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
            // Per hop: an 8-byte directory word, an 8-byte block, one run.
            let (mut word_reads, mut run_reads) = (0u32, 0u32);
            let traced = vs.lookup_traced(addr, &mut |_, size| {
                if size == 8 {
                    word_reads += 1;
                } else {
                    assert_eq!(size, vs.run_width() / 8);
                    run_reads += 1;
                }
            });
            assert_eq!(traced, vs.lookup(addr), "addr {addr:#x}");
            let (_, hops) = vs.lookup_with_depth(addr);
            assert_eq!((word_reads, run_reads), (2 * hops, hops), "addr {addr:#x}");
        }
    }

    /// `vs`'s strings with one word of one of them replaced.
    fn tampered(
        vs: &VarStrideDag<u32>,
        edit: impl FnOnce(&mut Vec<u64>, &mut Vec<u64>, &mut Vec<u64>),
    ) -> Result<(), &'static str> {
        let mut nodes = vs.node_words().to_vec();
        let mut blocks = vs.block_words().to_vec();
        let mut runs = vs.run_words().to_vec();
        edit(&mut nodes, &mut blocks, &mut runs);
        VarStrideDagRef::<u32>::from_parts(&nodes, &blocks, &runs, vs.shape()).map(|_| ())
    }

    #[test]
    fn from_parts_rejects_bad_shapes() {
        let trie = spread_trie();
        let vs = VarStrideDag::from_trie(&trie, VsParams::default());
        assert_eq!(vs.run_width(), 16);
        assert_eq!(tampered(&vs, |_, _, _| {}), Ok(()));
        let last = vs.node_count() - 1;
        // A node of stride ≥ 6 (two blocks or more) whose first run is
        // interior, for the mid-node cases.
        let (wide, wide_word) = vs
            .node_words()
            .iter()
            .copied()
            .enumerate()
            .find(|&(i, w)| {
                stride_of(w) >= 6 && vs.view().node_runs(i).next().unwrap().1 & LEAF_TAG == 0
            })
            .expect("the spread trie's root is wide and starts at 0.0.0.0/17");
        let first_run_of = |node: u64| {
            ((vs.block_words()[first_block_of(node)] >> 32) as u32).wrapping_add(1) as usize
        };

        // Stride out of range.
        let err = tampered(&vs, |nodes, _, _| {
            nodes[0] = (nodes[0] & 0xFFFF_FFFF) | (31 << 32)
        });
        assert_eq!(err, Err("node stride out of [1, 16]"));
        // A first block off the tiling.
        let err = tampered(&vs, |nodes, _, _| nodes[last] += 1);
        assert_eq!(err, Err("node block span breaks the contiguous tiling"));
        // A stride that runs the last node's span off the block table.
        let err = tampered(&vs, |nodes, _, _| nodes[last] += 1 << 32);
        assert!(err.is_err(), "{err:?}");
        // Rank drift: one block's rank off by one.
        let err = tampered(&vs, |_, blocks, _| *blocks.last_mut().unwrap() += 1 << 32);
        assert_eq!(err, Err("block rank off the running run count"));
        // Bit 0 of a node's first block clear.
        let err = tampered(&vs, |_, blocks, _| blocks[first_block_of(wide_word)] &= !1);
        assert_eq!(err, Err("a node's first slot does not start a run"));
        // A run start past the last slot of a short node.
        let (_, short) = vs
            .node_words()
            .iter()
            .copied()
            .enumerate()
            .find(|&(_, w)| stride_of(w) < 5)
            .expect("the /32 route hangs off narrow nodes");
        let err = tampered(&vs, |_, blocks, _| blocks[first_block_of(short)] |= 1 << 31);
        assert_eq!(err, Err("run start past a node's last slot"));
        // One run start too many: the run index leaves the table.
        let err = tampered(&vs, |_, blocks, _| {
            let block = blocks.last_mut().unwrap();
            *block |= u64::from(!(*block as u32) & (!(*block as u32)).wrapping_neg());
        });
        assert_eq!(err, Err("run index past run table"));
        // Adjacent equal runs: copy a node's first run over its second.
        let err = tampered(&vs, |_, _, runs| {
            let run = first_run_of(wide_word);
            let (from, to) = (run, run + 1);
            let value = (runs[from / 4] >> (16 * (from % 4))) & 0xFFFF;
            runs[to / 4] &= !(0xFFFF << (16 * (to % 4)));
            runs[to / 4] |= value << (16 * (to % 4));
        });
        assert_eq!(err, Err("adjacent runs of a node are equal"));
        // Forward (order-breaking) interior reference: a node's first run
        // pointed at the node itself.
        let err = tampered(&vs, |_, _, runs| {
            let run = first_run_of(wide_word);
            runs[run / 4] &= !(0xFFFF << (16 * (run % 4)));
            runs[run / 4] |= (wide as u64) << (16 * (run % 4));
        });
        assert_eq!(err, Err("interior reference breaks directory order"));

        // The scalars. The length checks are the ones the trusted
        // constructor keeps.
        let with = |shape: VsShape, trusted: bool| {
            let (nodes, blocks, runs) = (vs.node_words(), vs.block_words(), vs.run_words());
            if trusted {
                VarStrideDagRef::<u32>::from_parts_trusted(nodes, blocks, runs, shape).err()
            } else {
                VarStrideDagRef::<u32>::from_parts(nodes, blocks, runs, shape).err()
            }
        };
        let shape = vs.shape();
        let fewer_runs = VsShape {
            runs: shape.runs - 4,
            ..shape
        };
        let odd_width = VsShape {
            run_width: 8,
            ..shape
        };
        for trusted in [false, true] {
            let want = Some("run count does not match word count");
            assert_eq!(with(fewer_runs, trusted), want);
            let want = Some("run width is neither 16 nor 32");
            assert_eq!(with(odd_width, trusted), want);
        }
        let fewer_slots = VsShape {
            slots: shape.slots - 2,
            ..shape
        };
        let want = Some("slot count does not match the directory strides");
        assert_eq!(with(fewer_slots, false), want);
        let root_past = VsShape {
            root: vs.node_count() as u32,
            ..shape
        };
        let want = Some("root reference past node directory");
        assert_eq!(with(root_past, false), want);
    }

    /// Expands every node back to its 2^stride slots through the kernel's
    /// own rank arithmetic and through `node_runs`: the two readings of
    /// the bitmap must agree slot for slot, and no run may repeat its
    /// neighbour.
    fn assert_runs_are_maximal_and_cover<A: Address>(vs: &VarStrideDag<A>) {
        let view = vs.view();
        let (mut slots, mut runs) = (0usize, 0usize);
        for (i, &node) in vs.node_words().iter().enumerate() {
            let mut slot = 0u32;
            let mut previous = None;
            for (len, reference) in view.node_runs(i) {
                assert!(len > 0 && previous != Some(reference), "node {i}");
                previous = Some(reference);
                for s in slot..slot + len {
                    let (_, run) = view.locate(node, s);
                    assert_eq!(run, runs, "node {i} slot {s}");
                }
                slot += len;
                runs += 1;
            }
            assert_eq!(slot, 1 << stride_of(node), "node {i}");
            slots += slot as usize;
        }
        assert_eq!((slots, runs), (vs.slot_count(), vs.run_count()));
        VarStrideDagRef::<A>::from_parts(
            vs.node_words(),
            vs.block_words(),
            vs.run_words(),
            vs.shape(),
        )
        .expect("the emitter's own output validates");
    }

    #[test]
    fn runs_cover_every_slot_at_both_widths() {
        let narrow = VarStrideDag::from_trie(&spread_trie(), VsParams::default());
        assert_eq!(narrow.run_width(), 16);
        assert!(narrow.run_count() * 3 < narrow.slot_count());
        assert_runs_are_maximal_and_cover(&narrow);

        // One label at 0x7FFF — the 16-bit ⊥ — is enough to force 32 bits.
        let mut trie = spread_trie();
        trie.insert(p("10.1.2.4/32"), nh(0x7FFE));
        let still_narrow = VarStrideDag::from_trie(&trie, VsParams::default());
        assert_eq!(still_narrow.run_width(), 16);
        assert_eq!(still_narrow.lookup(0x0A01_0204), Some(nh(0x7FFE)));
        trie.insert(p("10.1.2.5/32"), nh(0x7FFF));
        let wide = VarStrideDag::from_trie(&trie, VsParams::default());
        assert_eq!(wide.run_width(), 32);
        assert_runs_are_maximal_and_cover(&wide);
        assert_eq!(wide.run_count(), still_narrow.run_count() + 1);
        for i in 0..4000u32 {
            let addr = i.wrapping_mul(0x9E37_79B9) & 0xFFFF_0000 | 0x0A01_0200 | (i & 7);
            assert_eq!(wide.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }

        // Every fixed stride, so every block shape: a lone short block,
        // exactly one, many.
        for stride in [1u8, 3, 4, 5, 6, 9, 13, 16] {
            assert_runs_are_maximal_and_cover(&VarStrideDag::from_trie(&spread_trie(), stride));
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

    /// The budget reference as first written, kept as the oracle
    /// [`forced_mass`] must equal: a walk from the root that grows each
    /// supernode's frontier `s` levels down.
    fn frontier_mass<A: Address>(proper: &ProperTrie<A>, s: u8) -> u64 {
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

    #[test]
    fn forced_mass_matches_the_frontier_walk() {
        use fib_workload::rng::Xoshiro256;
        let mut taz = fib_workload::instances::by_name("taz").unwrap();
        taz.n_prefixes = 4_000;
        let v6: BinaryTrie<u128> = fib_workload::FibSpec {
            max_len: 64,
            ..fib_workload::FibSpec::dfz_like(2_000)
        }
        .generate(&mut Xoshiro256::seed_from_u64(6));
        let mut default_only: BinaryTrie<u32> = BinaryTrie::new();
        default_only.insert(p("0.0.0.0/0"), nh(1));
        let v4 = [
            taz.build(0xF1B),
            spread_trie(),
            fig1_trie(),
            default_only,
            BinaryTrie::new(),
        ];
        for s in 1..=16u8 {
            for trie in &v4 {
                let proper = ProperTrie::from_trie(trie);
                assert_eq!(
                    forced_mass(&proper, s),
                    frontier_mass(&proper, s),
                    "v4, s = {s}"
                );
            }
            let proper = ProperTrie::from_trie(&v6);
            assert_eq!(
                forced_mass(&proper, s),
                frontier_mass(&proper, s),
                "v6, s = {s}"
            );
        }
    }

    /// The emitter as first written, kept as the oracle the one-descent
    /// emitter must equal word for word: every slot of a supernode walks
    /// its `stride` bits down from the supernode root on its own, and the
    /// interner keys on an owned `(stride, slots)` pair built before the
    /// lookup. It shares only the block and run collapse.
    struct SlotEmitter<'a, A: Address> {
        out: Emitter<'a, A>,
        interner: HashMap<(u8, Box<[u32]>), u32, IdBuildHasher>,
    }

    impl<A: Address> SlotEmitter<'_, A> {
        fn emit(proper: &ProperTrie<A>, choice: &[u8]) -> VarStrideDag<A> {
            let mut oracle = SlotEmitter {
                out: Emitter::new(proper, choice),
                interner: HashMap::default(),
            };
            let root = oracle.encode(proper.root_idx());
            VarStrideDag::pack(oracle.out, root)
        }

        fn encode(&mut self, idx: u32) -> u32 {
            match *self.out.proper.node(idx) {
                ProperNode::Leaf(label) => leaf_ref(label),
                ProperNode::Internal { .. } => {
                    let stride = self.out.choice[idx as usize];
                    let width = 1usize << stride;
                    let mut children = Vec::with_capacity(width);
                    for slot in 0..width {
                        children.push(self.encode_slot(idx, slot as u32, stride));
                    }
                    let key = (stride, children.into_boxed_slice());
                    if let Some(&existing) = self.interner.get(&key) {
                        return existing;
                    }
                    let node = self.out.nodes.len() as u32;
                    self.out
                        .nodes
                        .push(u64::from(stride) << 32 | self.out.blocks.len() as u64);
                    self.out.collapse(&key.1);
                    self.interner.insert(key, node);
                    node
                }
            }
        }

        fn encode_slot(&mut self, mut idx: u32, slot: u32, stride: u8) -> u32 {
            for depth in 0..stride {
                match *self.out.proper.node(idx) {
                    ProperNode::Leaf(label) => return leaf_ref(label),
                    ProperNode::Internal { left, right } => {
                        let bit = (slot >> (stride - 1 - depth)) & 1 == 1;
                        idx = if bit { right } else { left };
                    }
                }
            }
            self.encode(idx)
        }
    }

    fn assert_emits_as_the_oracle<A: Address>(trie: &BinaryTrie<A>, name: &str) {
        let assert_same = |got: &VarStrideDag<A>, want: &VarStrideDag<A>, plan: &str| {
            assert_eq!(got.node_words(), want.node_words(), "{name}, {plan}: nodes");
            assert_eq!(
                got.block_words(),
                want.block_words(),
                "{name}, {plan}: blocks"
            );
            assert_eq!(got.run_words(), want.run_words(), "{name}, {plan}: runs");
            assert_eq!(got.shape(), want.shape(), "{name}, {plan}: shape");
        };
        let proper = ProperTrie::from_trie(trie);
        // Stride 16 walks 2^16 slots a supernode in the oracle; the larger
        // tables stop at 8.
        let strides: &[u8] = if proper.node_count() < 1_000 {
            &[1, 4, 8, 16]
        } else {
            &[1, 4, 8]
        };
        for &s in strides {
            let want = SlotEmitter::emit(&proper, &vec![s; proper.node_count()]);
            assert_same(
                &MultibitDag::from_trie(trie, s),
                &want,
                &format!("stride {s}"),
            );
        }
        // The planned compile, uniform and under heat on the route blocks.
        let depth = crate::HotConfig::for_width(A::WIDTH).depth;
        let heat: Vec<(u64, u64)> = trie
            .iter()
            .enumerate()
            .map(|(i, (prefix, _))| (fib_trie::block_key(prefix.addr(), depth), 1 + i as u64 % 7))
            .collect();
        for (heat, plan) in [(None, "planned"), (Some((&heat[..], depth)), "heat")] {
            let params = VsParams::default();
            let mut planner = Planner::new(trie, params, heat);
            let (choice, _) = planner.search();
            let want = SlotEmitter::emit(&planner.proper, &choice.choice);
            assert_same(
                &VarStrideDag::from_trie_weighted(trie, params, heat),
                &want,
                plan,
            );
        }
    }

    #[test]
    fn one_descent_emits_as_the_per_slot_oracle() {
        use fib_workload::rng::Xoshiro256;
        let mut taz = fib_workload::instances::by_name("taz").unwrap();
        taz.n_prefixes = 3_000;
        assert_emits_as_the_oracle(&taz.build(0xE417), "taz 3k");
        let mut rng = Xoshiro256::seed_from_u64(0x5107);
        let small: BinaryTrie<u32> = fib_workload::FibSpec::dfz_like(60).generate(&mut rng);
        assert_emits_as_the_oracle(&small, "v4 60");
        for (n, max_len) in [(2_000, 64u8), (40, 128)] {
            let v6: BinaryTrie<u128> = fib_workload::FibSpec {
                max_len,
                ..fib_workload::FibSpec::dfz_like(n)
            }
            .generate(&mut rng);
            assert_emits_as_the_oracle(&v6, &format!("v6 {n} to /{max_len}"));
        }
        assert_emits_as_the_oracle(&spread_trie(), "spread");
        assert_emits_as_the_oracle(&fig1_trie(), "fig 1");
        assert_emits_as_the_oracle(&BinaryTrie::<u32>::new(), "empty");
    }

    /// The DP round as first written, kept as the reference the depth-sum
    /// pass is compared against: a depth-first walk that, at every
    /// internal node, grows a frontier of its internal descendants one
    /// level per candidate stride and sums their results left to right.
    /// Given `forced` choices it takes those instead of the cheapest and
    /// so sums what that plan costs.
    struct Frontier {
        choice: Vec<u8>,
        pcost: Vec<f64>,
        cost: Vec<f64>,
        mass: Vec<u64>,
    }

    impl Frontier {
        fn solve<A: Address>(
            proper: &ProperTrie<A>,
            weights: &[f64],
            max_stride: u8,
            mu: f64,
            forced: Option<&[u8]>,
        ) -> Self {
            let n = proper.node_count();
            let mut f = Self {
                choice: vec![0; n],
                pcost: vec![0.0; n],
                cost: vec![0.0; n],
                mass: vec![0; n],
            };
            let mut stack = vec![(proper.root_idx(), false)];
            while let Some((idx, expanded)) = stack.pop() {
                let ProperNode::Internal { left, right } = *proper.node(idx) else {
                    continue;
                };
                if !expanded {
                    stack.extend([(idx, true), (left, false), (right, false)]);
                    continue;
                }
                let candidates = f.candidates(proper, idx, max_stride, mu);
                let (i, w) = (idx as usize, weights[idx as usize]);
                let mut best = 0;
                for (k, c) in candidates.iter().enumerate().skip(1) {
                    if c.pcost < candidates[best].pcost {
                        best = k;
                    }
                }
                if let Some(forced) = forced {
                    best = usize::from(forced[i]) - 1;
                }
                f.choice[i] = best as u8 + 1;
                f.pcost[i] = w + candidates[best].pcost;
                f.cost[i] = w + candidates[best].cost;
                f.mass[i] = candidates[best].mass;
            }
            f
        }

        /// `(μ·2^s + Σ C, Σ cost, 2^s + Σ mass)` over `I_s(idx)` for every
        /// stride `s` the round tries, `s = 1` first; the sums read this
        /// round's results for the descendants.
        fn candidates<A: Address>(
            &self,
            proper: &ProperTrie<A>,
            idx: u32,
            max_stride: u8,
            mu: f64,
        ) -> Vec<Level> {
            let mut frontier = vec![idx];
            let mut out = Vec::new();
            for s in 1..=max_stride {
                if frontier.is_empty() {
                    // Every path already hit a leaf.
                    break;
                }
                let mut next = Vec::new();
                let mut sum = Level::default();
                for &f in &frontier {
                    let ProperNode::Internal { left, right } = *proper.node(f) else {
                        unreachable!("frontier holds internal nodes")
                    };
                    for c in [left, right] {
                        if let ProperNode::Internal { .. } = proper.node(c) {
                            next.push(c);
                            let c = c as usize;
                            sum.pcost += self.pcost[c];
                            sum.cost += self.cost[c];
                            sum.mass += self.mass[c];
                        }
                    }
                }
                frontier = next;
                let width = 1u64 << s;
                out.push(Level {
                    pcost: mu * width as f64 + sum.pcost,
                    cost: sum.cost,
                    mass: width + sum.mass,
                });
            }
            out
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// One round of [`solve`] against the frontier reference at every
    /// stride cap and penalty the planner meets. A node may choose another
    /// stride than the reference only where the reference's own
    /// candidates for the two tie to 1e-12 relative: the depth sums add
    /// two subtrees' totals where the frontier folds left to right, so an
    /// exact tie may round either way. With no such flip the masses are
    /// equal and the costs and objectives equal to 1e-12 relative; with
    /// one, the objective still is (both plans are optimal), and the
    /// round's sums are what the reference sums for the round's own
    /// choices. Returns how many choices flipped.
    fn assert_round_matches_frontier<A: Address>(
        proper: &ProperTrie<A>,
        weights: &[f64],
        tag: &str,
    ) -> usize {
        // An interior penalty of the magnitude the default budget's
        // bisection settles on, not a power of two.
        const BISECTED_MU: f64 = 1.37e-7;
        let mut scratch = Scratch::new(proper.node_count());
        let r = proper.root_idx() as usize;
        let mut flips = 0;
        for max_stride in [1u8, 4, 12, 16] {
            for mu in [0.0, 1e-12, BISECTED_MU, MASS_ONLY_MU] {
                let tag = format!("{tag}, max_stride {max_stride}, μ = {mu:e}");
                let got = solve(proper, weights, max_stride, mu, &mut scratch);
                let want = Frontier::solve(proper, weights, max_stride, mu, None);
                let mut flipped = 0;
                for (i, node) in proper.nodes().iter().enumerate() {
                    let (g, w) = (scratch.choice[i], want.choice[i]);
                    if matches!(node, ProperNode::Leaf(_)) || g == w {
                        continue;
                    }
                    let c = want.candidates(proper, i as u32, max_stride, mu);
                    let (pg, pw) = (c[usize::from(g) - 1].pcost, c[usize::from(w) - 1].pcost);
                    assert!(
                        close(pg, pw),
                        "{tag}: node {i} chose {g} ({pg}) over {w} ({pw})"
                    );
                    flipped += 1;
                }
                let objective = |p: f64| close(got.pcost, p);
                assert!(
                    objective(want.pcost[r]),
                    "{tag}: objective {} vs {}",
                    got.pcost,
                    want.pcost[r]
                );
                let sums = if flipped == 0 {
                    want
                } else {
                    Frontier::solve(proper, weights, max_stride, mu, Some(&scratch.choice))
                };
                assert_eq!(got.mass, sums.mass[r], "{tag}: mass, {flipped} flips");
                assert!(
                    close(got.cost, sums.cost[r]),
                    "{tag}: cost {} vs {}",
                    got.cost,
                    sums.cost[r]
                );
                assert!(
                    objective(sums.pcost[r]),
                    "{tag}: objective of the round's own plan"
                );
                flips += flipped;
            }
        }
        flips
    }

    /// [`assert_round_matches_frontier`] under uniform weights, and under
    /// heat at the slab's block depth: the block of each route's address
    /// and one random block per route, counts in `[1, 1000)`.
    fn assert_planner_round_matches<A: Address>(trie: &BinaryTrie<A>, name: &str) {
        use fib_workload::rng::{Rng, Xoshiro256};
        let proper = ProperTrie::from_trie(trie);
        // Uniform weights are dyadic, so sums of them are exact in either
        // order and a tie between them stays a tie, which both rounds
        // break to the narrower stride. On these tables no choice flips
        // at any μ: uniform plans, and so a uniform compile's bytes, are
        // the frontier round's.
        let uniform = project_heat_weights(&proper, &[], 0);
        let flips = assert_round_matches_frontier(&proper, &uniform, &format!("{name}, uniform"));
        assert_eq!(flips, 0, "{name}: uniform weights flip no choice");

        let depth = crate::HotConfig::for_width(A::WIDTH).depth;
        let mut rng = Xoshiro256::seed_from_u64(0x5EED);
        let mut heat = Vec::new();
        for (prefix, _) in trie.iter() {
            let random = A::from_u128(rng.random::<u128>() >> (128 - u32::from(A::WIDTH)));
            for addr in [prefix.addr(), random] {
                heat.push((
                    fib_trie::block_key(addr, depth),
                    rng.random_range(1..1000u64),
                ));
            }
        }
        let heat = project_heat_weights(&proper, &heat, depth);
        assert_round_matches_frontier(&proper, &heat, &format!("{name}, heat"));
    }

    #[test]
    fn depth_sum_round_matches_the_frontier_reference() {
        use fib_workload::rng::Xoshiro256;
        let mut taz = fib_workload::instances::by_name("taz").unwrap();
        taz.n_prefixes = 4_000;
        assert_planner_round_matches(&taz.build(0xF1B), "taz 4k");
        assert_planner_round_matches(&spread_trie(), "spread");
        let v6: BinaryTrie<u128> = fib_workload::FibSpec {
            max_len: 64,
            ..fib_workload::FibSpec::dfz_like(3_000)
        }
        .generate(&mut Xoshiro256::seed_from_u64(6));
        assert_planner_round_matches(&v6, "v6");

        // Hostile shapes. A chain: one internal node per level down to a
        // /32, alternating labels so nothing coalesces.
        let chain: BinaryTrie<u32> = (0..=32u8)
            .map(|len| (Prefix4::new(0x0A0B_0C0D, len), nh(u32::from(len % 2))))
            .collect();
        assert_planner_round_matches(&chain, "/0…/32 chain");
        // A /8 split into its 65,536 /24s: a complete tree sixteen levels
        // deep, the widest frontier any stride cap reaches.
        let mut split: BinaryTrie<u32> = BinaryTrie::new();
        split.insert(p("0.0.0.0/0"), nh(0));
        for i in 0..1u32 << 16 {
            split.insert(Prefix4::new(0x0A00_0000 | i << 8, 24), nh(1 + i % 2));
        }
        assert_planner_round_matches(&split, "/8 into /24s");
        let mut single: BinaryTrie<u32> = BinaryTrie::new();
        single.insert(p("10.1.0.0/16"), nh(1));
        assert_planner_round_matches(&single, "single route");
        assert_planner_round_matches(&BinaryTrie::<u32>::new(), "empty");
    }
}
