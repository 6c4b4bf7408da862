//! Symbolic packet sets and packet transformers (KATch-style SP/SPP).
//!
//! The enumerative reference procedure in [`crate::oracle`] enumerates a
//! finite model whose size is the product of the per-field constant
//! domains — hopeless for thousand-switch fabrics. This module implements
//! the symbolic representation KATch introduced for NetKAT: BDD-like,
//! hash-consed, *canonical* decision structures ordered by field, so that
//! semantic equivalence of two structures built in the same [`Arena`] is
//! **pointer (id) equality**.
//!
//! Two node spaces share one arena:
//!
//! * **SP** — a symbolic *packet set* (a predicate denotation). An SP node
//!   `⟨f, branches, default⟩` tests field `f`: a packet with `pkt[f] = v`
//!   continues into `branches[v]` when present, `default` otherwise.
//!   Leaves are [`Sp::EMPTY`] and [`Sp::FULL`].
//! * **SPP** — a symbolic *packet transformer* (a dup-free policy
//!   denotation: a relation between input and output packets). An SPP node
//!   `⟨f, branches, muts, id⟩` relates input value `v` to output value `w`
//!   as follows: if `v ∈ dom(branches)` the pair continues into
//!   `branches[v][w]` (absent ⇒ reject); otherwise the *untested* row
//!   applies — `w = v` continues into `id`, `w ≠ v` into `muts[w]`
//!   (absent ⇒ reject). Leaves are [`Spp::ZERO`] (the empty relation) and
//!   [`Spp::ONE`] (identity on all remaining fields).
//!
//! # Canonical form
//!
//! Constructors enforce, and interning exploits, the following rules:
//!
//! 1. children live at strictly greater field indices (field-ordered);
//! 2. `ZERO` children are erased from SPP output maps and `muts`
//!    (absence means rejection), and SP branches equal to the node's
//!    `default` are erased;
//! 3. an SPP branch equal to the *effective default row* at its value
//!    (`muts` minus that value, plus `value → id` when `id ≠ ZERO`) is
//!    erased;
//! 4. a node with no residual branches (and, for SPP, no `muts`) collapses
//!    to its default / `id` — an untested field is skipped entirely.
//!
//! The `(muts, id)` pair is uniquely determined by the relation's behaviour
//! on the infinitely many untested values, and the branch set is minimal by
//! rule 3, so *every dup-free transformer has exactly one representation*:
//! equivalence checking is `Spp` id comparison. The differential property
//! tests in `tests/sym_diff.rs` cross-validate this against the
//! enumerative [`crate::oracle`].
//!
//! # Node storage
//!
//! Every interned node is allocated once, behind an [`Rc`] that the id
//! table and the intern table share. Branch lists, SPP rows and `muts`
//! are vectors sorted by value and searched by bisection. An operation
//! reads its operands through a view that holds an `Rc` clone of the
//! node and hands out borrowed slices; an effective default row is a
//! `Row` iterator over `muts`, never a materialised map. A memo miss
//! therefore allocates the vectors of the node it builds (plus a merged
//! key list), and operands are never copied. The memo and intern tables
//! hash with an in-crate multiplicative (Fx) hasher instead of SipHash:
//! their keys are ids and nodes of one arena, built from operator
//! policies or the table entries of a program under analysis, never from
//! network input.
//!
//! # Star termination
//!
//! [`Arena::spp_star`] iterates squaring: `s₀ = 1 ∪ p`,
//! `sₖ₊₁ = sₖ ; sₖ`, stopping when the id is stable. `sₖ` denotes paths of
//! length `≤ 2ᵏ`, and all iterates mention only the field values occurring
//! in `p`, so the chain lives in a finite lattice and is monotone — after
//! `⌈log₂ d⌉` rounds (`d` = the longest simple path through the finite
//! packet space over those values) it is the Kleene closure. The budgeted
//! variant [`Arena::spp_star_bounded`] surfaces the iteration count and
//! returns an error instead of looping if the budget is ever exceeded;
//! iteration counts also feed the `netkat.sym.*` telemetry family via
//! [`Arena::publish_telemetry`].
//!
//! # Workspace
//!
//! The crate's queries (equivalence, reachability, slicing) do not build
//! an arena per call. Each thread keeps one compiled *workspace*: at most
//! one arena plus the policies compiled into it with their transformers,
//! so an operator asking many questions of one candidate policy compiles
//! it once (KATch's amortised reuse of hash-consed nodes). A request
//! reuses the arena only when
//!
//! * its variable order (the one [`Arena::for_policies`] would pick for
//!   the request's policies) equals the arena's, so every answer is
//!   bit-identical to a fresh arena's: canonical structures depend on
//!   the order, never on which other nodes share the arena; and
//! * at least one of its policies is already compiled there, matched by
//!   structural equality: an exact preorder token encoding of the
//!   policy, never a pointer or a hash alone.
//!
//! Missing policies are compiled into the reused arena. Otherwise the
//! old arena is dropped *before* the new one is built, so at most one
//! is alive per thread. Queries add nodes (frontiers, preimages, guarded
//! slices); once the arena holds more than `WORKSPACE_GROWTH` (2) times
//! the nodes it held after the request that built it (that request's
//! own query included, so a query larger than its policy is still
//! reused), it is dropped, which bounds memory under an endless stream
//! of queries against one policy. A fresh thread starts with an empty
//! workspace, which is how the benches time cold queries.

use crate::ast::{Field, Packet, Policy, Pred};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A symbolic packet set: an interned index into an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sp(u32);

impl Sp {
    /// The empty packet set.
    pub const EMPTY: Sp = Sp(0);
    /// The set of all packets.
    pub const FULL: Sp = Sp(1);
}

/// A symbolic packet transformer: an interned index into an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Spp(u32);

impl Spp {
    /// The empty relation (drop).
    pub const ZERO: Spp = Spp(0);
    /// The identity relation (skip).
    pub const ONE: Spp = Spp(1);
}

/// Multiplicative word hasher (the Fx scheme): one rotate, xor and
/// multiply per word. Memo keys and node contents are small integers, for
/// which SipHash's per-call setup dominates the lookup.
#[derive(Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[derive(PartialEq, Eq, Hash)]
struct SpNode {
    field: u16,
    branches: Vec<(u64, Sp)>,
    default: Sp,
}

#[derive(PartialEq, Eq, Hash)]
struct SppNode {
    field: u16,
    branches: Vec<(u64, Vec<(u64, Spp)>)>,
    muts: Vec<(u64, Spp)>,
    id: Spp,
}

impl SppNode {
    /// The output row at input value `v`.
    fn row(&self, v: u64) -> Row<'_> {
        match lookup(&self.branches, v) {
            Some(row) => Row::explicit(row),
            None => Row::default_at(&self.muts, self.id, v),
        }
    }
}

/// The value stored under `v` in a list sorted by value.
fn lookup<T>(list: &[(u64, T)], v: u64) -> Option<&T> {
    list.binary_search_by_key(&v, |(w, _)| *w)
        .ok()
        .map(|i| &list[i].1)
}

/// The sorted, deduplicated union of some values.
fn merged_keys(keys: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// One SPP output row, `(output value, continuation)` in ascending
/// output order: either an explicit branch row, or the effective default
/// row at input `v` (`muts` minus `v`, plus `v → id` when `id ≠ ZERO`),
/// produced by merging on the fly.
#[derive(Clone)]
struct Row<'a> {
    rest: &'a [(u64, Spp)],
    /// The input value whose `muts` entry the untested row hides.
    skip: Option<u64>,
    /// The `v → id` entry still to be merged in.
    pending: Option<(u64, Spp)>,
}

impl<'a> Row<'a> {
    fn explicit(row: &'a [(u64, Spp)]) -> Row<'a> {
        Row {
            rest: row,
            skip: None,
            pending: None,
        }
    }

    fn default_at(muts: &'a [(u64, Spp)], id: Spp, v: u64) -> Row<'a> {
        Row {
            rest: muts,
            skip: Some(v),
            pending: (id != Spp::ZERO).then_some((v, id)),
        }
    }
}

impl Iterator for Row<'_> {
    type Item = (u64, Spp);

    fn next(&mut self) -> Option<(u64, Spp)> {
        loop {
            let head = self.rest.first().copied();
            if let Some(p) = self.pending {
                if head.is_none_or(|(w, _)| p.0 <= w) {
                    self.pending = None;
                    return Some(p);
                }
            }
            let (w, c) = head?;
            self.rest = &self.rest[1..];
            if self.skip != Some(w) {
                return Some((w, c));
            }
        }
    }
}

/// The two commutative set operations sharing [`Arena::sp_apply`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SetOp {
    Union,
    Intersect,
}

impl SetOp {
    /// The result when it needs no recursion: equal operands, or a leaf
    /// that is the operation's unit (returns the other operand) or its
    /// absorbing element (returns itself).
    fn terminal(self, a: Sp, b: Sp) -> Option<Sp> {
        let (unit, absorbing) = match self {
            SetOp::Union => (Sp::EMPTY, Sp::FULL),
            SetOp::Intersect => (Sp::FULL, Sp::EMPTY),
        };
        if a == b || b == unit {
            Some(a)
        } else if a == unit {
            Some(b)
        } else if a == absorbing || b == absorbing {
            Some(absorbing)
        } else {
            None
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Memo {
    SpApply(SetOp, u32, u32),
    SpComp(u32),
    SppUnion(u32, u32),
    SppSeq(u32, u32),
    SppTest(u32),
    Push(u32, u32),
    Pre(u32, u32),
}

/// Operation counters for one arena; see [`Arena::stats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct SymStats {
    /// Memoized operation results served from cache.
    pub cache_hits: u64,
    /// Operations that had to be computed.
    pub cache_misses: u64,
    /// Total star fixpoint (squaring) iterations across all star runs.
    pub star_iterations: u64,
    /// Number of star fixpoints computed.
    pub star_runs: u64,
}

/// Star budget used by the panicking convenience wrapper. Squaring reaches
/// path length `2^128` here, far past any finite packet space a policy can
/// generate, so exceeding it indicates a broken canonical form.
pub const DEFAULT_STAR_BUDGET: u32 = 128;

/// Error from [`Arena::spp_star_bounded`]: the squaring fixpoint did not
/// stabilize within the given iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarBudgetExceeded {
    /// Iterations performed before giving up.
    pub iterations: u32,
}

impl std::fmt::Display for StarBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "symbolic star fixpoint exceeded its budget after {} iterations",
            self.iterations
        )
    }
}

impl std::error::Error for StarBudgetExceeded {}

/// Error from converting a policy to symbolic form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymError {
    /// The policy contains `dup`; only the dup-free fragment has a
    /// packet-transformer denotation.
    DupUnsupported,
    /// A star inside the policy exceeded the fixpoint budget.
    StarBudget(StarBudgetExceeded),
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::DupUnsupported => {
                write!(f, "dup is not supported by the symbolic engine")
            }
            SymError::StarBudget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SymError {}

/// An SP operand expanded at one field: the node when it tests that
/// field, otherwise no branches and the operand itself as default.
struct SpView {
    node: Option<Rc<SpNode>>,
    default: Sp,
}

impl SpView {
    fn branches(&self) -> &[(u64, Sp)] {
        self.node.as_deref().map_or(&[], |n| &n.branches)
    }

    /// The child at value `v`.
    fn at(&self, v: u64) -> Sp {
        lookup(self.branches(), v).copied().unwrap_or(self.default)
    }
}

/// An SPP operand expanded at one field, like [`SpView`]: a leaf or a
/// deeper node has no branches and no `muts`, and is its own `id`.
struct SppView {
    node: Option<Rc<SppNode>>,
    id: Spp,
}

impl SppView {
    fn branches(&self) -> &[(u64, Vec<(u64, Spp)>)] {
        self.node.as_deref().map_or(&[], |n| &n.branches)
    }

    fn muts(&self) -> &[(u64, Spp)] {
        self.node.as_deref().map_or(&[], |n| &n.muts)
    }

    /// The output row at input value `v`.
    fn row(&self, v: u64) -> Row<'_> {
        match &self.node {
            Some(n) => n.row(v),
            None => Row::default_at(&[], self.id, v),
        }
    }
}

/// A hash-consed arena of SP/SPP nodes over `num_fields` packet fields.
///
/// All structures built in one arena are canonical relative to it, so `==`
/// on [`Sp`]/[`Spp`] ids decides semantic equality. The arena is generic in
/// its field count: NetKAT uses [`Arena::for_netkat`] (the six
/// [`Field`]s); `pda-analyze` reuses it over table key columns.
pub struct Arena {
    num_fields: u16,
    /// `order[slot]` = external field index stored at arena slot `slot`.
    /// Children in nodes are ordered by *slot*, so this is the variable
    /// order of the decision structure — like a BDD's, it decides node
    /// counts, not semantics. Identity unless built by
    /// [`Arena::for_policies`].
    order: Vec<u16>,
    /// Inverse of `order`: `slot_of[field]` = arena slot of that field.
    slot_of: Vec<u16>,
    sp_nodes: Vec<Rc<SpNode>>,
    sp_intern: FxMap<Rc<SpNode>, u32>,
    spp_nodes: Vec<Rc<SppNode>>,
    spp_intern: FxMap<Rc<SppNode>, u32>,
    memo: FxMap<Memo, u32>,
    stats: SymStats,
}

impl Arena {
    /// An empty arena over `num_fields` fields (field indices
    /// `0..num_fields`, identity variable order).
    pub fn new(num_fields: u16) -> Arena {
        let identity: Vec<u16> = (0..num_fields).collect();
        Arena {
            num_fields,
            order: identity.clone(),
            slot_of: identity,
            sp_nodes: Vec::new(),
            sp_intern: FxMap::default(),
            spp_nodes: Vec::new(),
            spp_intern: FxMap::default(),
            memo: FxMap::default(),
            stats: SymStats::default(),
        }
    }

    /// An arena over the NetKAT packet fields ([`Field::ALL`]) in their
    /// declaration order.
    pub fn for_netkat() -> Arena {
        Arena::new(Field::ALL.len() as u16)
    }

    /// A NetKAT arena whose variable order is chosen by inspecting the
    /// policies it will host.
    ///
    /// The order matters the way a BDD's does. A node's untested row can
    /// express "output = input" only through its single `id` child, so a
    /// transformer that assigns field `A` values *dispatched on a deeper
    /// field* `B` (e.g. `filter dst=j; sw:=j` for every `j`, with `sw`
    /// ordered above `dst`) forces an explicit branch per input value of
    /// `A`, each carrying the full fan-out — an O(n²)-sized root. Ordering
    /// `B` first makes the same relation a linear-size dispatch on `B`.
    ///
    /// Heuristic: fields are ordered by ascending *assignment fan-out*
    /// (the number of distinct constants the policies ever assign to the
    /// field), ties broken by declaration order. Tested-only fields come
    /// first and high-fan-out rewrite targets sink to the bottom, which
    /// turns thousand-switch fabric dispatch from quadratic-size nodes
    /// into linear ones (experiment E19).
    pub fn for_policies(ps: &[&Policy]) -> Arena {
        Arena::with_order(order_for(ps))
    }

    /// A NetKAT arena whose slot `i` stores field `order[i]`.
    fn with_order(order: Vec<u16>) -> Arena {
        let mut ar = Arena::for_netkat();
        for (slot, &f) in order.iter().enumerate() {
            ar.slot_of[f as usize] = slot as u16;
        }
        ar.order = order;
        ar
    }

    /// Number of fields this arena's structures range over.
    pub fn num_fields(&self) -> u16 {
        self.num_fields
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> SymStats {
        self.stats
    }

    /// Interned SP node count (excluding the two leaves).
    pub fn sp_node_count(&self) -> usize {
        self.sp_nodes.len()
    }

    /// Interned SPP node count (excluding the two leaves).
    pub fn spp_node_count(&self) -> usize {
        self.spp_nodes.len()
    }

    /// Interned SP and SPP nodes together.
    fn node_count(&self) -> usize {
        self.sp_nodes.len() + self.spp_nodes.len()
    }

    /// Publish arena statistics as the `netkat.sym.*` metric family.
    pub fn publish_telemetry(&self, tel: &pda_telemetry::Telemetry) {
        if let Some(reg) = tel.registry() {
            reg.gauge("netkat.sym.sp_nodes")
                .set(self.sp_nodes.len() as i64);
            reg.gauge("netkat.sym.spp_nodes")
                .set(self.spp_nodes.len() as i64);
            reg.counter("netkat.sym.cache_hits")
                .add(self.stats.cache_hits);
            reg.counter("netkat.sym.cache_misses")
                .add(self.stats.cache_misses);
            reg.counter("netkat.sym.star_iterations")
                .add(self.stats.star_iterations);
            reg.counter("netkat.sym.star_runs")
                .add(self.stats.star_runs);
        }
    }

    // ------------------------------------------------------------------
    // Interning and canonical constructors
    // ------------------------------------------------------------------

    fn intern_sp(&mut self, node: SpNode) -> Sp {
        if let Some(&id) = self.sp_intern.get(&node) {
            return Sp(id);
        }
        let id = u32::try_from(self.sp_nodes.len() + 2).expect("sp arena overflow");
        let node = Rc::new(node);
        self.sp_nodes.push(Rc::clone(&node));
        self.sp_intern.insert(node, id);
        Sp(id)
    }

    fn intern_spp(&mut self, node: SppNode) -> Spp {
        if let Some(&id) = self.spp_intern.get(&node) {
            return Spp(id);
        }
        let id = u32::try_from(self.spp_nodes.len() + 2).expect("spp arena overflow");
        let node = Rc::new(node);
        self.spp_nodes.push(Rc::clone(&node));
        self.spp_intern.insert(node, id);
        Spp(id)
    }

    /// Intern `⟨field, branches, default⟩`; `branches` is sorted by value.
    fn mk_sp(&mut self, field: u16, mut branches: Vec<(u64, Sp)>, default: Sp) -> Sp {
        branches.retain(|&(_, c)| c != default);
        if branches.is_empty() {
            return default;
        }
        self.intern_sp(SpNode {
            field,
            branches,
            default,
        })
    }

    /// Intern `⟨field, branches, muts, id⟩`; every list is sorted by value.
    fn mk_spp(
        &mut self,
        field: u16,
        mut branches: Vec<(u64, Vec<(u64, Spp)>)>,
        mut muts: Vec<(u64, Spp)>,
        id: Spp,
    ) -> Spp {
        muts.retain(|&(_, c)| c != Spp::ZERO);
        branches.retain_mut(|(v, row)| {
            row.retain(|&(_, c)| c != Spp::ZERO);
            !Row::default_at(&muts, id, *v).eq(row.iter().copied())
        });
        if branches.is_empty() && muts.is_empty() {
            return id;
        }
        self.intern_spp(SppNode {
            field,
            branches,
            muts,
            id,
        })
    }

    // ------------------------------------------------------------------
    // Views (uniform expansion at a given field)
    // ------------------------------------------------------------------

    fn sp_node(&self, x: Sp) -> &Rc<SpNode> {
        &self.sp_nodes[(x.0 - 2) as usize]
    }

    fn spp_node(&self, x: Spp) -> &Rc<SppNode> {
        &self.spp_nodes[(x.0 - 2) as usize]
    }

    fn sp_field(&self, x: Sp) -> u16 {
        if x == Sp::EMPTY || x == Sp::FULL {
            u16::MAX
        } else {
            self.sp_node(x).field
        }
    }

    fn spp_field(&self, x: Spp) -> u16 {
        if x == Spp::ZERO || x == Spp::ONE {
            u16::MAX
        } else {
            self.spp_node(x).field
        }
    }

    fn sp_view(&self, x: Sp, field: u16) -> SpView {
        if self.sp_field(x) == field {
            let n = self.sp_node(x);
            SpView {
                default: n.default,
                node: Some(Rc::clone(n)),
            }
        } else {
            // Leaf or a node at a deeper field: `field` is unconstrained.
            SpView {
                node: None,
                default: x,
            }
        }
    }

    fn spp_view(&self, x: Spp, field: u16) -> SppView {
        if self.spp_field(x) == field {
            let n = self.spp_node(x);
            SppView {
                id: n.id,
                node: Some(Rc::clone(n)),
            }
        } else {
            // ZERO: rejects everything. ONE / deeper node: identity here.
            SppView { node: None, id: x }
        }
    }

    // ------------------------------------------------------------------
    // SP operations
    // ------------------------------------------------------------------

    /// Set union.
    pub fn sp_union(&mut self, a: Sp, b: Sp) -> Sp {
        self.sp_apply(SetOp::Union, a, b)
    }

    /// Set intersection.
    pub fn sp_intersect(&mut self, a: Sp, b: Sp) -> Sp {
        self.sp_apply(SetOp::Intersect, a, b)
    }

    /// Memoized BDD-style binary apply: expand both operands at the
    /// smaller top field, combine child by child, rebuild canonically.
    fn sp_apply(&mut self, op: SetOp, a: Sp, b: Sp) -> Sp {
        if let Some(r) = op.terminal(a, b) {
            return r;
        }
        let key = Memo::SpApply(op, a.min(b).0, a.max(b).0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Sp(r);
        }
        self.stats.cache_misses += 1;
        let f = self.sp_field(a).min(self.sp_field(b));
        let va = self.sp_view(a, f);
        let vb = self.sp_view(b, f);
        let keys = merged_keys(va.branches().iter().chain(vb.branches()).map(|b| b.0));
        let mut branches = Vec::with_capacity(keys.len());
        for v in keys {
            let c = self.sp_apply(op, va.at(v), vb.at(v));
            branches.push((v, c));
        }
        let default = self.sp_apply(op, va.default, vb.default);
        let r = self.mk_sp(f, branches, default);
        self.memo.insert(key, r.0);
        r
    }

    /// Set complement.
    pub fn sp_complement(&mut self, a: Sp) -> Sp {
        if a == Sp::EMPTY {
            return Sp::FULL;
        }
        if a == Sp::FULL {
            return Sp::EMPTY;
        }
        let key = Memo::SpComp(a.0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Sp(r);
        }
        self.stats.cache_misses += 1;
        let n = Rc::clone(self.sp_node(a));
        let mut branches = Vec::with_capacity(n.branches.len());
        for &(v, c) in &n.branches {
            let cc = self.sp_complement(c);
            branches.push((v, cc));
        }
        let default = self.sp_complement(n.default);
        let r = self.mk_sp(n.field, branches, default);
        self.memo.insert(key, r.0);
        r
    }

    /// Set difference `a ∖ b`.
    pub fn sp_diff(&mut self, a: Sp, b: Sp) -> Sp {
        let nb = self.sp_complement(b);
        self.sp_intersect(a, nb)
    }

    /// Is the set empty? (Canonical form makes this an id test.)
    pub fn sp_is_empty(&self, a: Sp) -> bool {
        a == Sp::EMPTY
    }

    /// Does the set contain the packet `vals` (one value per field)?
    pub fn sp_contains(&self, a: Sp, vals: &[u64]) -> bool {
        let mut cur = a;
        loop {
            if cur == Sp::EMPTY {
                return false;
            }
            if cur == Sp::FULL {
                return true;
            }
            let n = self.sp_node(cur);
            let v = vals[n.field as usize];
            cur = lookup(&n.branches, v).copied().unwrap_or(n.default);
        }
    }

    /// Some packet in the set, if any.
    pub fn sp_witness(&self, a: Sp) -> Option<Vec<u64>> {
        let mut out = vec![0u64; self.num_fields as usize];
        if self.sp_witness_into(a, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn sp_witness_into(&self, a: Sp, out: &mut [u64]) -> bool {
        if a == Sp::EMPTY {
            return false;
        }
        if a == Sp::FULL {
            return true;
        }
        let n = self.sp_node(a);
        // Fields between `field` and `n.field` are unconstrained (left 0).
        for &(v, c) in &n.branches {
            out[n.field as usize] = v;
            if self.sp_witness_into(c, out) {
                return true;
            }
        }
        out[n.field as usize] = fresh_value(|v| lookup(&n.branches, v).is_some());
        self.sp_witness_into(n.default, out)
    }

    /// The singleton set containing exactly `vals`.
    pub fn sp_singleton(&mut self, vals: &[u64]) -> Sp {
        let mut acc = Sp::FULL;
        for f in (0..vals.len()).rev() {
            acc = self.mk_sp(f as u16, vec![(vals[f], acc)], Sp::EMPTY);
        }
        acc
    }

    /// The set of packets `{ p | p[field] = value }`.
    pub fn sp_test(&mut self, field: u16, value: u64) -> Sp {
        self.mk_sp(field, vec![(value, Sp::FULL)], Sp::EMPTY)
    }

    // ------------------------------------------------------------------
    // SPP operations
    // ------------------------------------------------------------------

    /// Merge-join two rows, uniting the continuations of shared outputs.
    fn union_rows(&mut self, a: Row, b: Row) -> Vec<(u64, Spp)> {
        let mut out = Vec::new();
        let (mut a, mut b) = (a.peekable(), b.peekable());
        loop {
            let next = match (a.peek().copied(), b.peek().copied()) {
                (None, None) => return out,
                (Some(x), None) => {
                    a.next();
                    x
                }
                (None, Some(y)) => {
                    b.next();
                    y
                }
                (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                    Ordering::Less => {
                        a.next();
                        x
                    }
                    Ordering::Greater => {
                        b.next();
                        y
                    }
                    Ordering::Equal => {
                        a.next();
                        b.next();
                        (x.0, self.spp_union(x.1, y.1))
                    }
                },
            };
            out.push(next);
        }
    }

    /// Sort `(value, child)` contributions by value and combine the
    /// children of equal values under `op`, in contribution order.
    fn fold_by_value<T: Copy>(
        &mut self,
        mut list: Vec<(u64, T)>,
        op: impl Fn(&mut Arena, T, T) -> T,
    ) -> Vec<(u64, T)> {
        // Stable, so equal values are combined in the order they arrived.
        list.sort_by_key(|&(v, _)| v);
        let mut kept = 0;
        for i in 0..list.len() {
            let (v, c) = list[i];
            if kept > 0 && list[kept - 1].0 == v {
                list[kept - 1].1 = op(self, list[kept - 1].1, c);
            } else {
                list[kept] = (v, c);
                kept += 1;
            }
        }
        list.truncate(kept);
        list
    }

    /// Transformer union: `a + b`.
    pub fn spp_union(&mut self, a: Spp, b: Spp) -> Spp {
        if a == b || b == Spp::ZERO {
            return a;
        }
        if a == Spp::ZERO {
            return b;
        }
        let key = Memo::SppUnion(a.min(b).0, a.max(b).0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Spp(r);
        }
        self.stats.cache_misses += 1;
        let f = self.spp_field(a).min(self.spp_field(b));
        let va = self.spp_view(a, f);
        let vb = self.spp_view(b, f);
        let tested = merged_keys(va.branches().iter().chain(vb.branches()).map(|b| b.0));
        let mut branches = Vec::with_capacity(tested.len());
        for v in tested {
            let row = self.union_rows(va.row(v), vb.row(v));
            branches.push((v, row));
        }
        let muts = self.union_rows(Row::explicit(va.muts()), Row::explicit(vb.muts()));
        let id = self.spp_union(va.id, vb.id);
        let r = self.mk_spp(f, branches, muts, id);
        self.memo.insert(key, r.0);
        r
    }

    /// Sequential composition `a ; b`.
    pub fn spp_seq(&mut self, a: Spp, b: Spp) -> Spp {
        if a == Spp::ZERO || b == Spp::ZERO {
            return Spp::ZERO;
        }
        if a == Spp::ONE {
            return b;
        }
        if b == Spp::ONE {
            return a;
        }
        let key = Memo::SppSeq(a.0, b.0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Spp(r);
        }
        self.stats.cache_misses += 1;
        let f = self.spp_field(a).min(self.spp_field(b));
        let va = self.spp_view(a, f);
        let vb = self.spp_view(b, f);

        // Behaviour on a *generic* untested input value v: a's muts lead
        // into b at known constants; a's id leads into b's untested row.
        let mut gen_muts = Vec::new();
        for &(w, ca) in va.muts() {
            for (z, cb) in vb.row(w) {
                let c = self.spp_seq(ca, cb);
                if c != Spp::ZERO {
                    gen_muts.push((z, c));
                }
            }
        }
        for &(z, cb) in vb.muts() {
            let c = self.spp_seq(va.id, cb);
            if c != Spp::ZERO {
                gen_muts.push((z, c));
            }
        }
        let gen_muts = self.fold_by_value(gen_muts, Arena::spp_union);
        let gen_id = self.spp_seq(va.id, vb.id);

        // Inputs whose behaviour can differ from the generic row: values
        // tested or mutated by either side, plus any value the generic row
        // itself outputs (for those, "output = input" is reachable through
        // a mut chain, which the untested row cannot express).
        let tested = merged_keys(
            va.branches()
                .iter()
                .map(|b| b.0)
                .chain(va.muts().iter().map(|m| m.0))
                .chain(vb.branches().iter().map(|b| b.0))
                .chain(vb.muts().iter().map(|m| m.0))
                .chain(gen_muts.iter().map(|m| m.0)),
        );
        let mut branches = Vec::with_capacity(tested.len());
        for v in tested {
            let mut out = Vec::new();
            for (w, ca) in va.row(v) {
                for (z, cb) in vb.row(w) {
                    let c = self.spp_seq(ca, cb);
                    if c != Spp::ZERO {
                        out.push((z, c));
                    }
                }
            }
            let out = self.fold_by_value(out, Arena::spp_union);
            branches.push((v, out));
        }
        let r = self.mk_spp(f, branches, gen_muts, gen_id);
        self.memo.insert(key, r.0);
        r
    }

    /// Kleene star `a*` with an explicit iteration budget; returns the
    /// closure and the number of squaring rounds used.
    pub fn spp_star_bounded(
        &mut self,
        a: Spp,
        budget: u32,
    ) -> Result<(Spp, u32), StarBudgetExceeded> {
        self.stats.star_runs += 1;
        let mut s = self.spp_union(Spp::ONE, a);
        let mut iters = 0u32;
        loop {
            let s2 = self.spp_seq(s, s);
            iters += 1;
            self.stats.star_iterations += 1;
            if s2 == s {
                return Ok((s, iters));
            }
            if iters >= budget {
                return Err(StarBudgetExceeded { iterations: iters });
            }
            s = s2;
        }
    }

    /// Kleene star `a*` (squaring fixpoint, [`DEFAULT_STAR_BUDGET`]).
    pub fn spp_star(&mut self, a: Spp) -> Spp {
        match self.spp_star_bounded(a, DEFAULT_STAR_BUDGET) {
            Ok((s, _)) => s,
            Err(e) => unreachable!("star fixpoint must stabilize on a finite lattice: {e}"),
        }
    }

    /// Restrict the identity to a set: the partial-identity transformer
    /// `{(p, p) | p ∈ a}` (the denotation of `filter`).
    pub fn spp_test(&mut self, a: Sp) -> Spp {
        if a == Sp::EMPTY {
            return Spp::ZERO;
        }
        if a == Sp::FULL {
            return Spp::ONE;
        }
        let key = Memo::SppTest(a.0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Spp(r);
        }
        self.stats.cache_misses += 1;
        let n = Rc::clone(self.sp_node(a));
        let mut branches = Vec::with_capacity(n.branches.len());
        for &(v, c) in &n.branches {
            let t = self.spp_test(c);
            branches.push((v, vec![(v, t)]));
        }
        let id = self.spp_test(n.default);
        let r = self.mk_spp(n.field, branches, Vec::new(), id);
        self.memo.insert(key, r.0);
        r
    }

    /// The transformer `field := value` (identity on the other fields).
    pub fn spp_assign(&mut self, field: u16, value: u64) -> Spp {
        let branches = vec![(value, vec![(value, Spp::ONE)])];
        let muts = vec![(value, Spp::ONE)];
        self.mk_spp(field, branches, muts, Spp::ZERO)
    }

    // ------------------------------------------------------------------
    // Images
    // ------------------------------------------------------------------

    /// Forward image: `{ β | ∃ α ∈ s. (α, β) ∈ t }`.
    pub fn push(&mut self, s: Sp, t: Spp) -> Sp {
        if s == Sp::EMPTY || t == Spp::ZERO {
            return Sp::EMPTY;
        }
        if t == Spp::ONE {
            return s;
        }
        let key = Memo::Push(s.0, t.0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Sp(r);
        }
        self.stats.cache_misses += 1;
        let f = self.sp_field(s).min(self.spp_field(t));
        let vs = self.sp_view(s, f);
        let vt = self.spp_view(t, f);
        let tested_in = merged_keys(
            vs.branches()
                .iter()
                .map(|b| b.0)
                .chain(vt.branches().iter().map(|b| b.0)),
        );
        // Output buckets, as contributions united below. Every tested
        // *input* value is also pinned as an output bucket: its
        // id-contribution was handled exactly, so the generic default
        // (which includes the id image) must not apply.
        let mut buckets: Vec<(u64, Sp)> = tested_in.iter().map(|&w| (w, Sp::EMPTY)).collect();
        for &v in &tested_in {
            let sv = vs.at(v);
            if sv == Sp::EMPTY {
                continue;
            }
            for (w, c) in vt.row(v) {
                let img = self.push(sv, c);
                buckets.push((w, img));
            }
        }
        for &(w, c) in vt.muts() {
            // Valid for any untested input v ≠ w; such inputs always exist.
            let img = self.push(vs.default, c);
            buckets.push((w, img));
        }
        let default = self.push(vs.default, vt.id);
        let mut buckets = self.fold_by_value(buckets, Arena::sp_union);
        // Buckets at values that are *not* tested inputs additionally
        // receive the generic id image (an untested input equal to that
        // output value maps onto it through id).
        for (w, img) in &mut buckets {
            if tested_in.binary_search(&*w).is_err() {
                *img = self.sp_union(*img, default);
            }
        }
        let r = self.mk_sp(f, buckets, default);
        self.memo.insert(key, r.0);
        r
    }

    /// Backward image (preimage): `{ α | ∃ β ∈ s. (α, β) ∈ t }`.
    pub fn pre(&mut self, t: Spp, s: Sp) -> Sp {
        if s == Sp::EMPTY || t == Spp::ZERO {
            return Sp::EMPTY;
        }
        if t == Spp::ONE {
            return s;
        }
        let key = Memo::Pre(t.0, s.0);
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Sp(r);
        }
        self.stats.cache_misses += 1;
        let f = self.sp_field(s).min(self.spp_field(t));
        let vs = self.sp_view(s, f);
        let vt = self.spp_view(t, f);
        let tested = merged_keys(
            vt.branches()
                .iter()
                .map(|b| b.0)
                .chain(vt.muts().iter().map(|m| m.0))
                .chain(vs.branches().iter().map(|b| b.0)),
        );
        let mut branches = Vec::with_capacity(tested.len());
        for v in tested {
            let mut acc = Sp::EMPTY;
            for (w, c) in vt.row(v) {
                let p = self.pre(c, vs.at(w));
                acc = self.sp_union(acc, p);
            }
            branches.push((v, acc));
        }
        let mut default = self.pre(vt.id, vs.default);
        for &(w, c) in vt.muts() {
            let p = self.pre(c, vs.at(w));
            default = self.sp_union(default, p);
        }
        let r = self.mk_sp(f, branches, default);
        self.memo.insert(key, r.0);
        r
    }

    // ------------------------------------------------------------------
    // Evaluation (for testing and witness validation)
    // ------------------------------------------------------------------

    /// Evaluate the transformer on a concrete input, returning the set of
    /// outputs (small by construction — used by tests and witnesses).
    pub fn spp_eval(&self, t: Spp, input: &[u64]) -> BTreeSet<Vec<u64>> {
        let mut out = BTreeSet::new();
        self.spp_eval_into(t, input, 0, &[], &mut out);
        out
    }

    fn spp_eval_into(
        &self,
        t: Spp,
        input: &[u64],
        field: u16,
        prefix: &[u64],
        out: &mut BTreeSet<Vec<u64>>,
    ) {
        if t == Spp::ZERO {
            return;
        }
        if t == Spp::ONE {
            // Identity on the remaining fields field..num_fields.
            let mut v = prefix.to_vec();
            v.extend_from_slice(&input[field as usize..]);
            out.insert(v);
            return;
        }
        let n = self.spp_node(t);
        // Fields field..n.field are identity (skipped).
        let skipped = &input[field as usize..n.field as usize];
        for (w, c) in n.row(input[n.field as usize]) {
            let mut p = prefix.to_vec();
            p.extend_from_slice(skipped);
            p.push(w);
            self.spp_eval_into(c, input, n.field + 1, &p, out);
        }
    }

    // ------------------------------------------------------------------
    // Counterexample extraction
    // ------------------------------------------------------------------

    /// An input on which `a` and `b` produce different output sets, if the
    /// two transformers differ. Canonical form guarantees `a != b` (as
    /// ids) iff such an input exists.
    pub fn distinguishing_input(&self, a: Spp, b: Spp) -> Option<Vec<u64>> {
        if a == b {
            return None;
        }
        let mut out = vec![0u64; self.num_fields as usize];
        if self.distinguish_into(a, b, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn distinguish_into(&self, a: Spp, b: Spp, out: &mut [u64]) -> bool {
        if a == b {
            return false;
        }
        let f = self.spp_field(a).min(self.spp_field(b));
        if f == u16::MAX {
            // One leaf is ZERO and the other ONE: any input distinguishes
            // (fields field.. already hold defaults in `out`).
            return true;
        }
        let va = self.spp_view(a, f);
        let vb = self.spp_view(b, f);
        let mut candidates = merged_keys(
            va.branches()
                .iter()
                .map(|b| b.0)
                .chain(va.muts().iter().map(|m| m.0))
                .chain(vb.branches().iter().map(|b| b.0))
                .chain(vb.muts().iter().map(|m| m.0)),
        );
        let fresh = fresh_value(|v| candidates.binary_search(&v).is_ok());
        candidates.insert(candidates.partition_point(|&v| v < fresh), fresh);
        for v in candidates {
            let ma: Vec<(u64, Spp)> = va.row(v).collect();
            let mb: Vec<(u64, Spp)> = vb.row(v).collect();
            // An output value present on one side only is immediately a
            // difference: drive the extra row to any producing input.
            for (mx, my) in [(&ma, &mb), (&mb, &ma)] {
                if let Some(&(_, c)) = mx.iter().find(|(w, _)| lookup(my, *w).is_none()) {
                    out[f as usize] = v;
                    self.some_input_into(c, out);
                    return true;
                }
            }
            for &(w, ca) in &ma {
                let cb = *lookup(&mb, w).expect("rows share their outputs");
                if ca != cb && self.distinguish_into(ca, cb, out) {
                    out[f as usize] = v;
                    return true;
                }
            }
        }
        false
    }

    /// Fill the untouched tail of `out` with an input on which `t` has at least one
    /// output. `t` must be non-ZERO (canonical non-ZERO ⇒ non-empty).
    fn some_input_into(&self, t: Spp, out: &mut [u64]) {
        if t == Spp::ZERO || t == Spp::ONE {
            return; // ZERO unreachable for cleaned children; ONE: any input.
        }
        let n = self.spp_node(t);
        for (v, m) in &n.branches {
            if let Some(&(_, c)) = m.first() {
                out[n.field as usize] = *v;
                self.some_input_into(c, out);
                return;
            }
        }
        let tested = |v| lookup(&n.branches, v).is_some();
        if let Some(&(w, c)) = n.muts.first() {
            out[n.field as usize] = fresh_value(|v| v == w || tested(v));
            self.some_input_into(c, out);
            return;
        }
        out[n.field as usize] = fresh_value(tested);
        self.some_input_into(n.id, out);
    }

    // ------------------------------------------------------------------
    // NetKAT conversions
    // ------------------------------------------------------------------

    /// The symbolic set denoted by a NetKAT predicate.
    pub fn sp_from_pred(&mut self, p: &Pred) -> Sp {
        match p {
            Pred::True => Sp::FULL,
            Pred::False => Sp::EMPTY,
            Pred::Test(f, v) => {
                let slot = self.slot_of[f.index()];
                self.sp_test(slot, u64::from(*v))
            }
            Pred::And(l, r) => {
                let a = self.sp_from_pred(l);
                let b = self.sp_from_pred(r);
                self.sp_intersect(a, b)
            }
            Pred::Or(_, _) => {
                // Flatten the disjunction spine and reduce pairwise so an
                // n-ary union builds O(log n) large intermediates instead
                // of an O(n)-deep chain of them.
                let mut terms = Vec::new();
                fn spine<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
                    if let Pred::Or(l, r) = p {
                        spine(l, out);
                        spine(r, out);
                    } else {
                        out.push(p);
                    }
                }
                spine(p, &mut terms);
                let sets: Vec<Sp> = terms.iter().map(|t| self.sp_from_pred(t)).collect();
                self.reduce_balanced(sets, Sp::EMPTY, Arena::sp_union)
            }
            Pred::Not(x) => {
                let a = self.sp_from_pred(x);
                self.sp_complement(a)
            }
        }
    }

    /// Balanced pairwise reduction of `items` under `op` (empty ⇒ `unit`).
    fn reduce_balanced<T: Copy>(
        &mut self,
        mut items: Vec<T>,
        unit: T,
        op: impl Fn(&mut Arena, T, T) -> T,
    ) -> T {
        if items.is_empty() {
            return unit;
        }
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            for pair in items.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            items = next;
        }
        items[0]
    }

    /// The symbolic transformer denoted by a dup-free NetKAT policy.
    pub fn spp_from_policy(&mut self, p: &Policy) -> Result<Spp, SymError> {
        match p {
            Policy::Filter(a) => {
                let s = self.sp_from_pred(a);
                Ok(self.spp_test(s))
            }
            Policy::Mod(f, v) => {
                let slot = self.slot_of[f.index()];
                Ok(self.spp_assign(slot, u64::from(*v)))
            }
            Policy::Union(_, _) => {
                // Balanced reduction over the flattened union spine: a
                // left- or right-leaning `p₁ + p₂ + … + pₙ` otherwise
                // rebuilds the (growing) accumulated node n times.
                let mut terms = Vec::new();
                fn spine<'p>(p: &'p Policy, out: &mut Vec<&'p Policy>) {
                    if let Policy::Union(l, r) = p {
                        spine(l, out);
                        spine(r, out);
                    } else {
                        out.push(p);
                    }
                }
                spine(p, &mut terms);
                let mut ids = Vec::with_capacity(terms.len());
                for t in terms {
                    ids.push(self.spp_from_policy(t)?);
                }
                Ok(self.reduce_balanced(ids, Spp::ZERO, Arena::spp_union))
            }
            Policy::Seq(l, r) => {
                let a = self.spp_from_policy(l)?;
                let b = self.spp_from_policy(r)?;
                Ok(self.spp_seq(a, b))
            }
            Policy::Star(x) => {
                let a = self.spp_from_policy(x)?;
                self.spp_star_bounded(a, DEFAULT_STAR_BUDGET)
                    .map(|(s, _)| s)
                    .map_err(SymError::StarBudget)
            }
            Policy::Dup => Err(SymError::DupUnsupported),
        }
    }

    /// Convert a NetKAT [`Packet`] to arena slot values (this arena's
    /// variable order).
    pub fn values_of_packet(&self, p: &Packet) -> Vec<u64> {
        self.order
            .iter()
            .map(|&f| u64::from(p.0[f as usize]))
            .collect()
    }

    /// Convert arena slot values (as produced by witnesses over a
    /// six-field arena) back to a NetKAT [`Packet`], undoing this arena's
    /// variable order. Values must fit u32 — guaranteed for structures
    /// built from NetKAT policies, whose constants and fresh
    /// representatives are all small.
    pub fn packet_of_values(&self, vals: &[u64]) -> Packet {
        let mut pkt = Packet::zero();
        for (slot, &v) in vals.iter().enumerate().take(self.order.len()) {
            let f = self.order[slot] as usize;
            if f < Field::ALL.len() {
                pkt.0[f] = u32::try_from(v).expect("netkat field values fit u32");
            }
        }
        pkt
    }

    // ------------------------------------------------------------------
    // Invariant checking (test support)
    // ------------------------------------------------------------------

    /// Verify the structural invariants of every interned node: field
    /// ordering, branch sortedness, canonical pruning, and interning
    /// consistency (structurally equal ⇒ same id). Returns a description
    /// of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.sp_nodes.iter().enumerate() {
            let id = Sp(u32::try_from(i + 2).expect("id fits"));
            if n.branches.is_empty() {
                return Err(format!("sp {id:?}: empty branch list"));
            }
            if !n.branches.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("sp {id:?}: branches not strictly sorted"));
            }
            for &(v, c) in &n.branches {
                if c == n.default {
                    return Err(format!("sp {id:?}: branch {v} equals default"));
                }
                if self.sp_field(c) <= n.field {
                    return Err(format!("sp {id:?}: branch {v} violates field order"));
                }
            }
            if self.sp_field(n.default) <= n.field {
                return Err(format!("sp {id:?}: default violates field order"));
            }
            if self.sp_intern.get(n) != Some(&id.0) {
                return Err(format!("sp {id:?}: interning inconsistent"));
            }
        }
        for (i, n) in self.spp_nodes.iter().enumerate() {
            let id = Spp(u32::try_from(i + 2).expect("id fits"));
            if n.branches.is_empty() && n.muts.is_empty() {
                return Err(format!("spp {id:?}: collapsible node"));
            }
            if !n.branches.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("spp {id:?}: branches not strictly sorted"));
            }
            if !n.muts.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("spp {id:?}: muts not strictly sorted"));
            }
            for &(w, c) in &n.muts {
                if c == Spp::ZERO {
                    return Err(format!("spp {id:?}: ZERO mut at {w}"));
                }
                if self.spp_field(c) <= n.field {
                    return Err(format!("spp {id:?}: mut {w} violates field order"));
                }
            }
            if n.id != Spp::ZERO && self.spp_field(n.id) <= n.field {
                return Err(format!("spp {id:?}: id violates field order"));
            }
            for (v, m) in &n.branches {
                if !m.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(format!("spp {id:?}: branch {v} map not sorted"));
                }
                for &(w, c) in m {
                    if c == Spp::ZERO {
                        return Err(format!("spp {id:?}: ZERO child at ({v},{w})"));
                    }
                    if self.spp_field(c) <= n.field {
                        return Err(format!("spp {id:?}: ({v},{w}) violates field order"));
                    }
                }
                if Row::default_at(&n.muts, n.id, *v).eq(m.iter().copied()) {
                    return Err(format!("spp {id:?}: branch {v} equals effective default"));
                }
            }
            if self.spp_intern.get(n) != Some(&id.0) {
                return Err(format!("spp {id:?}: interning inconsistent"));
            }
        }
        Ok(())
    }
}

/// The smallest value that is not `taken`.
fn fresh_value(taken: impl Fn(u64) -> bool) -> u64 {
    (0u64..).find(|&v| !taken(v)).expect("u64 space")
}

/// The variable order [`Arena::for_policies`] picks for `ps`: fields by
/// ascending assignment fan-out, ties by declaration order.
fn order_for(ps: &[&Policy]) -> Vec<u16> {
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); Field::ALL.len()];
    fn walk(p: &Policy, assigned: &mut [Vec<u32>]) {
        match p {
            Policy::Mod(f, v) => assigned[f.index()].push(*v),
            Policy::Union(l, r) | Policy::Seq(l, r) => {
                walk(l, assigned);
                walk(r, assigned);
            }
            Policy::Star(x) => walk(x, assigned),
            Policy::Filter(_) | Policy::Dup => {}
        }
    }
    for p in ps {
        walk(p, &mut assigned);
    }
    for values in &mut assigned {
        values.sort_unstable();
        values.dedup();
    }
    let mut order: Vec<u16> = (0..Field::ALL.len() as u16).collect();
    order.sort_by_key(|&f| (assigned[f as usize].len(), f));
    order
}

// ----------------------------------------------------------------------
// Workspace
// ----------------------------------------------------------------------

/// The preorder byte encoding of `p`: one tag byte per node (its kind,
/// and its field where it has one), then the little-endian value of a
/// test or a modification. Arities are fixed, so two policies are equal
/// exactly when their encodings are.
fn encode(p: &Policy) -> Vec<u8> {
    fn tagged(kind: u8, f: Field, v: u32, out: &mut Vec<u8>) {
        out.push(kind | (f.index() as u8) << 3);
        out.extend(v.to_le_bytes());
    }
    fn pred(a: &Pred, out: &mut Vec<u8>) {
        match a {
            Pred::True => out.push(0),
            Pred::False => out.push(1),
            Pred::Test(f, v) => tagged(2, *f, *v, out),
            Pred::And(l, r) | Pred::Or(l, r) => {
                out.push(if matches!(a, Pred::And(..)) { 3 } else { 4 });
                pred(l, out);
                pred(r, out);
            }
            Pred::Not(x) => {
                out.push(5);
                pred(x, out);
            }
        }
    }
    fn policy(p: &Policy, out: &mut Vec<u8>) {
        match p {
            Policy::Filter(a) => {
                out.push(0);
                pred(a, out);
            }
            Policy::Mod(f, v) => tagged(1, *f, *v, out),
            Policy::Union(l, r) | Policy::Seq(l, r) => {
                out.push(if matches!(p, Policy::Union(..)) { 2 } else { 3 });
                policy(l, out);
                policy(r, out);
            }
            Policy::Star(x) => {
                out.push(4);
                policy(x, out);
            }
            Policy::Dup => out.push(5),
        }
    }
    let mut out = Vec::new();
    policy(p, &mut out);
    out
}

/// Once the workspace arena holds more than this many times the nodes
/// it held after the request that built it, it is dropped and rebuilt
/// by the next request.
const WORKSPACE_GROWTH: usize = 2;

/// One thread's compiled workspace: at most one arena, the policies
/// compiled into it with their transformers, and its node count after
/// the request that built it.
#[derive(Default)]
struct Workspace {
    arena: Option<Arena>,
    /// Each compiled policy as its [`encode`]d syntax tree.
    compiled: Vec<(Vec<u8>, Spp)>,
    built_nodes: usize,
}

impl Workspace {
    /// The transformer compiled for the policy encoded as `key`.
    fn lookup(&self, key: &[u8]) -> Option<Spp> {
        self.compiled
            .iter()
            .find(|(k, _)| k.as_slice() == key)
            .map(|&(_, t)| t)
    }

    /// The transformers of `ps` (encoded as `keys`) in `ar`, compiling
    /// those not yet there.
    fn compile(
        &mut self,
        ar: &mut Arena,
        ps: &[&Policy],
        keys: Vec<Vec<u8>>,
    ) -> Result<Vec<Spp>, SymError> {
        ps.iter()
            .zip(keys)
            .map(|(&p, mut key)| match self.lookup(&key) {
                Some(t) => Ok(t),
                None => {
                    let t = ar.spp_from_policy(p)?;
                    key.shrink_to_fit();
                    self.compiled.push((key, t));
                    Ok(t)
                }
            })
            .collect()
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Run `f` on the transformers of `ps`, compiled in this thread's
/// workspace arena (see the module docs, *Workspace*). The arena is
/// reused when its variable order is the one [`Arena::for_policies`]
/// picks for `ps` and it already holds one of `ps`; otherwise it is
/// dropped and rebuilt. `f` must not call back into this function.
pub(crate) fn with_compiled<R>(
    ps: &[&Policy],
    f: impl FnOnce(&mut Arena, &[Spp]) -> R,
) -> Result<R, SymError> {
    WORKSPACE.with_borrow_mut(|ws| {
        let order = order_for(ps);
        let keys: Vec<Vec<u8>> = ps.iter().map(|p| encode(p)).collect();
        let reuse = ws.arena.as_ref().is_some_and(|ar| ar.order == order)
            && keys.iter().any(|k| ws.lookup(k).is_some());
        if !reuse {
            // Dropped before the new arena is built: at most one is alive.
            ws.arena = None;
            ws.compiled.clear();
        }
        // Taken out for the call, so that an error or a panic leaves no
        // half-extended arena behind.
        let mut ar = ws.arena.take().unwrap_or_else(|| Arena::with_order(order));
        let ts = ws
            .compile(&mut ar, ps, keys)
            .inspect_err(|_| ws.compiled.clear())?;
        let r = f(&mut ar, &ts);
        if !reuse {
            ws.built_nodes = ar.node_count();
        }
        if ar.node_count() <= WORKSPACE_GROWTH * ws.built_nodes {
            ws.arena = Some(ar);
        } else {
            ws.compiled.clear();
        }
        Ok(r)
    })
}

/// The workspace arena's node count, its count after the request that
/// built it, and how many policies are compiled into it; `None` while the
/// thread has no arena.
#[cfg(test)]
fn workspace_state() -> Option<(usize, usize, usize)> {
    WORKSPACE.with_borrow(|ws| {
        let ar = ws.arena.as_ref()?;
        Some((ar.node_count(), ws.built_nodes, ws.compiled.len()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Field;

    fn f(p: Pred) -> Policy {
        Policy::filter(p)
    }

    #[test]
    fn leaves_are_distinct() {
        assert_ne!(Sp::EMPTY, Sp::FULL);
        assert_ne!(Spp::ZERO, Spp::ONE);
    }

    #[test]
    fn sp_boolean_algebra() {
        let mut ar = Arena::for_netkat();
        let a = ar.sp_test(0, 1);
        let b = ar.sp_test(1, 2);
        let ab = ar.sp_intersect(a, b);
        let ba = ar.sp_intersect(b, a);
        assert_eq!(ab, ba);
        let u = ar.sp_union(a, b);
        let u2 = ar.sp_union(b, a);
        assert_eq!(u, u2);
        let na = ar.sp_complement(a);
        let nna = ar.sp_complement(na);
        assert_eq!(a, nna);
        let both = ar.sp_union(a, na);
        assert_eq!(both, Sp::FULL);
        let none = ar.sp_intersect(a, na);
        assert_eq!(none, Sp::EMPTY);
    }

    #[test]
    fn sp_witness_and_contains() {
        let mut ar = Arena::for_netkat();
        let a = ar.sp_test(0, 7);
        let na = ar.sp_complement(a);
        let w = ar.sp_witness(na).unwrap();
        assert_ne!(w[0], 7);
        assert!(ar.sp_contains(na, &w));
        assert!(!ar.sp_contains(a, &w));
        assert_eq!(ar.sp_witness(Sp::EMPTY), None);
    }

    #[test]
    fn assign_then_test_is_assign() {
        // f := 5 ; filter f = 5 ≡ f := 5
        let mut ar = Arena::for_netkat();
        let asg = ar.spp_assign(3, 5);
        let tst = ar.sp_test(3, 5);
        let tst = ar.spp_test(tst);
        let lhs = ar.spp_seq(asg, tst);
        assert_eq!(lhs, asg);
    }

    #[test]
    fn filter_false_is_zero() {
        let mut ar = Arena::for_netkat();
        let p = ar.spp_from_policy(&Policy::drop()).unwrap();
        assert_eq!(p, Spp::ZERO);
        let q = ar.spp_from_policy(&Policy::id()).unwrap();
        assert_eq!(q, Spp::ONE);
    }

    #[test]
    fn union_commutes_and_idempotent() {
        let mut ar = Arena::for_netkat();
        let p = ar.spp_from_policy(&Policy::assign(Field::Port, 1)).unwrap();
        let q = ar
            .spp_from_policy(&f(Pred::test(Field::Switch, 2)))
            .unwrap();
        let pq = ar.spp_union(p, q);
        let qp = ar.spp_union(q, p);
        assert_eq!(pq, qp);
        assert_eq!(ar.spp_union(p, p), p);
    }

    #[test]
    fn star_unrolls() {
        let mut ar = Arena::for_netkat();
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let s = ar.spp_from_policy(&step).unwrap();
        let star = ar.spp_star(s);
        // p* = 1 + p ; p*
        let tail = ar.spp_seq(s, star);
        let unrolled = ar.spp_union(Spp::ONE, tail);
        assert_eq!(star, unrolled);
    }

    #[test]
    fn star_bounded_reports_iterations() {
        let mut ar = Arena::for_netkat();
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let s = ar.spp_from_policy(&step).unwrap();
        let (_, iters) = ar.spp_star_bounded(s, 64).unwrap();
        assert!((1..=8).contains(&iters), "iters = {iters}");
        assert!(ar.stats().star_iterations >= u64::from(iters));
        // A two-hop chain needs more than one squaring round: budget 1
        // must be reported as exhausted.
        let chain = f(Pred::test(Field::Switch, 1))
            .seq(Policy::assign(Field::Switch, 2))
            .union(f(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Switch, 3)));
        let c = ar.spp_from_policy(&chain).unwrap();
        assert_eq!(
            ar.spp_star_bounded(c, 1),
            Err(StarBudgetExceeded { iterations: 1 })
        );
    }

    #[test]
    fn eval_matches_semantics() {
        use crate::semantics::eval_packet;
        let mut ar = Arena::for_netkat();
        let pol = f(Pred::test(Field::Switch, 1).not())
            .seq(Policy::assign(Field::Port, 9))
            .union(Policy::assign(Field::Tag, 3));
        let t = ar.spp_from_policy(&pol).unwrap();
        for sw in 0..3u32 {
            let pkt = Packet::of(&[(Field::Switch, sw), (Field::Port, 4)]);
            let sym: BTreeSet<Packet> = ar
                .spp_eval(t, &ar.values_of_packet(&pkt))
                .iter()
                .map(|v| ar.packet_of_values(v))
                .collect();
            assert_eq!(sym, eval_packet(&pol, pkt), "sw={sw}");
        }
    }

    #[test]
    fn distinguishing_input_finds_difference() {
        let mut ar = Arena::for_netkat();
        let p = ar
            .spp_from_policy(&f(Pred::test(Field::Src, 1).not()))
            .unwrap();
        let q = ar.spp_from_policy(&f(Pred::test(Field::Src, 2))).unwrap();
        assert_ne!(p, q);
        let w = ar.distinguishing_input(p, q).unwrap();
        assert_ne!(ar.spp_eval(p, &w), ar.spp_eval(q, &w));
        assert_eq!(ar.distinguishing_input(p, p), None);
    }

    #[test]
    fn push_and_pre_are_adjoint_on_examples() {
        let mut ar = Arena::for_netkat();
        // step: at sw=1 go to sw=2.
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let t = ar.spp_from_policy(&step).unwrap();
        let at1 = ar.sp_test(0, 1);
        let at2 = ar.sp_test(0, 2);
        let img = ar.push(at1, t);
        // image of sw=1 is exactly sw=2 (with all other fields preserved).
        let inter = ar.sp_intersect(img, at2);
        assert_eq!(inter, img);
        assert_ne!(img, Sp::EMPTY);
        let back = ar.pre(t, at2);
        let onlys1 = ar.sp_intersect(back, at1);
        assert_eq!(onlys1, back);
        assert_ne!(back, Sp::EMPTY);
        // Nothing maps into sw=3.
        let at3 = ar.sp_test(0, 3);
        assert_eq!(ar.pre(t, at3), Sp::EMPTY);
    }

    #[test]
    fn interning_gives_id_equality() {
        let mut ar = Arena::for_netkat();
        let a1 = ar.sp_test(2, 9);
        let a2 = ar.sp_test(2, 9);
        assert_eq!(a1, a2);
        let p1 = ar.spp_assign(1, 4);
        let p2 = ar.spp_assign(1, 4);
        assert_eq!(p1, p2);
        ar.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_after_mixed_workload() {
        let mut ar = Arena::for_netkat();
        let pol = f(Pred::test(Field::Switch, 1))
            .seq(Policy::assign(Field::Port, 2))
            .union(f(Pred::test(Field::Port, 2).not()).seq(Policy::assign(Field::Tag, 1)))
            .star();
        let t = ar.spp_from_policy(&pol).unwrap();
        let init = ar.sp_singleton(&[1, 0, 0, 0, 0, 0]);
        let img = ar.push(init, t);
        let _ = ar.pre(t, img);
        ar.check_invariants().unwrap();
        assert!(ar.stats().cache_misses > 0);
    }

    /// The spine-leaf fabric with leaf `leaf`'s down-rule sent out of
    /// `port` (the shape of a broken admission candidate).
    fn fabric_misrouted(n: u32, leaf: u32, port: u32) -> Policy {
        let up = f(Pred::test(Field::Switch, 0).not())
            .seq(Policy::assign(Field::Port, 1))
            .seq(Policy::assign(Field::Switch, 0));
        let rules = (1..=n).map(|j| {
            f(Pred::test(Field::Dst, j))
                .seq(Policy::assign(Field::Switch, j))
                .seq(Policy::assign(
                    Field::Port,
                    if j == leaf { port } else { 2 },
                ))
        });
        up.union(f(Pred::test(Field::Switch, 0)).seq(Policy::any(rules)))
    }

    /// Node counts and memo traffic of fabric conversions are pinned: a
    /// kernel change that interns different nodes, or computes more, fails
    /// here even when every verdict still holds.
    #[test]
    fn fabric_conversions_are_canonical_and_pinned() {
        use crate::corpus::{fabric_step, fabric_step_broken, fabric_step_redundant};
        // (leaves, policy, SP nodes, SPP nodes, memo misses, memo hits)
        let mut cases = Vec::new();
        for (n, sizes) in [
            (
                16,
                [(18, 153, 135, 17), (18, 154, 135, 17), (19, 153, 137, 19)],
            ),
            (
                64,
                [(66, 585, 519, 65), (66, 586, 519, 65), (67, 585, 521, 67)],
            ),
            (
                256,
                [
                    (258, 2313, 2055, 257),
                    (258, 2314, 2055, 257),
                    (259, 2313, 2057, 259),
                ],
            ),
        ] {
            let policies = [
                ("step", fabric_step(n)),
                ("broken", fabric_step_broken(n)),
                ("redundant", fabric_step_redundant(n)),
            ];
            for ((name, p), counts) in policies.into_iter().zip(sizes) {
                cases.push((n, name, p, counts));
            }
            // The broken candidate shares the broken fabric's counts.
            cases.push((n, "misrouted", fabric_misrouted(n, n / 2, 5), sizes[1]));
        }
        for (n, name, p, (sp, spp, misses, hits)) in cases {
            let mut ar = Arena::for_policies(&[&p]);
            ar.spp_from_policy(&p).unwrap();
            ar.check_invariants()
                .unwrap_or_else(|e| panic!("{name}({n}): {e}"));
            let s = ar.stats();
            assert_eq!(
                (
                    ar.sp_node_count(),
                    ar.spp_node_count(),
                    s.cache_misses,
                    s.cache_hits
                ),
                (sp, spp, misses, hits),
                "{name}({n}): (sp nodes, spp nodes, memo misses, memo hits)"
            );
        }
    }

    /// Policy encodings are equal exactly when the policies are: node
    /// kinds, fields and values each show in the bytes.
    #[test]
    fn encodings_separate_distinct_policies() {
        let t = |fl, v| f(Pred::test(fl, v));
        let a = Policy::assign(Field::Port, 1);
        let b = t(Field::Switch, 1);
        let policies = [
            a.clone().seq(b.clone()),
            a.clone().union(b.clone()),
            b.clone().seq(a.clone()),
            a.clone().star().seq(b.clone()),
            Policy::assign(Field::Port, 256).seq(b.clone()),
            Policy::assign(Field::Switch, 1).seq(b),
            a.clone().seq(t(Field::Port, 1)),
            a.clone().seq(f(Pred::test(Field::Switch, 1).not())),
            a.clone()
                .seq(f(Pred::test(Field::Switch, 1).and(Pred::True))),
            a.clone()
                .seq(f(Pred::test(Field::Switch, 1).or(Pred::True))),
            a.clone().seq(Policy::Dup),
            a.seq(Policy::drop()),
        ];
        for (i, p) in policies.iter().enumerate() {
            for (j, q) in policies.iter().enumerate() {
                assert_eq!(encode(p) == encode(q), i == j, "{p} vs {q}");
            }
            assert_eq!(encode(p), encode(&p.clone()));
        }
    }

    /// Requests reuse the workspace arena on a hit (compiling what is
    /// missing) and rebuild it when the variable order differs or none
    /// of their policies is compiled there.
    #[test]
    fn workspace_reuses_hits_and_rebuilds_otherwise() {
        use crate::corpus::{fabric_step, fabric_step_broken};
        use crate::{can_reach, counterexample, slice_is_dead};
        let step = fabric_step(16);
        let broken = fabric_step_broken(16);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Dst, 9)])]);
        let goal = Pred::test(Field::Switch, 9);
        assert!(counterexample(&step, &broken).is_some());
        let (_, built, compiled) = workspace_state().expect("an arena");
        assert_eq!(compiled, 2);
        // A hit: no recompilation, the query's nodes are added.
        assert!(can_reach(&step, &init, &goal));
        let (nodes, again, compiled) = workspace_state().expect("an arena");
        assert_eq!((again, compiled), (built, 2));
        assert!(nodes > built);
        // A partial hit compiles the missing policy into the same arena.
        let slice = crate::slice_for_switch(&step, 3);
        assert!(crate::slice_equivalent(&step, &slice, Field::Switch, 3));
        assert_eq!(workspace_state().map(|s| (s.1, s.2)), Some((built, 3)));
        // Same order, nothing compiled there: rebuilt.
        let redundant = crate::corpus::fabric_step_redundant(16);
        assert_eq!(order_for(&[&redundant]), order_for(&[&step, &broken]));
        assert!(!slice_is_dead(&redundant, 3));
        assert_eq!(workspace_state().map(|s| s.2), Some(1));
        // Another variable order: rebuilt, even though `step` is there.
        let tags = Policy::any((1..=20).map(|v| Policy::assign(Field::Tag, v)));
        assert!(can_reach(&step.clone().union(tags), &init, &goal));
        assert_eq!(workspace_state().map(|s| s.2), Some(1));
        // `dup` is refused and leaves no arena behind.
        assert!(!slice_is_dead(&Policy::Dup, 3));
        assert_eq!(workspace_state(), None);
    }

    /// Endless distinct queries against one policy keep the workspace
    /// within its growth bound: it is dropped and rebuilt instead.
    #[test]
    fn workspace_stays_within_its_growth_bound() {
        use crate::can_reach;
        use crate::corpus::fabric_step;
        let step = fabric_step(64);
        let (mut rebuilds, mut grown) = (0, 0);
        for i in 0..10_000u32 {
            let (sw, dst, src) = (1 + i % 64, 1 + (i / 64) % 80, i / (64 * 80));
            let init = BTreeSet::from([Packet::of(&[
                (Field::Switch, sw),
                (Field::Dst, dst),
                (Field::Src, src),
            ])]);
            let reachable = can_reach(&step, &init, &Pred::test(Field::Switch, dst));
            assert_eq!(reachable, dst <= 64, "query {i}");
            match workspace_state() {
                Some((nodes, built, _)) => {
                    assert!(
                        nodes <= WORKSPACE_GROWTH * built,
                        "query {i}: {nodes} > {built}"
                    );
                    grown += usize::from(nodes > built);
                }
                None => rebuilds += 1,
            }
        }
        assert!(
            rebuilds > 0 && grown > 0,
            "rebuilds {rebuilds}, grown {grown}"
        );
    }
}
