"""Hierarchical decompositions of 1-D and 2-D domains.

Hierarchical algorithms (H, Hb, GreedyH, QuadTree, the second stage of DAWA)
measure noisy totals of nested blocks of the domain arranged in a tree.  This
module provides the tree structure, range-query decomposition over the tree,
and block/cell bookkeeping shared by those algorithms.

Flyweight layout
----------------
:class:`HierarchicalTree` stores no per-node Python objects.  The whole
hierarchy lives in seven flat int64 arrays (structure of arrays):

* ``_lo`` / ``_hi`` — ``(n_nodes, ndim)`` inclusive per-dimension bounds;
* ``_level`` — ``(n_nodes,)`` depth of every node (root at 0);
* ``_parent`` — ``(n_nodes,)`` parent index (-1 at the root);
* ``_child_offsets`` / ``_children`` — CSR child lists: the children of node
  ``i`` are ``_children[_child_offsets[i]:_child_offsets[i + 1]]``;
* ``_level_offsets`` — ``(n_levels + 1,)`` index ranges of each level (nodes
  are laid out breadth-first, so every level is one contiguous index run).

Construction is vectorised level-at-a-time: one batched ``np.linspace`` per
(axis, piece-count) group replaces the historical per-node interval split —
bitwise-identical boundaries (``np.linspace`` applies the same elementwise
float64 operations to array endpoints as to scalars), at array speed.  The
historical per-node builder is retained as :func:`build_reference_nodes`; it
is the executable specification the property suite pins the arrays against.

Compatibility: ``tree.nodes``, ``tree.levels()`` and ``tree.leaves()`` still
yield :class:`TreeNode` values — lightweight proxies materialised on demand
from the arrays — so existing consumers and tests run unchanged.  Hot paths
(the level plan and leaf expansion of the tree GLS solve in
:mod:`repro.core.gls`, level tables, usage counts) read the arrays directly
and never materialise a node.

Usage counts
------------
GreedyH, the second stage of DAWA and GreedyW budget a tree by how many
nodes of each level the canonical decompositions of the workload queries
use.  One counter answers this for 1-D and 2-D trees, with every level
measured (:meth:`HierarchicalTree.level_usage`) or only some
(:func:`repro.workload.selection.subset_level_usage`).  It reads one table
format per level: the sorted interval partition of each axis, plus prefix
counts of the grid cells holding a node and of the multi-cell leaves.
:func:`subset_usage_reference` is the per-query recursion the counter is
tested against, and the fallback for 2-D trees whose levels are not grid
subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..workload.linops import QueryMatrix
from ..workload.prefix_sum import PrefixSum

#: Hard ceiling on the number of domain cells: node sizes are products of
#: int64 side lengths, so the cell count must stay clear of 2**63 for the
#: ``size``/bounds bookkeeping to be overflow-free at 16M+ cells and beyond.
_MAX_CELLS = 2 ** 62


def _box_count(prefix: np.ndarray | None, runs) -> np.ndarray:
    """Nodes of one level grid inside a box of per-axis index runs.

    ``runs`` holds one ``(a, b)`` pair per axis, the half-open position run
    ``[a, b)`` (empty when ``b <= a``); all arguments vectorise over queries.
    ``prefix`` is the level's inclusive prefix count with a zero border, or
    ``None`` when every grid cell holds a node, so the count is the volume.
    """
    if prefix is None:
        count = None
        for a, b in runs:
            run = b - a
            np.maximum(run, 0, out=run)
            count = run if count is None else count * run
        return count
    runs = [(a, np.maximum(a, b)) for a, b in runs]
    if len(runs) == 1:
        (a, b), = runs
        return prefix[b] - prefix[a]
    (a0, b0), (a1, b1) = runs
    return prefix[b0, b1] - prefix[a0, b1] - prefix[b0, a1] + prefix[a0, a1]


def _rank_runs(starts, ends, los, his) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the position run ``[a, b)`` of the sorted intervals that
    start at or after ``lo`` and end at or before ``hi``; one ``(a, b)`` pair
    per axis, vectorised over the bounds."""
    return [(s.searchsorted(lo, side="left"), e.searchsorted(hi, side="right"))
            for s, e, lo, hi in zip(starts, ends, los, his)]


def _prefix_count(marks: np.ndarray) -> np.ndarray:
    """Inclusive prefix count of a 1-D or 2-D mark grid, with a zero border."""
    count = np.zeros(tuple(n + 1 for n in marks.shape), dtype=np.intp)
    acc = marks.astype(np.intp)
    for axis in range(marks.ndim):
        acc = acc.cumsum(axis=axis)
    count[(slice(1, None),) * marks.ndim] = acc
    return count


__all__ = ["TreeNode", "HierarchicalTree", "IrregularTreeLevels", "build_tree",
           "build_reference_nodes", "subset_usage_reference",
           "optimal_branching"]


class IrregularTreeLevels(ValueError):
    """Raised when a 2-D tree's levels are not axis-aligned grid products.

    The vectorised 2-D usage counts require every level to be (a subset of)
    the cross product of one interval partition per axis.  Trees built by
    :class:`HierarchicalTree` satisfy this on regular domains; pathological
    ragged domains (where siblings split different axes) may not, and callers
    then fall back to the per-query recursion.
    """


@dataclass
class TreeNode:
    """A node in a hierarchical decomposition.

    ``lo``/``hi`` are inclusive per-dimension bounds of the block the node
    covers.  ``level`` 0 is the root.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    level: int
    index: int = -1                       # position in the flat node list
    parent: int | None = None             # parent index in the flat node list
    children: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        size = 1
        for a, b in zip(self.lo, self.hi):
            size *= b - a + 1
        return size

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, b + 1) for a, b in zip(self.lo, self.hi))


class _NodeView:
    """Sequence view over a tree's node arrays, yielding :class:`TreeNode`
    proxies on demand.  Supports ``len``, indexing (including negative
    indices and slices) and iteration — the container protocol the historical
    ``list[TreeNode]`` attribute offered — without holding any per-node
    object alive."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "HierarchicalTree"):
        self._tree = tree

    def __len__(self) -> int:
        return self._tree.n_nodes

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._tree._node(i)
                    for i in range(*index.indices(self._tree.n_nodes))]
        index = int(index)
        n = self._tree.n_nodes
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("tree node index out of range")
        return self._tree._node(index)

    def __iter__(self):
        for i in range(self._tree.n_nodes):
            yield self._tree._node(i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self._tree.n_nodes} tree nodes>"


def _validated_params(domain_shape, branching, split_axes):
    """Shared parameter validation of the array builder and the reference."""
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    domain_shape = tuple(int(d) for d in domain_shape)
    if len(domain_shape) not in (1, 2):
        raise ValueError("only 1-D and 2-D domains are supported")
    cells = 1
    for d in domain_shape:
        cells *= max(int(d), 1)
    if cells >= _MAX_CELLS:
        raise ValueError(
            f"domain of {cells} cells overflows the int64 size/bounds "
            f"bookkeeping (limit {_MAX_CELLS})")
    if split_axes is not None:
        split_axes = tuple(int(a) for a in split_axes)
        if not split_axes or any(a not in range(len(domain_shape))
                                 for a in split_axes):
            raise ValueError(
                f"split_axes must name axes of a {len(domain_shape)}-D "
                f"domain, got {split_axes}")
    return domain_shape, int(branching), split_axes


class HierarchicalTree:
    """A b-ary hierarchy over a 1-D or 2-D domain.

    In 1-D each node splits its interval into at most ``branching`` equal
    pieces.  In 2-D the default (``split_axes=None``) splits every axis into
    at most ``branching`` pieces per level (a branching of 2 yields a
    quadtree); passing a cyclic axis schedule such as ``(0, 1)`` or ``(1, 0)``
    instead splits one axis per level (a kd-style hierarchy whose levels are
    marginal grids).  A scheduled axis that can no longer split falls back to
    every splittable axis, so the tree always bottoms out at single cells.

    The hierarchy is stored as flat int64 arrays (see the module docstring);
    ``nodes`` is a proxy view materialising :class:`TreeNode` values lazily.
    """

    def __init__(self, domain_shape: tuple[int, ...], branching: int = 2,
                 max_height: int | None = None,
                 split_axes: tuple[int, ...] | None = None):
        self.domain_shape, self.branching, self.split_axes = \
            _validated_params(domain_shape, branching, split_axes)
        self.max_height = max_height
        self._build()
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._tables: list[dict] | IrregularTreeLevels | None = None
        self._leaf_indices: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._two_pass: list[tuple[np.ndarray, np.ndarray]] | None = None

    # -- construction -------------------------------------------------------------
    @staticmethod
    def _uniform_segments(lo_d: np.ndarray, hi_d: np.ndarray,
                          pieces: int) -> tuple[np.ndarray, np.ndarray]:
        """Split every interval ``[lo_d[i], hi_d[i]]`` into ``pieces`` parts.

        Returns ``(seg_lo, seg_hi)`` of shape ``(rows, pieces)``.  The batched
        ``np.linspace`` applies the same elementwise float64 operations as the
        historical per-node ``np.linspace(a, b + 1, pieces + 1).astype(int)``,
        so boundaries are bitwise-identical to the reference builder.
        """
        if pieces == 1:
            return lo_d[:, None], hi_d[:, None]
        bounds = np.linspace(lo_d.astype(np.float64),
                             (hi_d + 1).astype(np.float64),
                             pieces + 1, axis=1).astype(np.int64)
        return bounds[:, :-1], bounds[:, 1:] - 1

    def _build(self) -> None:
        """Vectorised breadth-first construction, one batch per level.

        Per level, splitting nodes are grouped by (axis, piece count) and
        each group's interval boundaries come from a single batched
        ``np.linspace`` call — the same elementwise float64 operations the
        historical per-node ``np.linspace(a, b + 1, pieces + 1).astype(int)``
        performed, so every bound is bitwise-identical to
        :func:`build_reference_nodes`.  Children are emitted in parent-index
        order (2-D: axis-0-major block order within a parent), matching the
        reference's breadth-first append order exactly.
        """
        ndim = len(self.domain_shape)
        lo = np.zeros((1, ndim), dtype=np.int64)
        hi = np.array([self.domain_shape], dtype=np.int64) - 1
        level_los, level_his = [lo], [hi]
        level_parents = [np.full(1, -1, dtype=np.int64)]
        child_counts: list[np.ndarray] = []
        level_start = 0
        level = 0
        while True:
            m = lo.shape[0]
            lengths = hi - lo + 1                          # (m, ndim)
            expand = lengths.prod(axis=1) > 1
            if self.max_height is not None and level >= self.max_height:
                expand &= False
            # Axes each node refines (the reference's _axes_to_split/_split):
            # every splittable axis, unless a kd schedule names one that is
            # still splittable — then only that axis.
            split = lengths > 1
            if self.split_axes is not None:
                axis = self.split_axes[level % len(self.split_axes)]
                only_axis = np.zeros_like(split)
                only_axis[:, axis] = True
                split = np.where(split[:, axis, None], only_axis, split)
            split &= expand[:, None]
            has_children = split.any(axis=1)
            counts = np.zeros(m, dtype=np.int64)
            if not has_children.any():
                child_counts.append(counts)
                break

            exp_idx = np.flatnonzero(has_children)
            e_lo, e_hi = lo[exp_idx], hi[exp_idx]
            e_len = lengths[exp_idx]
            seg_counts = np.where(split[exp_idx],
                                  np.minimum(self.branching, e_len),
                                  1).astype(np.int64)      # (E, ndim)

            uniform = all(
                int(seg_counts[:, d].min()) == int(seg_counts[:, d].max())
                for d in range(ndim))
            if uniform:
                # Fast path for the common regular level — every expanding
                # node shares one (pieces per axis) pattern, so segments are
                # dense (E, P_d) matrices and children fall out of plain
                # reshapes/broadcasts: no ragged offsets, no scatter/gather.
                ps = [int(seg_counts[0, d]) for d in range(ndim)]
                segs = [self._uniform_segments(e_lo[:, d], e_hi[:, d], ps[d])
                        for d in range(ndim)]
                if ndim == 1:
                    child_lo = segs[0][0].reshape(-1, 1)
                    child_hi = segs[0][1].reshape(-1, 1)
                else:
                    p0, p1 = ps
                    shape3 = (exp_idx.size, p0, p1)
                    child_lo = np.stack([
                        np.repeat(segs[0][0], p1, axis=1).reshape(-1),
                        np.broadcast_to(segs[1][0][:, None, :],
                                        shape3).reshape(-1)], axis=1)
                    child_hi = np.stack([
                        np.repeat(segs[0][1], p1, axis=1).reshape(-1),
                        np.broadcast_to(segs[1][1][:, None, :],
                                        shape3).reshape(-1)], axis=1)
                k = np.full(exp_idx.size, int(np.prod(ps)), dtype=np.int64)
                parents = level_start + np.repeat(exp_idx, k[0])
            else:
                # Ragged path (mixed piece counts within a level): per axis,
                # per-node segment lists concatenated in node order; unsplit
                # axes contribute the node's own interval.
                seg_lo, seg_hi, seg_off = [], [], []
                for d in range(ndim):
                    cnt = seg_counts[:, d]
                    off = np.zeros(cnt.size + 1, dtype=np.int64)
                    np.cumsum(cnt, out=off[1:])
                    s_lo = np.empty(int(off[-1]), dtype=np.int64)
                    s_hi = np.empty(int(off[-1]), dtype=np.int64)
                    plain = cnt == 1
                    s_lo[off[:-1][plain]] = e_lo[plain, d]
                    s_hi[off[:-1][plain]] = e_hi[plain, d]
                    split_rows = np.flatnonzero(~plain)
                    for p in np.unique(cnt[split_rows]):
                        p = int(p)
                        rows = split_rows[cnt[split_rows] == p]
                        blo, bhi = self._uniform_segments(
                            e_lo[rows, d], e_hi[rows, d], p)
                        pos = off[rows][:, None] + np.arange(p, dtype=np.int64)
                        s_lo[pos] = blo
                        s_hi[pos] = bhi
                    seg_lo.append(s_lo)
                    seg_hi.append(s_hi)
                    seg_off.append(off)

                if ndim == 1:
                    k = seg_counts[:, 0]
                    child_lo = seg_lo[0][:, None]
                    child_hi = seg_hi[0][:, None]
                    rep = np.repeat(np.arange(exp_idx.size), k)
                else:
                    s1 = seg_counts[:, 1]
                    k = seg_counts[:, 0] * s1
                    total = int(k.sum())
                    rep = np.repeat(np.arange(exp_idx.size), k)
                    within = np.arange(total, dtype=np.int64) \
                        - np.repeat(np.cumsum(k) - k, k)
                    i0, i1 = np.divmod(within, s1[rep])
                    child_lo = np.stack([seg_lo[0][seg_off[0][rep] + i0],
                                         seg_lo[1][seg_off[1][rep] + i1]], axis=1)
                    child_hi = np.stack([seg_hi[0][seg_off[0][rep] + i0],
                                         seg_hi[1][seg_off[1][rep] + i1]], axis=1)
                parents = level_start + exp_idx[rep]

            counts[exp_idx] = k
            child_counts.append(counts)
            level_los.append(child_lo)
            level_his.append(child_hi)
            level_parents.append(parents)
            level_start += m
            lo, hi = child_lo, child_hi
            level += 1

        self._lo = np.concatenate(level_los, axis=0)
        self._hi = np.concatenate(level_his, axis=0)
        self._parent = np.concatenate(level_parents)
        n_nodes = self._lo.shape[0]
        level_sizes = np.array([a.shape[0] for a in level_los], dtype=np.int64)
        self._level_offsets = np.zeros(level_sizes.size + 1, dtype=np.int64)
        np.cumsum(level_sizes, out=self._level_offsets[1:])
        self._level = np.repeat(np.arange(level_sizes.size, dtype=np.int64),
                                level_sizes)
        self._child_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.concatenate(child_counts), out=self._child_offsets[1:])
        # Children are emitted in parent-index order, so the concatenated
        # child lists enumerate every non-root node in index order — the CSR
        # child array is always arange(1, n_nodes) and is materialised lazily
        # (268 MB at 33M nodes that most consumers never need: they read the
        # offsets and derive child runs arithmetically).
        self._children: np.ndarray | None = None

    # -- flyweight accessors -------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of tree nodes."""
        return self._lo.shape[0]

    @property
    def nodes(self) -> _NodeView:
        """Sequence of :class:`TreeNode` proxies (materialised on demand)."""
        return _NodeView(self)

    def node_levels(self) -> np.ndarray:
        """Per-node depth, ``(n_nodes,)`` — the flat ``_level`` array."""
        return self._level

    def node_parents(self) -> np.ndarray:
        """Per-node parent index (-1 at the root), ``(n_nodes,)``."""
        return self._parent

    def child_offsets(self) -> np.ndarray:
        """``(n_nodes + 1,)`` CSR offsets: node ``i`` has
        ``offsets[i + 1] - offsets[i]`` children, and under the breadth-first
        layout they are the contiguous node-index run
        ``offsets[i] + 1 .. offsets[i + 1]``.  Prefer this over
        :meth:`children_spans` when the child indices themselves are not
        needed — it avoids materialising the O(nodes) child array."""
        return self._child_offsets

    def children_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR child lists ``(offsets, children)``: the children of node
        ``i`` are ``children[offsets[i]:offsets[i + 1]]`` (always a
        contiguous index run under breadth-first layout; the child array is
        materialised lazily on first request)."""
        if self._children is None:
            self._children = np.arange(1, self.n_nodes, dtype=np.int64)
        return self._child_offsets, self._children

    def level_spans(self) -> np.ndarray:
        """``(n_levels + 1,)`` node-index offsets of each level."""
        return self._level_offsets

    def leaf_indices(self) -> np.ndarray:
        """Indices of the leaves in node-index order (cached)."""
        if self._leaf_indices is None:
            self._leaf_indices = np.flatnonzero(
                np.diff(self._child_offsets) == 0)
        return self._leaf_indices

    def node_sizes(self) -> np.ndarray:
        """Per-node cell counts, ``(n_nodes,)`` int64 (cached)."""
        if self._sizes is None:
            self._sizes = (self._hi - self._lo + 1).prod(axis=1)
        return self._sizes

    def two_pass_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Level plan of the two-pass GLS solve (cached): groups of
        ``(parents, children)`` index arrays in top-down level order.

        Per level, internal nodes are grouped by child count ``k`` so that every
        group reduces an exact ``(rows, k)`` matrix — reductions then reproduce
        the per-node float operations of the original node-at-a-time solver
        bit-for-bit (see the summation notes in
        :func:`repro.core.gls.tree_least_squares`).  A node's children always
        live one level below it, so the flattened group list streamed
        top-down (pass 2) or bottom-up (pass 1) preserves the historical
        level-by-level data dependencies exactly.
        """
        if self._two_pass is None:
            groups = []
            counts = np.diff(self._child_offsets)
            for lvl in range(self.n_levels):
                s = int(self._level_offsets[lvl])
                e = int(self._level_offsets[lvl + 1])
                level_counts = counts[s:e]
                internal = np.flatnonzero(level_counts) + s
                if internal.size == 0:
                    continue
                internal_counts = level_counts[internal - s]
                # Groups ordered by ascending k, node order preserved within a
                # group (np.flatnonzero scans in index order) — the historical
                # grouping.
                for k in np.unique(internal_counts):
                    k = int(k)
                    parents = internal[internal_counts == k]
                    # Children of node p occupy the contiguous index run
                    # starting at offsets[p] + 1 (breadth-first layout).
                    children = self._child_offsets[parents][:, None] + np.arange(1, k + 1)
                    groups.append((parents.astype(np.intp, copy=False),
                                   children.astype(np.intp, copy=False)))
            self._two_pass = groups
        return self._two_pass

    def _node(self, index: int) -> TreeNode:
        """Materialise one :class:`TreeNode` proxy from the arrays."""
        index = int(index)
        parent = int(self._parent[index])
        a = int(self._child_offsets[index])
        b = int(self._child_offsets[index + 1])
        return TreeNode(
            lo=tuple(int(v) for v in self._lo[index]),
            hi=tuple(int(v) for v in self._hi[index]),
            level=int(self._level[index]),
            index=index,
            parent=None if parent < 0 else parent,
            children=list(range(a + 1, b + 1)),
        )

    # -- accessors ----------------------------------------------------------------
    @property
    def height(self) -> int:
        return int(self._level[-1])

    @property
    def n_levels(self) -> int:
        return self.height + 1

    def levels(self) -> list[list[TreeNode]]:
        off = self._level_offsets
        return [[self._node(i) for i in range(int(off[lvl]), int(off[lvl + 1]))]
                for lvl in range(self.n_levels)]

    def leaves(self) -> list[TreeNode]:
        return [self._node(i) for i in self.leaf_indices()]

    def node_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node inclusive bounds as ``(q, ndim)`` arrays (cached)."""
        if self._bounds is None:
            self._bounds = (self._lo.astype(np.intp, copy=False),
                            self._hi.astype(np.intp, copy=False))
        return self._bounds

    def as_query_matrix(self) -> QueryMatrix:
        """The tree's measurement regions as a sparse query operator, one row
        per node in node-index order."""
        los, his = self.node_bounds()
        return QueryMatrix(los, his, self.domain_shape)

    def node_totals(self, x: np.ndarray) -> np.ndarray:
        """True block totals for every node, in node-index order.

        Computed through one summed-area table (O(n + nodes)) rather than a
        per-node slice loop; exact for integer-valued counts.
        """
        los, his = self.node_bounds()
        return PrefixSum(np.asarray(x, dtype=float)).range_sums(los, his)

    # -- range decomposition -------------------------------------------------------
    def decompose_range(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> list[int]:
        """Canonical decomposition of a range into a minimal set of tree nodes.

        Greedy top-down: a node fully inside the range is taken whole,
        a node disjoint from the range is skipped, otherwise recurse into its
        children (or, at a leaf covering several cells, the leaf is accepted
        as a partial overlap — this is where aggregated-leaf bias appears).
        """
        qlo = tuple(int(v) for v in lo)
        qhi = tuple(int(v) for v in hi)
        ndim = len(qlo)
        lo_a, hi_a, offsets = self._lo, self._hi, self._child_offsets
        selected: list[int] = []
        stack = [0]
        while stack:
            idx = stack.pop()
            nlo, nhi = lo_a[idx], hi_a[idx]
            if any(int(nhi[d]) < qlo[d] or int(nlo[d]) > qhi[d]
                   for d in range(ndim)):
                continue
            inside = all(qlo[d] <= int(nlo[d]) and int(nhi[d]) <= qhi[d]
                         for d in range(ndim))
            a, b = int(offsets[idx]), int(offsets[idx + 1])
            if inside or a == b:
                selected.append(idx)
            else:
                stack.extend(range(a + 1, b + 1))
        return selected

    def level_usage(self, workload) -> np.ndarray:
        """Number of nodes per level used by the canonical decomposition of
        every workload query.  Drives GreedyH's budget allocation.

        The all-levels-measured case of the one usage counter: vectorised
        rank queries over the per-level tables (:meth:`_level_tables`),
        O((q + nodes) log nodes) instead of one recursive decomposition per
        query.  Only 2-D trees with irregular levels
        (:class:`IrregularTreeLevels`) fall back to the recursion
        :func:`subset_usage_reference`.
        """
        return self._usage(workload, np.ones(self.n_levels, dtype=bool))

    # -- level tables and the usage counter ----------------------------------------
    @staticmethod
    def _axis_intervals(lo: np.ndarray, hi: np.ndarray, size: int):
        """Distinct sorted intervals of one axis of a level, and the position
        of every node's interval among them.

        Raises :class:`IrregularTreeLevels` unless the intervals are pairwise
        disjoint-or-equal — the laminar per-axis structure the level tables
        rely on.  O(m + size), no sort.
        """
        if (lo[1:] > hi[:-1]).all():
            # Already sorted and disjoint (every 1-D level).
            return (np.ascontiguousarray(lo), np.ascontiguousarray(hi),
                    np.arange(lo.size))
        end_at = np.full(size, -1, dtype=np.intp)
        end_at[lo] = hi
        if not np.array_equal(end_at[lo], hi):
            raise IrregularTreeLevels(
                "intervals with equal starts but different ends within a level")
        is_start = end_at >= 0
        starts = np.flatnonzero(is_start)
        ends = end_at[starts]
        if np.any(starts[1:] <= ends[:-1]):
            raise IrregularTreeLevels("overlapping axis intervals within a level")
        return starts, ends, np.cumsum(is_start)[lo] - 1

    def _level_tables(self) -> list[dict]:
        """One rank-query table per level, for 1-D and 2-D trees (cached).

        Every level is a subset of the grid spanned by one sorted interval
        partition per axis.  A table holds those partitions (``starts`` and
        ``ends``, one array per axis), the prefix count of the grid cells
        holding a node (``count``; ``None`` when every cell holds one, as on
        every 1-D level and the levels of regular 2-D trees) and the prefix
        count of the multi-cell leaves (``partial``; ``None`` when the level
        has none) — the only nodes that can partly overlap a query.  Raises
        :class:`IrregularTreeLevels` when a 2-D level is not a grid subset.
        """
        if self._tables is None:
            try:
                self._tables = self._build_level_tables()
            except IrregularTreeLevels as exc:
                self._tables = exc
        if isinstance(self._tables, IrregularTreeLevels):
            raise self._tables
        return self._tables

    def _build_level_tables(self) -> list[dict]:
        lo, hi = self.node_bounds()
        leaves = self.leaf_indices()
        multi = leaves[(lo[leaves] != hi[leaves]).any(axis=1)]
        multi_spans = multi.searchsorted(self._level_offsets)
        tables = []
        for lvl in range(self.n_levels):
            s = int(self._level_offsets[lvl])
            e = int(self._level_offsets[lvl + 1])
            starts, ends, cells = zip(*(
                self._axis_intervals(lo[s:e, d], hi[s:e, d], size)
                for d, size in enumerate(self.domain_shape)))
            grid = tuple(a.size for a in starts)
            count = None
            # Every node maps onto an interval of each axis, and every
            # interval is some node's; in 1-D, m nodes onto m intervals is
            # one-to-one, so the level fills its grid.
            if len(grid) > 1 or grid[0] != e - s:
                exists = np.zeros(grid, dtype=bool)
                exists[cells] = True
                # A duplicate cell collapses in the scatter: the sum is O(m).
                if int(exists.sum()) != e - s:
                    raise IrregularTreeLevels("two nodes share a level-grid cell")
                if exists.size != e - s:
                    count = _prefix_count(exists)
            partial = None
            if multi_spans[lvl + 1] > multi_spans[lvl]:
                level_multi = multi[multi_spans[lvl]:multi_spans[lvl + 1]] - s
                marks = np.zeros(grid, dtype=bool)
                marks[tuple(c[level_multi] for c in cells)] = True
                partial = _prefix_count(marks)
            tables.append({"starts": starts, "ends": ends,
                           "count": count, "partial": partial})
        return tables

    def _usage(self, workload, measured: np.ndarray) -> np.ndarray:
        """Per-level node counts of the canonical decompositions of every
        workload query when only the ``measured`` levels exist.

        A node at a measured level is used iff it lies inside the query while
        its ancestor at the previous measured level does not.  Per level the
        inside nodes fill a box of grid positions (one contiguous interval
        run per axis), and the nodes whose ancestor is inside fill the box
        spanned by the previous level's inside run, read from per-level
        descendant maps.  Multi-cell leaves that intersect a query without
        lying inside it count once each.  Callers keep every leaf level
        measured.  Irregular 2-D trees fall back to the recursion
        :func:`subset_usage_reference`.
        """
        domain_shape = getattr(workload, "domain_shape", None)
        if domain_shape != self.domain_shape:
            raise ValueError(
                f"workload over domain {domain_shape} does not match the "
                f"tree domain {self.domain_shape}")
        try:
            tables = self._level_tables()
        except IrregularTreeLevels:
            return subset_usage_reference(self, workload, measured)
        qlos, qhis = workload._los.T, workload._his.T
        usage = np.zeros(self.n_levels)
        prev = None
        for level in np.flatnonzero(measured):
            table = tables[level]
            starts, ends = table["starts"], table["ends"]
            runs = _rank_runs(starts, ends, qlos, qhis)
            inside = _box_count(table["count"], runs)
            covered = 0
            if prev is not None:
                # Descendant runs of the previous measured level's inside
                # runs, through sentinel-padded maps from each interval of
                # that level to the run of this level's intervals inside it.
                ptable, pruns = prev
                maps = _rank_runs(starts, ends, ptable["starts"], ptable["ends"])
                covered = _box_count(table["count"], [
                    (np.concatenate((first, [axis.size]))[pi],
                     np.concatenate(([0], stop))[pj])
                    for (first, stop), axis, (pi, pj)
                    in zip(maps, starts, pruns)])
            usage[level] = float(inside.sum() - np.sum(covered))
            if table["partial"] is not None:
                # Intervals ending at or after lo and starting at or before
                # hi: the runs of nodes that touch the query.
                touching = _rank_runs(ends, starts, qlos, qhis)
                usage[level] += float(np.sum(
                    _box_count(table["partial"], touching)
                    - _box_count(table["partial"], runs)))
            prev = (table, runs)
        return usage


def subset_usage_reference(tree: HierarchicalTree, workload,
                           measured: np.ndarray) -> np.ndarray:
    """Per-query recursive reference for the tree usage counts.

    Walks the canonical decomposition over the measured levels only: a node
    at a measured level is taken when inside the query (or when it is a
    partially overlapping leaf); any other intersecting node recurses into
    its children.  Exact for every tree shape — the executable specification
    the vectorised rank-query counter is tested against, and the fallback
    for 2-D trees whose levels are not grid subsets.
    """
    measured = np.asarray(measured, dtype=bool)
    usage = np.zeros(tree.n_levels)
    for query in workload:
        stack = [0]
        while stack:
            node = tree.nodes[stack.pop()]
            if any(nhi < qlo or nlo > qhi
                   for nlo, nhi, qlo, qhi in zip(node.lo, node.hi,
                                                 query.lo, query.hi)):
                continue
            inside = all(qlo <= nlo and nhi <= qhi
                         for nlo, nhi, qlo, qhi in zip(node.lo, node.hi,
                                                       query.lo, query.hi))
            if measured[node.level] and (inside or node.is_leaf):
                usage[node.level] += 1
            else:
                stack.extend(node.children)
    return usage


def build_reference_nodes(domain_shape: tuple[int, ...], branching: int = 2,
                          max_height: int | None = None,
                          split_axes: tuple[int, ...] | None = None,
                          ) -> list[TreeNode]:
    """The historical per-node breadth-first builder, node for node.

    This is the executable specification of :class:`HierarchicalTree`'s
    vectorised array construction: same node order, bounds, levels, parents
    and child lists (the property suite pins the two against each other), at
    per-Python-object cost.  Retained for testing and as the baseline of the
    construction-speedup gate; production code always uses the arrays.
    """
    domain_shape, branching, split_axes = \
        _validated_params(domain_shape, branching, split_axes)
    ndim = len(domain_shape)

    def axes_to_split(node: TreeNode) -> tuple[int, ...]:
        if split_axes is None:
            return tuple(range(ndim))
        axis = split_axes[node.level % len(split_axes)]
        if node.hi[axis] > node.lo[axis]:
            return (axis,)
        return tuple(range(ndim))

    def split(node: TreeNode) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        axes = axes_to_split(node)
        per_dim: list[list[tuple[int, int]]] = []
        for dim, (a, b) in enumerate(zip(node.lo, node.hi)):
            length = b - a + 1
            if length == 1 or dim not in axes:
                per_dim.append([(a, b)])
                continue
            pieces = min(branching, length)
            boundaries = np.linspace(a, b + 1, pieces + 1).astype(int)
            segments = []
            for i in range(pieces):
                lo_i, hi_i = int(boundaries[i]), int(boundaries[i + 1]) - 1
                if hi_i >= lo_i:
                    segments.append((lo_i, hi_i))
            per_dim.append(segments)
        blocks = []
        if len(per_dim) == 1:
            for seg in per_dim[0]:
                blocks.append(((seg[0],), (seg[1],)))
        else:
            for seg0 in per_dim[0]:
                for seg1 in per_dim[1]:
                    blocks.append(((seg0[0], seg1[0]), (seg0[1], seg1[1])))
        # Avoid degenerate "split" into a single identical block.
        if len(blocks) == 1 and blocks[0] == (node.lo, node.hi):
            return []
        return blocks

    root = TreeNode(lo=tuple(0 for _ in domain_shape),
                    hi=tuple(d - 1 for d in domain_shape), level=0)
    root.index = 0
    nodes = [root]
    frontier = [0]
    while frontier:
        next_frontier = []
        for node_idx in frontier:
            node = nodes[node_idx]
            if node.size <= 1:
                continue
            if max_height is not None and node.level >= max_height:
                continue
            for lo, hi in split(node):
                child = TreeNode(lo=lo, hi=hi, level=node.level + 1,
                                 parent=node_idx)
                child.index = len(nodes)
                node.children.append(child.index)
                nodes.append(child)
                next_frontier.append(child.index)
        frontier = next_frontier
    return nodes


def optimal_branching(n: int, max_branching: int = 16) -> int:
    """Branching factor used by Hb: minimise the average variance proxy
    ``(b - 1) * h^3`` where ``h = ceil(log_b n)`` (Qardaji et al.)."""
    if n <= 2:
        return 2
    best_b, best_cost = 2, float("inf")
    for b in range(2, max_branching + 1):
        h = int(np.ceil(np.log(n) / np.log(b)))
        if h < 1:
            h = 1
        cost = (b - 1) * h ** 3
        if cost < best_cost:
            best_b, best_cost = b, cost
    return best_b


def build_tree(domain_shape: tuple[int, ...], branching: int = 2,
               max_height: int | None = None,
               split_axes: tuple[int, ...] | None = None) -> HierarchicalTree:
    """Convenience constructor for :class:`HierarchicalTree`."""
    return HierarchicalTree(domain_shape, branching=branching,
                            max_height=max_height, split_axes=split_axes)
