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


def _grid_count(prefix: np.ndarray, i0, j0, i1, j1):
    """Marked level-grid cells in rows ``[i0, j0)`` x cols ``[i1, j1)``.

    ``prefix`` is a 2-D inclusive prefix-sum table with a zero border; empty
    runs (``j <= i``) count zero.  All arguments vectorise over queries.
    """
    b0 = np.maximum(j0, i0)
    b1 = np.maximum(j1, i1)
    return prefix[b0, b1] - prefix[i0, b1] - prefix[b0, i1] + prefix[i0, i1]


def _descendant_run(pstarts, pends, pi, pj, starts, ends):
    """Run of this level's axis intervals descending from the previous
    level's run ``[pi, pj)``: the intervals inside the run's span.  Garbage
    for empty parent runs — callers mask those out."""
    first = np.minimum(pi, pstarts.size - 1)
    last = np.minimum(np.maximum(pj - 1, 0), pstarts.size - 1)
    a = np.searchsorted(starts, pstarts[first], side="left")
    b = np.searchsorted(ends, pends[last], side="right")
    return a, b


def _workload_bounds(workload) -> tuple[np.ndarray, np.ndarray]:
    """Per-query ``(los, his)`` bound arrays of a workload, shape ``(q, ndim)``.

    :class:`~repro.workload.rangequery.Workload` already carries the bounds as
    arrays — read them directly instead of looping over a million query
    objects.  Plain query sequences (tests, ad-hoc lists) fall back to the
    historical comprehension; either way the values are identical, so every
    rank-query consumer stays bitwise-unchanged.
    """
    los = getattr(workload, "_los", None)
    his = getattr(workload, "_his", None)
    if los is None or his is None:
        los = np.array([q.lo for q in workload], dtype=np.intp)
        his = np.array([q.hi for q in workload], dtype=np.intp)
    return np.atleast_2d(los), np.atleast_2d(his)

__all__ = ["TreeNode", "HierarchicalTree", "IrregularTreeLevels", "build_tree",
           "build_reference_nodes", "optimal_branching"]


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
        self._levels_1d: list[dict] | None = None
        self._leaves_1d: dict | None = None
        self._levels_2d: list[dict] | None = None
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

        The counts are computed with vectorised rank queries —
        O((q + nodes) log nodes) instead of one recursive decomposition per
        query — over the sorted per-level interval tables in 1-D and the
        per-level grid tables in 2-D; only 2-D trees with irregular levels
        (:class:`IrregularTreeLevels`) fall back to the recursion.
        """
        if len(self.domain_shape) == 1:
            return self._level_usage_1d(workload)
        try:
            return self._subset_usage_2d(workload,
                                         np.ones(self.n_levels, dtype=bool))
        except IrregularTreeLevels:
            pass
        usage = np.zeros(self.n_levels)
        for query in workload:
            for idx in self.decompose_range(query.lo, query.hi):
                usage[int(self._level[idx])] += 1
        return usage

    def _level_tables_1d(self):
        """Sorted per-level interval tables used by the vectorised usage count."""
        if self._levels_1d is None:
            starts_all = self._lo[:, 0].astype(np.intp, copy=False)
            ends_all = self._hi[:, 0].astype(np.intp, copy=False)
            offsets = self._child_offsets
            tables = []
            for lvl in range(self.n_levels):
                s = int(self._level_offsets[lvl])
                e = int(self._level_offsets[lvl + 1])
                # Nodes within a level are created left-to-right, so starts
                # (and, the intervals being disjoint, ends) are sorted.
                tables.append({
                    "starts": starts_all[s:e],
                    "ends": ends_all[s:e],
                    "kids_cum": (offsets[s:e + 1] - offsets[s]).astype(np.intp),
                })
            self._levels_1d = tables
        if self._leaves_1d is None:
            leaf_idx = self.leaf_indices()
            order = np.argsort(self._lo[leaf_idx, 0], kind="stable")
            leaf_idx = leaf_idx[order]
            self._leaves_1d = {
                "starts": self._lo[leaf_idx, 0].astype(np.intp, copy=False),
                "ends": self._hi[leaf_idx, 0].astype(np.intp, copy=False),
                "levels": self._level[leaf_idx].astype(np.intp, copy=False),
            }
        return self._levels_1d, self._leaves_1d

    def _level_usage_1d(self, workload) -> np.ndarray:
        tables, leaves = self._level_tables_1d()
        qlos, qhis = _workload_bounds(workload)
        los, his = qlos[:, 0], qhis[:, 0]
        usage = np.zeros(self.n_levels)

        # A node is used iff it lies inside the query while its parent does
        # not (the root is used whenever it is inside).  Per level, the inside
        # nodes form a contiguous run of the sorted intervals, and the number
        # of nodes whose parent is inside is the child count of the previous
        # level's inside run.
        prev_run = None
        for level, table in enumerate(tables):
            i = np.searchsorted(table["starts"], los, side="left")
            j = np.searchsorted(table["ends"], his, side="right")
            inside = np.maximum(j - i, 0)
            covered = 0
            if prev_run is not None:
                pi, pj, ptable = prev_run
                valid = pj > pi
                covered = np.where(
                    valid,
                    ptable["kids_cum"][np.minimum(pj, ptable["kids_cum"].size - 1)]
                    - ptable["kids_cum"][np.minimum(pi, ptable["kids_cum"].size - 1)],
                    0,
                )
            usage[level] = float(np.sum(inside - covered))
            prev_run = (i, j, table)

        # Partial-overlap leaves: an intersecting but not-inside leaf at each
        # end of the query (at most one per side, possibly the same leaf).
        i0 = np.searchsorted(leaves["ends"], los, side="left")
        j0 = np.searchsorted(leaves["starts"], his, side="right")
        i1 = np.searchsorted(leaves["starts"], los, side="left")
        j1 = np.searchsorted(leaves["ends"], his, side="right")
        left = i1 > i0
        right = j0 > j1
        same = left & right & (i0 == j0 - 1)
        if np.any(left):
            np.add.at(usage, leaves["levels"][i0[left]], 1.0)
        right_only = right & ~same
        if np.any(right_only):
            np.add.at(usage, leaves["levels"][j0[right_only] - 1], 1.0)
        return usage

    # -- 2-D level grids -----------------------------------------------------------
    @staticmethod
    def _axis_intervals(lo: np.ndarray, hi: np.ndarray):
        """Distinct sorted intervals of one axis of a level.

        Raises :class:`IrregularTreeLevels` unless the intervals are pairwise
        disjoint-or-equal — the laminar per-axis structure the grid tables
        rely on.
        """
        starts, first = np.unique(lo, return_index=True)
        ends = hi[first]
        if not np.array_equal(hi, ends[np.searchsorted(starts, lo)]):
            raise IrregularTreeLevels(
                "intervals with equal starts but different ends within a level")
        if np.any(starts[1:] <= ends[:-1]):
            raise IrregularTreeLevels("overlapping axis intervals within a level")
        return starts, ends

    def _level_tables_2d(self) -> list[dict]:
        """Per-level grid tables for vectorised 2-D usage counts (cached).

        Each level of a regular 2-D tree is a subset of the cross product of
        one sorted interval partition per axis; the table holds the two axis
        partitions plus 2-D prefix-sum counts of the existing nodes (and of
        the leaves among them), so the number of nodes inside any rectangle
        of grid positions is an O(1) lookup.  Raises
        :class:`IrregularTreeLevels` when the product structure does not hold
        (callers fall back to the per-query recursion).
        """
        if len(self.domain_shape) != 2:
            raise ValueError("2-D level tables require a 2-D domain")
        if self._levels_2d is None:
            try:
                self._levels_2d = self._build_level_tables_2d()
            except IrregularTreeLevels as exc:
                self._levels_2d = exc
        if isinstance(self._levels_2d, IrregularTreeLevels):
            raise self._levels_2d
        return self._levels_2d

    def _build_level_tables_2d(self) -> list[dict]:
        offsets = self._child_offsets
        tables = []
        for lvl in range(self.n_levels):
            s = int(self._level_offsets[lvl])
            e = int(self._level_offsets[lvl + 1])
            lo = self._lo[s:e].astype(np.intp, copy=False)
            hi = self._hi[s:e].astype(np.intp, copy=False)
            is_leaf = offsets[s + 1:e + 1] == offsets[s:e]
            starts0, ends0 = self._axis_intervals(lo[:, 0], hi[:, 0])
            starts1, ends1 = self._axis_intervals(lo[:, 1], hi[:, 1])
            rows = np.searchsorted(starts0, lo[:, 0])
            cols = np.searchsorted(starts1, lo[:, 1])
            if np.unique(rows * starts1.size + cols).size != rows.size:
                raise IrregularTreeLevels("two nodes share a level-grid cell")
            exists = np.zeros((starts0.size, starts1.size), dtype=np.intp)
            exists[rows, cols] = 1
            count = np.zeros((starts0.size + 1, starts1.size + 1), dtype=np.intp)
            count[1:, 1:] = exists.cumsum(axis=0).cumsum(axis=1)
            leaf_count = None
            if is_leaf.any():
                leaves = np.zeros_like(exists)
                leaves[rows[is_leaf], cols[is_leaf]] = 1
                leaf_count = np.zeros_like(count)
                leaf_count[1:, 1:] = leaves.cumsum(axis=0).cumsum(axis=1)
            tables.append({"starts0": starts0, "ends0": ends0,
                           "starts1": starts1, "ends1": ends1,
                           "count": count, "leaf_count": leaf_count})
        return tables

    def _subset_usage_2d(self, workload, measured: np.ndarray) -> np.ndarray:
        """2-D analogue of the 1-D subset usage: per-level counts of the
        nodes used by the canonical decomposition of every workload rectangle
        when only the ``measured`` levels exist.

        A node at a measured level is used iff it lies inside the rectangle
        while its ancestor at the previous measured level does not; per level
        the inside nodes occupy a rectangle of grid positions (one contiguous
        interval run per axis), counted through the prefix tables, and the
        ancestor-inside nodes occupy the grid rectangle spanned by the
        previous run's descendants.  Partially overlapping leaves (aggregated
        leaves at the rectangle boundary) count once each: leaves
        intersecting minus leaves inside.  Callers must keep every leaf level
        measured.  O((q + nodes) log nodes) total, no per-query recursion.
        """
        tables = self._level_tables_2d()
        los, his = _workload_bounds(workload)
        qlo0, qlo1 = los[:, 0], los[:, 1]
        qhi0, qhi1 = his[:, 0], his[:, 1]
        usage = np.zeros(self.n_levels)

        prev = None
        for level, table in enumerate(tables):
            if not measured[level]:
                continue
            i0 = np.searchsorted(table["starts0"], qlo0, side="left")
            j0 = np.searchsorted(table["ends0"], qhi0, side="right")
            i1 = np.searchsorted(table["starts1"], qlo1, side="left")
            j1 = np.searchsorted(table["ends1"], qhi1, side="right")
            inside = _grid_count(table["count"], i0, j0, i1, j1)
            covered = 0
            if prev is not None:
                pi0, pj0, pi1, pj1, ptable = prev
                valid = (pj0 > pi0) & (pj1 > pi1)
                a0, b0 = _descendant_run(ptable["starts0"], ptable["ends0"],
                                         pi0, pj0,
                                         table["starts0"], table["ends0"])
                a1, b1 = _descendant_run(ptable["starts1"], ptable["ends1"],
                                         pi1, pj1,
                                         table["starts1"], table["ends1"])
                covered = np.where(
                    valid, _grid_count(table["count"], a0, b0, a1, b1), 0)
            usage[level] = float(np.sum(inside - covered))
            if table["leaf_count"] is not None:
                # Partial-overlap leaves: intersecting but not inside.  Their
                # ancestors are never inside (an inside ancestor would make
                # the leaf inside), so they are used unconditionally.
                ii0 = np.searchsorted(table["ends0"], qlo0, side="left")
                jj0 = np.searchsorted(table["starts0"], qhi0, side="right")
                ii1 = np.searchsorted(table["ends1"], qlo1, side="left")
                jj1 = np.searchsorted(table["starts1"], qhi1, side="right")
                intersecting = _grid_count(table["leaf_count"], ii0, jj0, ii1, jj1)
                inside_leaves = _grid_count(table["leaf_count"], i0, j0, i1, j1)
                usage[level] += float(np.sum(intersecting - inside_leaves))
            prev = (i0, j0, i1, j1, table)
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
