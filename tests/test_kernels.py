"""Kernel-dispatch registry, bitwise backend parity, and memory-bound tests.

The compiled backends of :mod:`repro.core.kernels` must be *bitwise*
interchangeable with their numpy references, and the streaming tree solver
must keep its transients bounded by the block size even at 2**20 leaves.
The python sources of the njit kernels are exercised here unconditionally
(numba compiles the same code objects), so parity is pinned even in
environments without numba; the compiled paths run on the numba CI leg.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.dawa import l1_partition, l1_partition_reference
from repro.algorithms.tree import HierarchicalTree
from repro.core import kernels
from repro.core.gls import tree_least_squares
from repro.core.kernels import (
    TREE_BLOCK,
    active_backend,
    available_backends,
    batched_laplace,
    get_kernel,
    kernel_names,
    numba_available,
    use_backend,
)
from repro.workload.prefix_sum import PrefixSum

needs_numba = pytest.mark.skipif(not numba_available(),
                                 reason="numba not installed")


# -- registry semantics ----------------------------------------------------------------

class TestRegistry:
    def test_expected_kernels_registered(self):
        assert set(kernel_names()) >= {"l1_partition_core", "tree_two_pass",
                                       "batched_laplace"}

    def test_numpy_reference_always_available(self):
        for name in kernel_names():
            assert "numpy" in available_backends(name)

    def test_unknown_kernel_raises_with_names(self):
        with pytest.raises(KeyError, match="l1_partition_core"):
            get_kernel("no_such_kernel")

    def test_env_override_numpy(self, monkeypatch):
        monkeypatch.setenv("DPBENCH_KERNEL", "numpy")
        assert active_backend() == "numpy"
        assert active_backend("tree_two_pass") == "numpy"

    def test_env_override_invalid(self, monkeypatch):
        monkeypatch.setenv("DPBENCH_KERNEL", "cuda")
        with pytest.raises(ValueError, match="DPBENCH_KERNEL"):
            active_backend()

    def test_use_backend_pins_and_restores(self):
        before = active_backend()
        with use_backend("numpy"):
            assert active_backend() == "numpy"
            assert get_kernel("tree_two_pass") is kernels._tree_two_pass_numpy
        assert active_backend() == before

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("fortran"):
                pass  # pragma: no cover

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_forcing_numba_without_numba_raises(self):
        with pytest.raises(RuntimeError, match="numba is not installed"):
            with use_backend("numba"):
                pass  # pragma: no cover

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_auto_falls_back_to_numpy(self):
        assert active_backend() == "numpy"
        assert get_kernel("l1_partition_core") is kernels._l1_partition_core_numpy

    @needs_numba
    def test_auto_prefers_numba_when_present(self):
        assert active_backend() == "numba"
        assert active_backend("l1_partition_core") == "numba"
        # Kernels without a compiled implementation fall back per-kernel.
        assert active_backend("batched_laplace") == "numpy"


# -- batched_laplace stream identity ---------------------------------------------------

class TestBatchedLaplace:
    def test_grouped_scales_match_vector_draw(self):
        scales = np.repeat([0.5, 2.0, 0.25], [100, 50, 200])
        batched = batched_laplace(np.random.default_rng(7), scales)
        vector = np.random.default_rng(7).laplace(0.0, scales)
        assert batched.tobytes() == vector.tobytes()

    def test_grouped_scales_match_per_query_loop(self):
        scales = np.repeat([1.0, 3.0], [64, 64])
        batched = batched_laplace(np.random.default_rng(11), scales)
        rng = np.random.default_rng(11)
        loop = np.array([rng.laplace(0.0, s) for s in scales])
        assert batched.tobytes() == loop.tobytes()

    def test_ungrouped_scales_fall_back_bitwise(self):
        scales = np.linspace(0.1, 5.0, 64)  # all-distinct: no run structure
        batched = batched_laplace(np.random.default_rng(3), scales)
        vector = np.random.default_rng(3).laplace(0.0, scales)
        assert batched.tobytes() == vector.tobytes()

    def test_generator_state_advances_identically(self):
        scales = np.repeat([0.5, 2.0], [32, 32])
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        batched_laplace(rng_a, scales)
        rng_b.laplace(0.0, scales)
        assert rng_a.normal() == rng_b.normal()

    def test_empty(self):
        out = batched_laplace(np.random.default_rng(0), np.zeros(0))
        assert out.shape == (0,)


# -- l1_partition_core parity ----------------------------------------------------------

def _l1_inputs(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "structured":
        x = np.repeat(rng.integers(0, 200, n // 16).astype(float), 16)
        return x + rng.laplace(0.0, 2.0, n)
    # Noise-dominated: tiny counts under large noise — pruning barely bites,
    # the survivor scan degenerates to its O(n log n) worst case.
    return rng.integers(0, 3, n).astype(float) + rng.laplace(0.0, 50.0, n)


class TestL1PartitionCore:
    @pytest.mark.parametrize("kind", ["structured", "noise"])
    def test_scalar_source_matches_reference_partition(self, monkeypatch, kind):
        """The njit source, run uncompiled through the real dispatch path,
        reproduces the reference partition exactly."""
        noisy = _l1_inputs(kind, 512, seed=42)
        expected = l1_partition_reference(noisy, bucket_penalty=2.0)
        monkeypatch.setitem(kernels._REGISTRY["l1_partition_core"], "numpy",
                            kernels._l1_partition_core_scalar)
        assert l1_partition(noisy, bucket_penalty=2.0) == expected

    @pytest.mark.parametrize("kind", ["structured", "noise"])
    def test_numpy_backend_matches_reference(self, kind):
        noisy = _l1_inputs(kind, 512, seed=1)
        with use_backend("numpy"):
            assert l1_partition(noisy, 2.0) == l1_partition_reference(noisy, 2.0)

    @needs_numba
    @pytest.mark.parametrize("kind", ["structured", "noise"])
    def test_numba_backend_matches_numpy(self, kind):
        noisy = _l1_inputs(kind, 2048, seed=5)
        with use_backend("numpy"):
            ref = l1_partition(noisy, 2.0)
        with use_backend("numba"):
            assert l1_partition(noisy, 2.0) == ref


# -- tree_two_pass parity --------------------------------------------------------------

def _random_tree_case(seed: int, branching: int, n_leaves: int,
                      unmeasured_frac: float = 0.0):
    tree = HierarchicalTree((n_leaves,), branching=branching)
    rng = np.random.default_rng(seed)
    n_nodes = len(tree.nodes)
    measurements = rng.normal(100.0, 30.0, n_nodes)
    variances = rng.uniform(0.5, 8.0, n_nodes)
    if unmeasured_frac:
        drop = rng.random(n_nodes) < unmeasured_frac
        drop[0] = False  # keep the root measured
        measurements[drop] = np.nan
        variances[drop] = np.inf
    return tree, measurements, variances


class TestTreeTwoPass:
    @pytest.mark.parametrize("branching,n_leaves,frac", [
        (2, 64, 0.0),
        (2, 100, 0.3),   # ragged tree, unmeasured interior
        (4, 256, 0.0),
        (9, 243, 0.2),   # branching > 8: pairwise emulation's unrolled path
        (16, 256, 0.0),
    ])
    def test_scalar_sources_match_numpy_backend(self, branching, n_leaves, frac):
        tree, meas, var = _random_tree_case(17, branching, n_leaves, frac)
        plan = tree.two_pass_groups()
        own_values = np.where(np.isfinite(meas), meas, 0.0)
        own_vars = np.where(np.isfinite(meas), var, np.inf)
        ref = kernels._tree_two_pass_numpy(plan, own_values, own_vars)
        got = kernels._tree_two_pass_numba_driver(plan, own_values, own_vars)
        assert got.tobytes() == ref.tobytes()

    def test_blocking_is_bitwise_invariant(self):
        """Tiny blocks chunk every level many times; results must not move."""
        tree, meas, var = _random_tree_case(23, 2, 512, 0.25)
        plan = tree.two_pass_groups()
        own_values = np.where(np.isfinite(meas), meas, 0.0)
        own_vars = np.where(np.isfinite(meas), var, np.inf)
        ref = kernels._tree_two_pass_numpy(plan, own_values, own_vars)
        tiny = kernels._tree_two_pass_numpy(plan, own_values, own_vars, block=7)
        assert tiny.tobytes() == ref.tobytes()

    def test_dispatch_used_by_tree_least_squares(self):
        tree, meas, var = _random_tree_case(29, 2, 64)
        with use_backend("numpy"):
            out = tree_least_squares(tree, meas, var)
        # Consistency: every parent equals the sum of its children.
        for node in tree.nodes:
            if node.children:
                assert out[node.index] == pytest.approx(
                    sum(out[c] for c in node.children), rel=1e-9)

    @needs_numba
    @pytest.mark.parametrize("branching,n_leaves,frac", [
        (2, 100, 0.3), (4, 256, 0.0), (9, 243, 0.2),
    ])
    def test_numba_backend_matches_numpy(self, branching, n_leaves, frac):
        tree, meas, var = _random_tree_case(31, branching, n_leaves, frac)
        with use_backend("numpy"):
            ref = tree_least_squares(tree, meas, var)
        with use_backend("numba"):
            got = tree_least_squares(tree, meas, var)
        assert got.tobytes() == ref.tobytes()


class TestPairwiseSumEmulation:
    def test_matches_ndarray_sum_up_to_128(self):
        rng = np.random.default_rng(0)
        for k in range(1, 129):
            row = rng.uniform(-1e6, 1e6, k)
            assert kernels._pairwise_sum_scalar(row, k) == row.sum()


# -- streaming memory bounds -----------------------------------------------------------

def _complete_binary_plan(depth: int):
    """Heap-ordered complete binary tree: level ``d`` parents are
    ``[2**d - 1, 2**(d+1) - 1)`` with children ``2p+1, 2p+2``."""
    groups = []
    for d in range(depth):
        parents = np.arange(2**d - 1, 2**(d + 1) - 1, dtype=np.intp)
        children = np.stack([2 * parents + 1, 2 * parents + 2], axis=1)
        groups.append((parents, children))
    return groups


class TestStreamingMemory:
    def test_million_leaf_solve_stays_within_block_bound(self):
        """A 2**20-leaf binary-tree GLS must allocate no per-level dense
        intermediate beyond the block: peak traced memory is the O(n) solver
        state plus a block-sized allowance.  (The plan is built heap-style
        here — building 2M python TreeNode objects is what this kernel
        design avoids having to do in the hot path.)"""
        depth = 20
        n_nodes = 2**(depth + 1) - 1
        groups = _complete_binary_plan(depth)
        rng = np.random.default_rng(41)
        own_values = rng.normal(0.0, 10.0, n_nodes)
        own_vars = np.full(n_nodes, 4.0)
        solve = kernels._tree_two_pass_numpy

        tracemalloc.start()
        out = solve(groups, own_values, own_vars)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        state_bytes = 3 * n_nodes * 8          # combined, combined_var, final
        block_allowance = 64 * TREE_BLOCK * 8  # ~16 MiB of block transients
        assert out.shape == (n_nodes,)
        assert peak <= state_bytes + block_allowance, (
            f"peak {peak / 1e6:.1f} MB exceeds state "
            f"{state_bytes / 1e6:.1f} MB + block allowance "
            f"{block_allowance / 1e6:.1f} MB — a per-level dense "
            f"intermediate leaked past the streaming block")
        # An unblocked widest level alone gathers ~40 MB of transients; the
        # bound above would catch that regression.

    def test_hilbert_order_memory_bound_at_1024(self):
        from repro.algorithms.hilbert import hilbert_order

        side = 1024
        tracemalloc.start()
        order = hilbert_order(side)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Output is side**2 * 8 bytes ~ 8.4 MB; chunked uint32 temporaries add
        # ~9 MB.  The historical whole-vector int64 builder peaked ~61 MB.
        assert peak <= 24 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
        # Still a valid space-filling-curve permutation.
        assert order.shape == (side * side,)
        assert np.array_equal(np.sort(order), np.arange(side * side))


# -- PrefixSum precision at million-cell scale -----------------------------------------

class TestPrefixSumPrecision:
    def test_integer_counts_exact_at_2_20(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 1000, 2**20)
        ps = PrefixSum(x.astype(np.float32))  # narrow input must be promoted
        assert ps._table.dtype == np.float64
        exact = int(x.sum())
        assert ps.range_sum((0,), (2**20 - 1,)) == float(exact)

    def test_fractional_error_within_documented_bound(self):
        n = 2**20
        x = np.full(n, 0.1)
        ps = PrefixSum(x)
        exact = n * 0.1
        bound = (n - 1) * 2.0**-53 * n * 0.1
        assert abs(ps.range_sum((0,), (n - 1,)) - exact) <= bound

    def test_2d_million_cell_corner_exact(self):
        x = np.ones((1024, 1024), dtype=np.int64)
        ps = PrefixSum(x)
        assert ps.range_sum((0, 0), (1023, 1023)) == float(2**20)
        assert ps.range_sum((512, 512), (1023, 1023)) == float(512 * 512)


# -- backend recorded in run records ---------------------------------------------------

class TestBackendRecording:
    def test_run_records_carry_kernel_backend(self):
        from repro import make_algorithm
        from repro.core.benchmark import BenchmarkGrid, DPBench
        from repro.data.dataset import Dataset

        grid = BenchmarkGrid(scales=[500], domain_shapes=[(32,)],
                             epsilons=[0.5], n_data_samples=1, n_trials=1)
        bench = DPBench(task="test", grid=grid,
                        datasets=[Dataset("FLAT", np.ones(32))],
                        algorithms={"Identity": make_algorithm("Identity")})
        records = list(bench.run(rng=0))
        assert records
        for record in records:
            assert record.extra["kernel_backend"] == active_backend()


# -- registry-wide backend parity (numba leg) ------------------------------------------

@needs_numba
class TestRegistryWideParity:
    """Every registered algorithm is bitwise-identical under both backends."""

    @pytest.mark.parametrize("name", [
        "Identity", "Uniform", "Privelet", "H", "Hb", "GreedyH", "MWEM",
        "AHP", "DPCube", "DAWA", "PHP", "EFPA", "SF",
    ])
    def test_1d_bitwise_parity(self, name, small_1d, workload_1d):
        from repro import make_algorithm

        with use_backend("numpy"):
            ref = make_algorithm(name).run(small_1d, 0.5, workload=workload_1d,
                                           rng=np.random.default_rng(99))
        with use_backend("numba"):
            got = make_algorithm(name).run(small_1d, 0.5, workload=workload_1d,
                                           rng=np.random.default_rng(99))
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", [
        "Identity", "QuadTree", "HybridTree", "UGrid", "AGrid", "DAWA",
    ])
    def test_2d_bitwise_parity(self, name, small_2d):
        from repro import make_algorithm, random_range_workload

        workload = random_range_workload((16, 16), n_queries=40,
                                         rng=np.random.default_rng(3))
        with use_backend("numpy"):
            ref = make_algorithm(name).run(small_2d, 0.5, workload=workload,
                                           rng=np.random.default_rng(99))
        with use_backend("numba"):
            got = make_algorithm(name).run(small_2d, 0.5, workload=workload,
                                           rng=np.random.default_rng(99))
        assert got.tobytes() == ref.tobytes()
