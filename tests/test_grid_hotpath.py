"""The SF and AGrid hot paths against verbatim copies of their previous
implementations.

``StructureFirst._select_boundaries`` keeps one array of cut gains and
rescores only the two sub-intervals a chosen cut splits; ``AGrid._run`` does
its per-block work in Python-int / ``math`` scalars with one size-k noise draw
per fine grid.  Both must stay bitwise-identical to the per-round /
per-cell-draw implementations copied below: the same release and the same
generator state after the run, on integer and non-integer counts.
"""

from __future__ import annotations

import copy
import sys

import numpy as np
import pytest

import repro.algorithms.sf
from repro.algorithms.grids import AGrid
from repro.algorithms.mechanisms import PrivacyBudget, exponential_mechanism, laplace_noise
from repro.algorithms.sf import StructureFirst
from repro.core.gls import inverse_variance_combine
from repro.workload.rangequery import Workload


def _grid_edges(length: int, pieces: int) -> np.ndarray:
    """The previous ``repro.algorithms.grids._grid_edges``, verbatim."""
    pieces = int(np.clip(pieces, 1, length))
    return np.arange(pieces + 1, dtype=np.intp) * int(length) // pieces


class ReferenceSF(StructureFirst):
    """SF with the previous per-round boundary search (every live interval
    rescored every round)."""

    def _select_boundaries(self, x: np.ndarray, n_buckets: int, eps_structure: float,
                           count_bound: float, rng: np.random.Generator) -> list[int]:
        """Greedily select bucket boundaries with the exponential mechanism.

        Boundaries are cut points in ``1..n-1``; the score of a candidate cut
        is the reduction in total SSE it achieves given the cuts chosen so far.
        All candidate scores for one round are computed in a single vectorised
        pass using prefix sums.
        """
        n = x.size
        if n_buckets <= 1 or eps_structure <= 0:
            return [0, n]
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        prefix_sq = np.concatenate([[0.0], np.cumsum(x ** 2)])

        def sse(lo, hi):
            lo = np.asarray(lo)
            hi = np.asarray(hi)
            width = np.maximum(hi - lo, 1)
            total = prefix[hi] - prefix[lo]
            total_sq = prefix_sq[hi] - prefix_sq[lo]
            return np.maximum(total_sq - total * total / width, 0.0)

        boundaries = [0, n]
        eps_per_cut = eps_structure / (n_buckets - 1)
        # Sensitivity of an SSE-based score: adding a record changes a squared
        # count by at most 2 * F + 1 where F bounds any count.
        sensitivity = 2.0 * count_bound + 1.0
        for _ in range(n_buckets - 1):
            sorted_boundaries = np.array(sorted(boundaries))
            candidate_list: list[np.ndarray] = []
            score_list: list[np.ndarray] = []
            for lo, hi in zip(sorted_boundaries[:-1], sorted_boundaries[1:]):
                cuts = np.arange(lo + 1, hi)
                if cuts.size == 0:
                    continue
                base = float(sse(lo, hi))
                gains = base - sse(np.full(cuts.size, lo), cuts) - sse(cuts, np.full(cuts.size, hi))
                candidate_list.append(cuts)
                score_list.append(gains)
            if not candidate_list:
                break
            candidates = np.concatenate(candidate_list)
            scores = np.concatenate(score_list)
            chosen = exponential_mechanism(scores, eps_per_cut, sensitivity=sensitivity, rng=rng)
            boundaries.append(int(candidates[chosen]))
        return sorted(boundaries)



class ReferenceAGrid(AGrid):
    """AGrid with the previous per-block loop (numpy scalar arithmetic, one
    scalar noise draw per fine cell).  Verbatim except for the PL004
    suppression on ``coarse_size``: that rule polices ``src`` only."""

    def _run(self, x: np.ndarray, epsilon: float, workload: Workload | None,
             rng: np.random.Generator) -> np.ndarray:
        c = float(self.params["c"])
        c2 = float(self.params["c2"])
        rho = float(self.params["rho"])
        budget = PrivacyBudget(epsilon)
        eps_coarse = budget.spend(epsilon * rho, "coarse-grid")
        eps_fine = budget.spend_all("fine-grid")

        scale = float(x.sum())          # side information: true scale
        rows, cols = x.shape
        # Qardaji's grid-size heuristic m ~= sqrt(N * eps / c): epsilon enters
        # as signal strength, not as a budget split (the split is the two
        # spend() calls above).
        coarse_size = max(10, int(np.ceil(np.sqrt(max(scale * epsilon / c, 1.0)) / 2.0)))
        row_edges = _grid_edges(rows, coarse_size)
        col_edges = _grid_edges(cols, coarse_size)

        estimate = np.zeros(x.shape)
        coarse_variance = 2.0 / eps_coarse ** 2
        fine_variance = 2.0 / eps_fine ** 2
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                block = x[r0:r1, c0:c1]
                if block.size == 0:
                    continue
                # Bespoke per-block interleaved noise (documented plan-pipeline
                # exemption); eps_coarse was charged by spend() above.  The
                # float() around the true block total is the taint sanitizer's
                # declassification point: the very next operation noised it.
                coarse_count = float(block.sum()) + float(laplace_noise(1.0 / eps_coarse, (), rng))  # privlint: disable=PL003
                fine_size = int(np.ceil(np.sqrt(max(coarse_count, 0.0) * eps_fine / c2)))
                fine_size = int(np.clip(fine_size, 1, max(block.shape)))
                sub_row_edges = _grid_edges(block.shape[0], fine_size)
                sub_col_edges = _grid_edges(block.shape[1], fine_size)

                fine_values = []
                fine_slices = []
                for fr0, fr1 in zip(sub_row_edges[:-1], sub_row_edges[1:]):
                    for fc0, fc1 in zip(sub_col_edges[:-1], sub_col_edges[1:]):
                        fine_block = block[fr0:fr1, fc0:fc1]
                        if fine_block.size == 0:
                            continue
                        # Same exemption as the coarse pass; eps_fine was
                        # charged by spend_all() above.
                        noisy = float(fine_block.sum()) + float(laplace_noise(1.0 / eps_fine, (), rng))  # privlint: disable=PL003
                        fine_values.append(noisy)
                        fine_slices.append((slice(r0 + fr0, r0 + fr1), slice(c0 + fc0, c0 + fc1)))
                fine_values = np.array(fine_values)

                # Reconcile the coarse measurement with the fine measurements.
                fine_total = float(fine_values.sum())
                combined, _ = inverse_variance_combine(
                    np.array([coarse_count, fine_total]),
                    np.array([coarse_variance, fine_variance * len(fine_values)]),
                )
                if len(fine_values):
                    fine_values = fine_values + (combined - fine_total) / len(fine_values)
                for value, slices in zip(fine_values, fine_slices):
                    size = (slices[0].stop - slices[0].start) * (slices[1].stop - slices[1].start)
                    estimate[slices] = value / size
        return estimate


def _counts(shape, scale: float, integer: bool, rng: np.random.Generator) -> np.ndarray:
    """A skewed count array of total about ``scale``: multinomial counts, or
    non-integer gamma-scaled counts with the same expected total."""
    weights = rng.gamma(0.3, 1.0, size=int(np.prod(shape))) + 1e-3
    weights /= weights.sum()
    if integer:
        return rng.multinomial(int(scale), weights).astype(float).reshape(shape)
    return (rng.gamma(0.5, 2.0, size=weights.size) * weights * scale).reshape(shape)


def _assert_same_release(reference, candidate, x, epsilon, rng):
    twin = copy.deepcopy(rng)
    expected = reference.run(x, epsilon, rng=rng)
    released = candidate.run(x, epsilon, rng=twin)
    assert released.tobytes() == expected.tobytes()
    assert twin.bit_generator.state == rng.bit_generator.state


SF_CASES = [(1, None), (1, 1), (2, None), (2, 2), (3, None), (3, 3), (97, None), (97, 97),
            (1024, None)]


def _recording(scores_seen: list[bytes], mechanism=exponential_mechanism):
    """``exponential_mechanism`` that also records the bytes of its scores."""
    def record(scores, *args, **kwargs):
        scores_seen.append(np.asarray(scores).tobytes())
        return mechanism(scores, *args, **kwargs)
    return record


@pytest.mark.parametrize("integer", [True, False], ids=["int", "nonint"])
@pytest.mark.parametrize("epsilon", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n,buckets", SF_CASES)
def test_sf_matches_reference(n, buckets, epsilon, integer, rng, monkeypatch):
    """Same release and generator state, and every round's exponential
    mechanism sees bitwise-equal scores (a one-ulp score change rarely moves
    the chosen cut, so the release alone would not show it)."""
    x = _counts((n,), 1e4, integer, rng)
    expected_scores: list[bytes] = []
    scores: list[bytes] = []
    monkeypatch.setattr(sys.modules[__name__], "exponential_mechanism",
                        _recording(expected_scores))
    monkeypatch.setattr(repro.algorithms.sf, "exponential_mechanism", _recording(scores))
    _assert_same_release(ReferenceSF(buckets=buckets), StructureFirst(buckets=buckets),
                         x, epsilon, rng)
    assert scores == expected_scores


@pytest.mark.parametrize("integer", [True, False], ids=["int", "nonint"])
@pytest.mark.parametrize("scale", [1e2, 1e5, 1e8])
@pytest.mark.parametrize("epsilon", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shape", [(1, 64), (64, 1), (13, 64), (64, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_agrid_matches_reference(shape, epsilon, scale, integer, rng):
    x = _counts(shape, scale, integer, rng)
    _assert_same_release(ReferenceAGrid(), AGrid(), x, epsilon, rng)
