"""Tests for the Algorithm base class contract, applied to every registered algorithm."""

import numpy as np
import pytest

from repro import ALGORITHM_REGISTRY, algorithm_names, make_algorithm
from repro.algorithms.base import validate_input
from repro.workload import prefix_workload, random_range_workload

ALL_NAMES = algorithm_names(None, include_extras=True)
NAMES_1D = algorithm_names(1, include_extras=True)
NAMES_2D = algorithm_names(2, include_extras=True)


@pytest.fixture(scope="module")
def data_1d():
    rng = np.random.default_rng(7)
    x = rng.multinomial(3000, np.ones(64) / 64).astype(float)
    return x, prefix_workload(64)


@pytest.fixture(scope="module")
def data_2d():
    rng = np.random.default_rng(8)
    x = rng.multinomial(3000, np.ones(64) / 64).astype(float).reshape(8, 8)
    return x, random_range_workload((8, 8), 50, rng=rng)


class TestValidateInput:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([1.0, -1.0]), 1.0, (1,))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([1.0, np.nan]), 1.0, (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([]), 1.0, (1,))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.zeros((2, 2)), 1.0, (1,))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.zeros(4), 0.0, (1,))

    def test_returns_copy(self):
        x = np.ones(4)
        out = validate_input(x, 1.0, (1,))
        out[0] = 99
        assert x[0] == 1


BAD_EPSILONS = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1]
CASES = [(name, 1) for name in NAMES_1D] + [(name, 2) for name in NAMES_2D]


class TestEpsilonBoundary:
    """A budget that is not finite and positive is rejected at every public
    boundary with a ``ValueError``, before any noise is drawn.  NaN used to
    pass ``epsilon <= 0`` and release garbage; infinity releases the exact
    data (the mechanism primitives keep that documented limit)."""

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=repr)
    @pytest.mark.parametrize("name,ndim", CASES)
    def test_algorithm_rejects_before_drawing(self, name, ndim, epsilon,
                                              data_1d, data_2d):
        x, workload = data_1d if ndim == 1 else data_2d
        algorithm = make_algorithm(name)
        # An rng that cannot draw: as_rng rejects it with a TypeError, so a
        # ValueError proves the check ran before any generator existed.
        no_rng = object()
        with pytest.raises(ValueError, match="finite and positive"):
            algorithm.run(x, epsilon, workload, no_rng)
        if hasattr(algorithm, "plan_and_measure"):
            with pytest.raises(ValueError, match="finite and positive"):
                algorithm.plan_and_measure(x, epsilon, no_rng, workload)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=repr)
    def test_budget_and_service_reject(self, epsilon):
        from repro.algorithms.mechanisms import PrivacyBudget
        from repro.serve import ReleaseService

        with pytest.raises(ValueError, match="finite and positive"):
            PrivacyBudget(epsilon)
        budget = PrivacyBudget(1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            budget.spend(epsilon)
        assert budget.spent == 0.0 and budget.log == []
        with pytest.raises(ValueError, match="finite and positive"):
            ReleaseService("Identity", epsilon)


BAD_PARAMS = [
    ("AGrid", "c", 0), ("AGrid", "c", -1.0), ("AGrid", "c", np.nan), ("AGrid", "c", np.inf),
    ("AGrid", "c2", 0), ("AGrid", "c2", -5.0), ("AGrid", "c2", np.inf),
    ("AGrid", "rho", 0.0), ("AGrid", "rho", 1.0), ("AGrid", "rho", np.nan),
    ("UGrid", "c", 0), ("UGrid", "c", -3.0), ("UGrid", "c", np.nan), ("UGrid", "c", -np.inf),
    ("SF", "rho", 0.0), ("SF", "rho", 1.0), ("SF", "rho", 1.5), ("SF", "rho", None),
    ("SF", "buckets", 0), ("SF", "buckets", -3), ("SF", "buckets", True),
    ("SF", "buckets", 2.5), ("SF", "buckets", "4"),
    ("H", "branching", 2.7), ("H", "branching", 1), ("H", "branching", True),
    ("GreedyH", "branching", 0), ("GreedyH", "branching", 2.5),
    ("DAWA", "branching", 1), ("DAWA", "branching", "2"),
    ("QuadTree", "max_height", -1), ("QuadTree", "max_height", 0),
    ("QuadTree", "max_height", 2.5), ("QuadTree", "max_height", None),
    ("HybridTree", "kd_levels", -1), ("HybridTree", "kd_levels", 1.5),
    ("HybridTree", "max_height", 0), ("HybridTree", "max_height", -2),
    ("HybridTree", "rho", 0), ("HybridTree", "rho", 1.5), ("HybridTree", "rho", np.nan),
    ("GreedyW", "branchings", (2.5,)), ("GreedyW", "branchings", ()),
    ("GreedyW", "branchings", (2, 1)), ("GreedyW", "branchings", 4),
    ("GreedyW", "branchings", (True,)),
    ("MWEM", "rounds", 0), ("MWEM", "rounds", -5), ("MWEM", "rounds", 2.5),
    ("MWEM", "rounds", None),
    ("MWEM*", "rounds", 0), ("MWEM*", "rounds", 2.5), ("MWEM*", "rounds", "3"),
    ("SF", "count_bound", -0.4), ("SF", "count_bound", 0), ("SF", "count_bound", np.inf),
    ("SF", "count_bound", np.nan),
    ("AHP", "eta", -1), ("AHP", "eta", np.inf), ("AHP", "eta", np.nan),
    ("AHP", "rho", 0.0), ("AHP", "rho", 1.0), ("AHP*", "eta", -0.5),
    ("PHP", "rho", 0.0), ("PHP", "rho", 1.0), ("PHP", "rho", np.nan),
    ("DAWA", "rho", 0), ("DAWA", "rho", 1.0), ("DAWA", "rho", -0.25),
    ("DPCube", "rho", 0.0), ("DPCube", "rho", 1.0), ("DPCube", "rho", 2),
]


class TestFreeParameterBoundary:
    """Every algorithm with free parameters rejects unusable values with a ``ValueError`` before any noise is drawn.  Zero
    ``c``/``c2`` used to raise ``ZeroDivisionError`` mid-release, a negative
    ``c`` silently collapsed UGrid to one block, SF replaced a falsy
    ``buckets`` by its default and truncated a fractional one, H released a
    fractional ``branching`` truncated, QuadTree released a root-only tree
    for a non-positive ``max_height``, HybridTree drew noise for a
    negative ``kd_levels``, GreedyW built binary trees for fractional
    ``branchings``, MWEM ran a non-positive or fractional ``rounds`` as a
    clamped or truncated count, SF understated its score sensitivity for a
    negative ``count_bound``, AHP ran a negative ``eta``, and PHP, DAWA and
    DPCube rejected a bad ``rho`` only inside selection."""

    @pytest.mark.parametrize("name,param,value", BAD_PARAMS, ids=repr)
    def test_rejects_before_drawing(self, name, param, value, data_1d, data_2d):
        algorithm = make_algorithm(name, **{param: value})
        x, workload = data_1d if 1 in algorithm.properties.supported_dims else data_2d
        # An rng that cannot draw: as_rng would reject it with a TypeError.
        no_rng = object()
        with pytest.raises(ValueError, match=param):
            algorithm.run(x, 1.0, workload, no_rng)
        if hasattr(algorithm, "plan_and_measure"):
            with pytest.raises(ValueError, match=param):
                algorithm.plan_and_measure(x, 1.0, no_rng, workload)

    def test_side_information_repair_checks_inner_first(self, data_2d):
        from repro import SideInformationRepair

        x, workload = data_2d
        with pytest.raises(ValueError, match="c2"):
            SideInformationRepair(make_algorithm("AGrid", c2=0)).run(x, 1.0, workload, object())

    @pytest.mark.parametrize("name,params", [
        ("AGrid", {"c": 1e-3, "c2": 1e3, "rho": 0.999}),
        ("UGrid", {"c": np.float64(1e6)}),
        ("SF", {"buckets": np.int64(5), "rho": 1e-3}),
        ("SF", {"buckets": 10_000}),
        ("H", {"branching": np.int64(3)}),
        ("GreedyH", {"branching": 2}),
        ("DAWA", {"branching": 16}),
        ("QuadTree", {"max_height": 1}),
        ("HybridTree", {"kd_levels": 0, "max_height": 1, "rho": 0.999}),
        ("HybridTree", {"kd_levels": np.int64(5), "rho": 1e-3}),
        ("GreedyW", {"branchings": [np.int64(2)]}),
        ("GreedyW", {"branchings": (16, 3)}),
        ("MWEM", {"rounds": 1}),
        ("MWEM*", {"rounds": np.int64(1)}),
        ("MWEM*", {"rounds": None}),
        ("SF", {"count_bound": 1e-9}),
        ("SF", {"count_bound": np.float64(1e6)}),
        ("AHP", {"eta": 0, "rho": 1e-3}),
        ("AHP*", {"eta": np.float64(10.0), "rho": 0.999}),
        ("PHP", {"rho": 1e-3}),
        ("DAWA", {"rho": 0.999}),
        ("DPCube", {"rho": 1e-3}),
    ], ids=repr)
    def test_accepts_boundary_values(self, name, params, data_1d, data_2d, rng):
        algorithm = make_algorithm(name, **params)
        x, workload = data_1d if 1 in algorithm.properties.supported_dims else data_2d
        estimate = algorithm.run(x, 1.0, workload, rng)
        assert estimate.shape == x.shape and np.isfinite(estimate).all()


class TestRegistryMetadata:
    def test_every_algorithm_has_properties(self):
        for name, cls in ALGORITHM_REGISTRY.items():
            assert cls.properties.name == name
            assert cls.properties.supported_dims

    def test_unknown_parameter_override_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm("MWEM", nonsense=3)

    def test_parameter_override_applied(self):
        algorithm = make_algorithm("MWEM", rounds=5)
        assert algorithm.params["rounds"] == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_algorithm("NotAnAlgorithm")

    def test_table1_contains_both_classes(self):
        from repro import table1_rows
        rows = {row["algorithm"]: row for row in table1_rows()}
        assert rows["Identity"]["data_dependent"] is False
        assert rows["DAWA"]["data_dependent"] is True
        assert rows["MWEM"]["consistent"] is False
        assert rows["SF"]["scale_epsilon_exchangeable"] is False


class TestAlgorithmContract1D:
    @pytest.mark.parametrize("name", NAMES_1D)
    def test_output_shape_and_finiteness(self, name, data_1d):
        x, workload = data_1d
        estimate = make_algorithm(name).run(x, 0.5, workload=workload, rng=0)
        assert estimate.shape == x.shape
        assert np.all(np.isfinite(estimate))

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_deterministic_given_seed(self, name, data_1d):
        x, workload = data_1d
        first = make_algorithm(name).run(x, 0.5, workload=workload, rng=42)
        second = make_algorithm(name).run(x, 0.5, workload=workload, rng=42)
        assert np.allclose(first, second)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_input_not_mutated(self, name, data_1d):
        x, workload = data_1d
        original = x.copy()
        make_algorithm(name).run(x, 0.5, workload=workload, rng=1)
        assert np.array_equal(x, original)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_rejects_non_positive_epsilon(self, name, data_1d):
        x, workload = data_1d
        with pytest.raises(ValueError):
            make_algorithm(name).run(x, 0.0, workload=workload, rng=0)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_workload_optional(self, name, data_1d):
        x, _ = data_1d
        estimate = make_algorithm(name).run(x, 0.5, rng=0)
        assert estimate.shape == x.shape


class TestAlgorithmContract2D:
    @pytest.mark.parametrize("name", NAMES_2D)
    def test_output_shape_and_finiteness(self, name, data_2d):
        x, workload = data_2d
        estimate = make_algorithm(name).run(x, 0.5, workload=workload, rng=0)
        assert estimate.shape == x.shape
        assert np.all(np.isfinite(estimate))

    @pytest.mark.parametrize("name", NAMES_2D)
    def test_deterministic_given_seed(self, name, data_2d):
        x, workload = data_2d
        first = make_algorithm(name).run(x, 0.5, workload=workload, rng=11)
        second = make_algorithm(name).run(x, 0.5, workload=workload, rng=11)
        assert np.allclose(first, second)

    @pytest.mark.parametrize("name", sorted(set(NAMES_2D) - set(NAMES_1D)))
    def test_2d_only_algorithms_reject_1d(self, name):
        with pytest.raises(ValueError):
            make_algorithm(name).run(np.ones(16), 0.5, rng=0)

    @pytest.mark.parametrize("name", sorted(set(NAMES_1D) - set(NAMES_2D)))
    def test_1d_only_algorithms_reject_2d(self, name):
        with pytest.raises(ValueError):
            make_algorithm(name).run(np.ones((4, 4)), 0.5, rng=0)
