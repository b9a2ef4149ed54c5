import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnkbench import optimizers
from mnkbench.enumeration import (
    ParetoSet,
    _first_uncovered,
    _kept_ranking,
    enumerate_pareto,
    epsilon_success,
    nondominated_sort,
    pareto_mask,
)
from mnkbench.landscape import evaluate_batch, generate_instance
from mnkbench.optimizers import (
    RunParams,
    _normalize,
    _success_charge,
    _witness_charge,
    binary_tournament,
    mboa_run,
    nsga3_run,
    reference_directions,
)

import oracles


def _params(**overrides):
    base = dict(
        pop_size=20, pgm_size=10, sample_size=40, t_max=200, epsilon=0.1, seed=1
    )
    base.update(overrides)
    return RunParams(**base)


def _result_fields(result):
    return (
        result.success,
        result.evaluations,
        result.generations,
        result.front_bits.tobytes(),
        result.front_objectives.tobytes(),
    )


# --- parameters -----------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(pgm_size=21),
        dict(sample_size=0),
        dict(t_max=19),
        dict(epsilon=-0.1),
        dict(pop_size=0),
    ],
)
def test_params_invariants(overrides):
    with pytest.raises(ValueError):
        _params(**overrides)


# --- success charge -----------------------------------------------------------------


@st.composite
def coverage_cases(draw):
    """(prev, batch, exact, epsilon) on a coarse grid, so ties and
    duplicate rows are common."""
    m = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])

    def rows(low, high):
        count = draw(st.integers(low, high))
        return np.array(
            [[draw(value) for _ in range(m)] for _ in range(count)], dtype=np.float64
        ).reshape(count, m)

    return rows(0, 6), rows(1, 8), rows(0, 5), draw(st.sampled_from([0.0, 0.1, 0.5]))


def _brute_force_charge(prev, batch, exact, epsilon):
    """Smallest j >= 1 with prev + batch[:j] covering, by trying every j."""
    for j in range(1, batch.shape[0] + 1):
        if epsilon_success(np.vstack([prev, batch[:j]]), exact, epsilon):
            return j
    return None


@settings(max_examples=300, deadline=None)
@given(coverage_cases())
# empty prev with a duplicated covering row; prev covers one exact point
# and the batch's first row the other; nothing covers
@example(
    (
        np.empty((0, 2)),
        np.array([[0.5, 0.5], [1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 0.9]]),
        0.0,
    )
)
@example(
    (
        np.array([[1.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        0.0,
    )
)
@example((np.array([[0.5, 0.5]]), np.array([[0.25, 1.0]]), np.array([[1.0, 1.0]]), 0.1))
def test_success_charge_is_the_first_covering_prefix(case):
    prev, batch, exact, epsilon = case
    pool = np.vstack([prev, batch])
    expected = _brute_force_charge(prev, batch, exact, epsilon)
    params = _params(pop_size=1, pgm_size=1, t_max=1, epsilon=epsilon)
    assert _success_charge(pool, prev.shape[0], exact, params) == expected


def test_witness_moves_to_an_uncovered_point(monkeypatch):
    full_checks = []

    def counted(candidates, points, epsilon):
        # the precheck passes the witness row alone, a full check the exact set
        full_checks.append(points is exact)
        return _first_uncovered(candidates, points, epsilon)

    monkeypatch.setattr(optimizers, "_first_uncovered", counted)
    exact = ParetoSet(
        instance_id="toy",
        solutions=np.array([[0, 1], [1, 0]], dtype=np.uint8),
        objectives=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    params = _params(pop_size=1, pgm_size=1, t_max=1, epsilon=0.0)
    # the witness is uncovered: no success, and no full check
    assert _witness_charge(np.array([[0.5, 0.5]]), 0, exact, params, 0) == (None, 0)
    assert full_checks == [False]
    # the witness is covered but point 1 is not: the witness moves there
    assert _witness_charge(np.array([[1.0, 0.0]]), 0, exact, params, 0) == (None, 1)
    # the new witness is covered while point 0 is uncovered again
    assert _witness_charge(np.array([[0.0, 1.0]]), 0, exact, params, 1) == (None, 0)
    assert sum(full_checks) == 2
    pool = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert _witness_charge(pool, 1, exact, params, 0) == (2, 0)
    assert sum(full_checks) == 3


# --- binary tournament ------------------------------------------------------------


def test_tournament_prefers_better_front():
    objs = np.array([[0.9, 0.9], [0.1, 0.1]])
    solutions = np.array([[1], [0]], dtype=np.uint8)
    ranked = nondominated_sort(objs)
    rng = np.random.default_rng(0)
    picks = solutions[binary_tournament(ranked, 500, rng)]
    # whenever both members enter a tournament the rank-1 member must win;
    # the loser can only appear via (loser, loser) draws
    loser_share = (picks == 0).mean()
    assert loser_share < 0.5
    # exact check: replay the draws
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 2, size=(500, 2))
    expected_winner_is_loser = (pairs == 1).all(axis=1)
    assert np.array_equal(picks.ravel() == 0, expected_winner_is_loser)


def test_tournament_uniform_when_indistinguishable():
    objs = np.tile([[0.5, 0.5]], (8, 1))
    solutions = np.arange(8, dtype=np.uint8)[:, None]
    ranked = nondominated_sort(objs)
    picks = solutions[binary_tournament(ranked, 10_000, np.random.default_rng(7))].ravel()
    counts = np.bincount(picks, minlength=8)
    expected = 10_000 / 8
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 24.3  # chi-square(7 dof) at p=0.001


def test_tournament_count_zero():
    objs = np.array([[0.5, 0.5]])
    solutions = np.zeros((1, 3), dtype=np.uint8)
    ranked = nondominated_sort(objs)
    picks = solutions[binary_tournament(ranked, 0, np.random.default_rng(0))]
    assert picks.shape == (0, 3)


# --- one sort per generation -------------------------------------------------------


def _survival_rules(monkeypatch, m, pop_size):
    """The survive callbacks mboa_run and nsga3_run hand to _evolve."""
    rules = []
    monkeypatch.setattr(optimizers, "_evolve", lambda *args: rules.append(args[5]))
    instance = generate_instance(0, 4, m, 1)
    params = _params(pop_size=pop_size, pgm_size=1, t_max=pop_size)
    mboa_run(instance, None, params)
    nsga3_run(instance, None, params)
    return rules


@pytest.mark.parametrize("m", range(2, 9))
def test_survivors_ranking_equals_a_fresh_sort(monkeypatch, m):
    rng = np.random.default_rng(100 + m)
    for _ in range(12):
        pop_size = int(rng.integers(2, 40))
        # rounding forces tied coordinates and duplicate rows
        objs = np.round(rng.random((pop_size + int(rng.integers(1, 60)), m)), 1)
        for survive in _survival_rules(monkeypatch, m, pop_size):
            ranked = nondominated_sort(objs)
            keep = survive(ranked, rng)
            assert len(np.unique(keep)) == pop_size
            kept, fresh = _kept_ranking(ranked, keep), nondominated_sort(objs[keep])
            for field in ("objectives", "rank", "crowding"):
                assert getattr(kept, field).dtype == getattr(fresh, field).dtype
                assert np.array_equal(getattr(kept, field), getattr(fresh, field))


@pytest.mark.parametrize("run", [mboa_run, nsga3_run], ids=["mboa", "nsga3"])
def test_censored_run_sorts_once_per_generation(monkeypatch, run):
    sorted_rows = []

    def counted(objectives, *args, **kwargs):
        sorted_rows.append(len(objectives))
        return nondominated_sort(objectives, *args, **kwargs)

    monkeypatch.setattr(optimizers, "nondominated_sort", counted)
    inst = generate_instance(4, 10, 5, 2)
    params = _params(epsilon=0.0)
    result = run(inst, enumerate_pareto(inst), params)
    assert not result.success and result.generations >= 3
    # the initial population, then one merged pool per generation
    assert len(sorted_rows) == result.generations + 1
    assert sorted_rows[0] == params.pop_size
    assert all(rows > params.pop_size for rows in sorted_rows[1:])


# --- mboa --------------------------------------------------------------------------


def test_mboa_success_at_initialization_with_huge_epsilon():
    inst = oracles.popcount_instance(10, low=0.1)  # objectives always positive
    exact = enumerate_pareto(inst)
    result = mboa_run(inst, exact, _params(epsilon=1e6, t_max=1000))
    assert result.success
    assert result.generations == 0
    assert result.model is None
    # the very first positive solution covers
    assert result.evaluations == 1


def test_mboa_budget_exhaustion_at_initial_population():
    inst = oracles.popcount_instance(10)
    exact = enumerate_pareto(inst)
    result = mboa_run(inst, exact, _params(t_max=20, epsilon=0.01, seed=5))
    assert not result.success
    assert result.evaluations == 20  # = t_max
    assert result.generations == 0


def test_mboa_is_deterministic():
    inst = generate_instance(3, 10, 2, 2)
    exact = enumerate_pareto(inst)
    params = _params(seed=11)
    assert _result_fields(mboa_run(inst, exact, params)) == _result_fields(
        mboa_run(inst, exact, params)
    )


def test_mboa_evaluation_accounting_and_final_budget():
    inst = generate_instance(3, 10, 2, 6)
    exact = enumerate_pareto(inst)
    params = _params(t_max=213, epsilon=0.0, seed=2)  # epsilon 0: nearly sure failure
    seen = []
    result = mboa_run(inst, exact, params, on_generation=lambda g, b, o: seen.append(g))
    # 4 full batches of 40 fit after the initial 20; the fifth is cut to 33
    assert result.generations == 5
    assert seen == [1, 2, 3, 4, 5]
    assert not result.success
    assert result.evaluations == 213


def test_mboa_sampled_solutions_are_valid():
    inst = generate_instance(13, 12, 2, 3)
    exact = enumerate_pareto(inst)
    pops = []
    mboa_run(
        inst,
        exact,
        _params(seed=3, t_max=300, epsilon=0.0),
        on_generation=lambda g, bits, objs: pops.append((bits.copy(), objs.copy())),
    )
    for bits, objs in pops:
        assert bits.shape == (20, 12)
        assert set(np.unique(bits)) <= {0, 1}
        assert np.all(objs >= 0.0) and np.all(objs <= 1.0)
        assert np.array_equal(objs, evaluate_batch(inst, bits))


def test_mboa_front_members_survive_or_are_covered():
    inst = generate_instance(23, 10, 2, 2)
    exact = enumerate_pareto(inst)
    snapshots = []
    mboa_run(
        inst,
        exact,
        _params(seed=9, t_max=500, epsilon=0.0),
        on_generation=lambda g, bits, objs: snapshots.append(objs.copy()),
    )
    for before, after in zip(snapshots, snapshots[1:]):
        front = before[pareto_mask(before)]
        if len(front) > len(after):
            continue  # survival only promised while the front fits the population
        for point in front:
            covered = np.any(
                ((after >= point).all(axis=1))  # survives or is dominated-or-tied
            )
            assert covered


def test_mboa_failed_run_keeps_last_model():
    inst = generate_instance(3, 10, 2, 6)
    exact = enumerate_pareto(inst)
    result = mboa_run(inst, exact, _params(t_max=100, epsilon=0.0, seed=4))
    assert not result.success
    assert result.generations == 2
    assert result.model is not None
    structure, cpts = result.model
    assert structure.n_vars == 10
    assert len(cpts.tables) == 10


def test_mboa_front_is_mutually_nondominated():
    inst = generate_instance(3, 10, 2, 2)
    exact = enumerate_pareto(inst)
    result = mboa_run(inst, exact, _params(seed=8, t_max=500))
    front = result.front_objectives
    mask = oracles.pairwise_pareto_mask(front)
    assert mask.all()


def test_mboa_rejects_foreign_pareto_set():
    inst = generate_instance(3, 10, 2, 2)
    other = enumerate_pareto(generate_instance(4, 10, 2, 2))
    with pytest.raises(ValueError, match="belongs to"):
        mboa_run(inst, other, _params())


# --- nsga3 -------------------------------------------------------------------------


def test_nsga3_is_deterministic():
    inst = generate_instance(3, 10, 3, 2)
    exact = enumerate_pareto(inst)
    params = _params(seed=21)
    a = nsga3_run(inst, exact, params, pc=0.8, pm=0.05)
    b = nsga3_run(inst, exact, params, pc=0.8, pm=0.05)
    assert _result_fields(a) == _result_fields(b)


def test_nsga3_coverage_never_lost_without_variation():
    # pc = pm = 0: no new genetic material; with the merged front always
    # fitting the population, elitism keeps every front member, so any
    # epsilon level once covered stays covered
    inst = generate_instance(31, 10, 2, 2)
    exact = enumerate_pareto(inst)
    snapshots = []
    result = nsga3_run(
        inst,
        exact,
        _params(pop_size=30, pgm_size=15, seed=3, t_max=330, epsilon=0.0),
        pc=0.0,
        pm=0.0,
        on_generation=lambda g, bits, objs: snapshots.append(objs.copy()),
    )
    assert not result.success
    assert len(snapshots) >= 5
    for eps in (0.02, 0.05, 0.1, 0.2):
        states = [
            epsilon_success(objs[pareto_mask(objs)], exact, eps) for objs in snapshots
        ]
        assert states == sorted(states)


def test_nsga3_succeeds_on_popcount_hill():
    # frozen from a 100-seed pilot: P=20, eps=0.25, pm=0.1 reaches the
    # required coverage within t_max = 2^10/10 = 102 evaluations
    inst = oracles.popcount_instance(10)
    exact = enumerate_pareto(inst)
    wins = 0
    for seed in range(100):
        params = RunParams(
            pop_size=20, pgm_size=10, sample_size=1, t_max=102, epsilon=0.25, seed=seed
        )
        wins += nsga3_run(inst, exact, params, pc=0.8, pm=0.1).success
    assert wins >= 90


def test_nsga3_rejects_bad_rates():
    inst = generate_instance(3, 10, 2, 2)
    exact = enumerate_pareto(inst)
    with pytest.raises(ValueError):
        nsga3_run(inst, exact, _params(), pc=1.5, pm=0.1)


def test_nsga3_evaluation_accounting():
    inst = generate_instance(3, 10, 2, 6)
    exact = enumerate_pareto(inst)
    result = nsga3_run(inst, exact, _params(t_max=95, epsilon=0.0, seed=2), pm=0.05)
    # three full offspring batches of 20, then a final batch cut to 15
    assert result.generations == 4
    assert not result.success
    assert result.evaluations == 95


def test_normalize_falls_back_without_warning_on_zero_beta():
    # the extreme points (2,0,0), (2,2,0), (1,1,2) give beta = (0.5, 0, 0.25),
    # which has no intercept, so the per-objective spread is used
    block = np.array([[2.0, 2.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 2.0], [2.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalized = _normalize(block)
    assert np.array_equal(normalized, block / 2.0)


# --- reference directions ------------------------------------------------------------


@pytest.mark.parametrize(
    "m,count",
    [(2, 100), (3, 91), (5, 210), (8, 156)],
)
def test_reference_direction_counts(m, count):
    dirs = reference_directions(m, 100)
    assert dirs.shape == (count, m)
    assert np.allclose(dirs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(dirs >= 0.0)


def test_reference_direction_fallback():
    dirs = reference_directions(4, 100)
    assert dirs.shape[0] >= 100
    assert np.allclose(dirs.sum(axis=1), 1.0, atol=1e-12)
