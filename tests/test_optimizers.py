import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnkbench import enumeration, optimizers
from mnkbench.enumeration import (
    ParetoSet,
    RankedPopulation,
    _coverage,
    enumerate_pareto,
    epsilon_success,
    nondominated_sort,
    pareto_mask,
)
from mnkbench.landscape import evaluate_batch, generate_instance
from mnkbench.optimizers import (
    RunParams,
    _associate,
    _normalize,
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
        # rates are finite reals
        dict(epsilon=float("nan")),
        dict(epsilon=True),
        dict(crossover_prob="0.8"),
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


def _toy_pareto(objectives):
    """A ParetoSet holding ``objectives``; its one-bit solutions play no part."""
    return ParetoSet(
        instance_id="toy",
        solutions=np.zeros((objectives.shape[0], 1), dtype=np.uint8),
        objectives=objectives,
    )


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
    pareto = _toy_pareto(exact)
    assert _witness_charge(pool, prev.shape[0], pareto, params, 0)[0] == expected


def test_witness_moves_to_an_uncovered_point(monkeypatch):
    full_checks = []

    def counted(candidates, points, epsilon):
        full_checks.append(points is exact)
        return _coverage(candidates, points, epsilon)

    # the precheck goes through epsilon_success, so only full passes land here
    monkeypatch.setattr(optimizers, "_coverage", counted)
    exact = _toy_pareto(np.array([[1.0, 0.0], [0.0, 1.0]]))
    params = _params(pop_size=1, pgm_size=1, t_max=1, epsilon=0.0)
    # the witness is uncovered: no success, and no full check
    assert _witness_charge(np.array([[0.5, 0.5]]), 0, exact, params, 0) == (None, 0)
    assert full_checks == []
    # the witness is covered but point 1 is not: the witness moves there
    assert _witness_charge(np.array([[1.0, 0.0]]), 0, exact, params, 0) == (None, 1)
    # the new witness is covered while point 0 is uncovered again
    assert _witness_charge(np.array([[0.0, 1.0]]), 0, exact, params, 1) == (None, 0)
    assert full_checks == [True, True]
    pool = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert _witness_charge(pool, 1, exact, params, 0) == (2, 0)
    assert full_checks == [True, True, True]


def test_success_makes_one_full_pass(monkeypatch):
    passes = []
    covering_blocks = enumeration._covering_blocks

    def counted(candidates, points, epsilon):
        # a pass over the exact set gets the ParetoSet, the precheck one row
        passes.append(points is exact)
        return covering_blocks(candidates, points, epsilon)

    monkeypatch.setattr(enumeration, "_covering_blocks", counted)
    exact = _toy_pareto(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    params = _params(pop_size=1, pgm_size=1, t_max=1, epsilon=0.0)
    pool = np.array([[0.0, 1.0], [0.5, 0.5], [0.2, 0.2], [1.0, 0.0], [1.0, 0.0]])
    assert _witness_charge(pool, 1, exact, params, 2) == (3, 2)
    assert passes == [False, True]


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
            # survival reads nothing past the split front, so ranking the
            # pool only that far keeps the same rows
            state = rng.bit_generator.state
            keep = survive(nondominated_sort(objs), rng)
            rng.bit_generator.state = state
            ranked = nondominated_sort(objs, top=pop_size)
            assert np.array_equal(survive(ranked, rng), keep)
            assert len(np.unique(keep)) == pop_size
            # keep holds every row ranked below the worst kept rank
            kept = RankedPopulation(ranked.objectives[keep], ranked.rank[keep])
            fresh = nondominated_sort(objs[keep])
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
    params = _params(seed=21, crossover_prob=0.8, mutation_prob=0.05)
    a = nsga3_run(inst, exact, params)
    b = nsga3_run(inst, exact, params)
    assert _result_fields(a) == _result_fields(b)


def test_nsga3_coverage_never_lost_without_variation():
    # both rates 0: no new genetic material; with the merged front always
    # fitting the population, elitism keeps every front member, so any
    # epsilon level once covered stays covered
    inst = generate_instance(31, 10, 2, 2)
    exact = enumerate_pareto(inst)
    snapshots = []
    result = nsga3_run(
        inst,
        exact,
        _params(
            pop_size=30,
            pgm_size=15,
            seed=3,
            t_max=330,
            epsilon=0.0,
            crossover_prob=0.0,
            mutation_prob=0.0,
        ),
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
    # frozen from a 100-seed pilot: P=20, eps=0.25, mutation 0.1 reaches the
    # required coverage within t_max = 2^10/10 = 102 evaluations
    inst = oracles.popcount_instance(10)
    exact = enumerate_pareto(inst)
    wins = 0
    for seed in range(100):
        params = RunParams(
            pop_size=20,
            pgm_size=10,
            sample_size=1,
            t_max=102,
            epsilon=0.25,
            seed=seed,
            crossover_prob=0.8,
            mutation_prob=0.1,
        )
        wins += nsga3_run(inst, exact, params).success
    assert wins >= 90


def test_nsga3_rejects_bad_rates():
    # the rates are range-checked once, by RunParams, naming the field
    for field in ("crossover_prob", "mutation_prob"):
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError, match=field):
                _params(**{field: rate})


def test_nsga3_rejects_rate_keywords_that_disagree_with_params():
    # pc= and pm= set nothing: only a value equal to the params' rate passes
    inst = generate_instance(3, 10, 2, 2)
    exact = enumerate_pareto(inst)
    params = _params(t_max=40, crossover_prob=0.8, mutation_prob=0.05)
    expected = _result_fields(nsga3_run(inst, exact, params))
    assert _result_fields(nsga3_run(inst, exact, params, pc=0.8, pm=0.05)) == expected
    for keywords in ({"pc": 0.9}, {"pm": 0.1}, {"pc": 0.8, "pm": 0.002}):
        with pytest.raises(ValueError, match="pc and pm"):
            nsga3_run(inst, exact, params, **keywords)


def test_nsga3_evaluation_accounting():
    inst = generate_instance(3, 10, 2, 6)
    exact = enumerate_pareto(inst)
    params = _params(t_max=95, epsilon=0.0, seed=2, mutation_prob=0.05)
    result = nsga3_run(inst, exact, params)
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


def _normalize_reference(objs_min):
    """``_normalize`` with the extreme rows found in one pass per axis."""
    m = objs_min.shape[1]
    translated = objs_min - objs_min.min(axis=0)
    weights = np.full((m, m), 1e-6) + np.eye(m)
    rows = [int(np.argmin((translated / weights[j]).max(axis=1))) for j in range(m)]
    intercepts = None
    try:
        beta = np.linalg.solve(translated[rows], np.ones(m))
        if np.all(beta > 0):
            candidate = 1.0 / beta
            if np.all(np.isfinite(candidate)) and np.all(candidate > 1e-10):
                intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    if intercepts is None:
        intercepts = translated.max(axis=0)
    return translated / np.where(intercepts > 1e-10, intercepts, 1.0)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_normalize_equals_the_per_axis_loop(m):
    # small integer objectives tie often, so argmin's first-index rule matters
    rng = np.random.default_rng(m)
    blocks = [rng.random((size, m)) for size in (1, m, 40, 200)]
    blocks += [rng.integers(0, 4, (size, m)).astype(float) for size in (m, 40, 200)]
    for block in blocks:
        assert _normalize(block).tobytes() == _normalize_reference(block).tobytes()


def _associate_reference(normalized, directions):
    """The three-temporary expression ``_associate`` replaced, and the
    squared distances it clipped."""
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj = normalized @ unit.T
    sq = (normalized**2).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.clip(sq, 0.0, None))
    assoc = np.argmin(dist, axis=1)
    return assoc, dist[np.arange(len(assoc)), assoc], sq


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_associate_equals_the_three_temporary_expression(m):
    rng = np.random.default_rng(m)
    directions = reference_directions(m, 100)
    picks = rng.integers(0, len(directions), 200)
    # members lying exactly on a direction, where rounding can make the
    # squared distance negative and the clip act
    on_direction = directions[picks] * (3.0 * rng.random((200, 1)))
    for normalized in [rng.random((size, m)) for size in (1, 17, 150)] + [on_direction]:
        assoc, dist, sq = _associate_reference(normalized, directions)
        got_assoc, got_dist = _associate(normalized, directions)
        assert np.array_equal(got_assoc, assoc)
        assert got_dist.dtype == dist.dtype and got_dist.tobytes() == dist.tobytes()
    assert (sq < 0).any()


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
