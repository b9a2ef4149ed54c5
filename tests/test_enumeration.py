import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnkbench import enumeration
from mnkbench.enumeration import (
    EnumerationCapError,
    ParetoSet,
    enumerate_pareto,
    epsilon_success,
    load_pareto_json,
    nondominated_sort,
    pareto_mask,
    save_pareto_csv,
    save_pareto_json,
)
from mnkbench.landscape import evaluate_batch, generate_instance

import oracles


popcount_instance = oracles.popcount_instance


# --- enumerate_pareto -----------------------------------------------------------


def test_single_optimum_instance():
    inst = popcount_instance(8)
    pareto = enumerate_pareto(inst)
    assert pareto.size == 1
    assert np.array_equal(pareto.solutions[0], np.ones(8, dtype=np.uint8))


def _assert_matches_pairwise_oracle(inst, pareto=None):
    if pareto is None:
        pareto = enumerate_pareto(inst)
    n = inst.n_vars
    codes = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    objs = evaluate_batch(inst, bits)
    mask = oracles.pairwise_pareto_mask(objs)
    assert np.array_equal(pareto.solutions, bits[mask])
    assert np.array_equal(pareto.objectives, objs[mask])


def test_matches_pairwise_oracle():
    _assert_matches_pairwise_oracle(generate_instance(3, 10, 2, 2))


@pytest.mark.parametrize("m", [2, 3])
def test_many_chunks_match_pairwise_oracle(monkeypatch, m):
    # 64-solution chunks make N=10 run sixteen of them
    monkeypatch.setattr(enumeration, "_CHUNK", 64)
    _assert_matches_pairwise_oracle(generate_instance(5, 10, m, 3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumeration_agrees_with_evaluate_batch_and_pairwise_oracle(data):
    # the runs' evaluator and the exact front must agree byte for byte,
    # because the epsilon-success check compares the two; chunks of any
    # size from 16 codes, not only powers of two, must tile the space.  The
    # quadratic oracle takes 1 s at N=12 and 16 s at N=14, so it checks the
    # set up to N=11; the behaviour lock holds larger N to the parent's bytes
    n = data.draw(st.integers(1, 14), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.integers(0, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    chunk = data.draw(st.one_of(st.none(), st.integers(16, 4096)), label="chunk")
    inst = generate_instance(seed, n, m, k)
    with mock.patch.object(enumeration, "_CHUNK", chunk or enumeration._CHUNK):
        pareto = enumerate_pareto(inst)
    assert pareto.objectives.tobytes() == evaluate_batch(inst, pareto.solutions).tobytes()
    if n <= 11:
        _assert_matches_pairwise_oracle(inst, pareto)


def test_cap_exceeded():
    inst = generate_instance(1, 25, 2, 1)
    with pytest.raises(EnumerationCapError):
        enumerate_pareto(inst)


def test_enumeration_order_independent():
    # the Pareto set must not depend on the order chunks arrive in; permuting
    # the full objective matrix and filtering must give the same set
    inst = generate_instance(9, 9, 3, 2)
    pareto = enumerate_pareto(inst)
    codes = np.arange(1 << 9, dtype=np.uint32)
    shifts = np.arange(8, -1, -1, dtype=np.uint32)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    objs = evaluate_batch(inst, bits)
    perm = np.random.default_rng(4).permutation(len(objs))
    mask = pareto_mask(objs[perm])
    picked = np.sort(perm[mask])
    assert np.array_equal(pareto.solutions, bits[picked])


def test_duplicate_objective_vectors_are_retained():
    objs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.4, 0.4]])
    mask = pareto_mask(objs)
    assert mask.tolist() == [True, True, True, True, False]


@st.composite
def _objective_rows(draw, m):
    """Up to 300 one-decimal objective rows, some repeated, in a drawn
    order: enough to cross both screen sizes of ``pareto_mask`` and the
    block size of its peel.  One-decimal coordinates tie many sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 11, size=(draw(st.integers(1, 260)), m)) / 10
    repeats = base[rng.integers(0, len(base), size=draw(st.integers(0, 40)))]
    return rng.permutation(np.vstack([base, repeats]))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pareto_mask_matches_pairwise_oracle(m, data):
    objs = data.draw(_objective_rows(m))
    assert np.array_equal(pareto_mask(objs), oracles.pairwise_pareto_mask(objs))


# --- nondominated_sort -----------------------------------------------------------


def test_single_front_extremes_get_infinite_crowding():
    objs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    ranked = nondominated_sort(objs)
    assert ranked.rank.tolist() == [1, 1, 1]
    assert np.isinf(ranked.crowding[0])
    assert np.isinf(ranked.crowding[2])
    assert np.isfinite(ranked.crowding[1])


def test_dominance_chain_gives_three_fronts():
    objs = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
    ranked = nondominated_sort(objs)
    assert ranked.rank.tolist() == [1, 2, 3]
    assert np.isinf(ranked.crowding).all()  # singleton fronts


@pytest.mark.parametrize(
    "m, decimals",
    [(2, None), (3, None), (5, None), (8, None), (3, 1)],
    ids=["m2", "m3", "m5", "m8", "m3-rounded"],
)
def test_front_assignment_matches_peeling_oracle(m, decimals):
    objs = np.random.default_rng(42).random((1000, m))
    if decimals is not None:
        # duplicate rows and tied coordinates, where weak and strict
        # dominance differ
        objs = np.round(objs, decimals)
        assert len(np.unique(objs, axis=0)) < len(objs)
    ranked = nondominated_sort(objs)
    assert np.array_equal(ranked.rank, oracles.peel_fronts(objs))


@pytest.mark.parametrize("decimals", [None, 1], ids=["float", "one-decimal"])
@pytest.mark.parametrize("n", [1, 2, 127, 129, 300, 1100])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_ranks_up_to_the_split_front_match_peeling_oracle(m, n, decimals):
    objs = np.random.default_rng([m, n]).random((n, m))
    if decimals is not None:
        # duplicate rows and tied sums
        objs = np.round(objs, decimals)
    expected = oracles.peel_fronts(objs)
    for top in sorted({1, max(1, n // 2), n}):
        ranked = nondominated_sort(objs, top=top)
        # the first front whose cumulative size reaches top, then one rank
        # shared by every row past it
        sizes = np.cumsum(np.bincount(expected)[1:])
        split = int(np.searchsorted(sizes, top)) + 1
        assert np.array_equal(ranked.rank, np.minimum(expected, split + 1))
        assert np.count_nonzero(ranked.rank <= split) >= top


def test_equal_float_sums_share_a_block():
    # 1e16 + 1.0 rounds to 1e16, so the dominating row has the same float
    # sum as the row it dominates; the stable sum order puts the dominated
    # row last in the first 128 and its dominator first past them
    fillers = np.column_stack([-1.0 - np.arange(127), np.full(127, 3e16)])
    dominated, dominator = [1e16, 0.0], [1e16, 1.0]
    objs = np.vstack([fillers, [dominated, dominator]])
    assert objs[-1].sum() == objs[-2].sum()
    ranked = nondominated_sort(objs)
    assert ranked.rank[-1] == 1 and ranked.rank[-2] == 2
    assert np.array_equal(ranked.rank, oracles.peel_fronts(objs))
    # duplicates across row 128 of the sum order are mutually non-dominating
    objs = np.vstack([fillers, [[1e16, 0.5], [1e16, 0.5]]])
    assert nondominated_sort(objs).rank[-2:].tolist() == [1, 1]


def test_sort_rejects_a_top_below_one():
    with pytest.raises(ValueError, match="top"):
        nondominated_sort(np.zeros((3, 2)), top=0)


def test_front_one_equals_pairwise_subset():
    rng = np.random.default_rng(17)
    for _ in range(10):
        objs = rng.random((rng.integers(2, 80), rng.integers(2, 5)))
        ranked = nondominated_sort(objs)
        assert np.array_equal(ranked.rank == 1, oracles.pairwise_pareto_mask(objs))


def test_front_invariants():
    rng = np.random.default_rng(3)
    objs = np.round(rng.random((120, 2)), 2)  # rounding forces duplicates
    ranked = nondominated_sort(objs)
    for front_index in range(1, int(ranked.rank.max()) + 1):
        front = np.flatnonzero(ranked.rank == front_index)
        for i in front:
            for j in front:
                assert not oracles.dominates_oracle(objs[i], objs[j])
        if front_index > 1:
            upper = np.flatnonzero(ranked.rank == front_index - 1)
            for j in front:
                assert any(oracles.dominates_oracle(objs[i], objs[j]) for i in upper)


def test_crowding_zero_range_objective_contributes_nothing():
    objs = np.array(
        [
            [0.5, 0.1, 0.9],
            [0.5, 0.5, 0.5],
            [0.5, 0.9, 0.1],
            [0.5, 0.2, 0.8],
        ]
    )
    ranked = nondominated_sort(objs)
    assert ranked.rank.tolist() == [1, 1, 1, 1]
    # first objective is flat and contributes nothing; the other two mark
    # rows 0 and 2 as extremes
    finite = np.isfinite(ranked.crowding)
    assert finite.tolist() == [False, True, False, True]


def test_sort_rejects_empty_population():
    with pytest.raises(ValueError):
        nondominated_sort(np.empty((0, 2)))


# --- epsilon_success -------------------------------------------------------------


def _pareto_of(instance):
    return enumerate_pareto(instance)


def test_self_coverage_at_zero_epsilon():
    inst = generate_instance(3, 8, 2, 2)
    pareto = _pareto_of(inst)
    assert epsilon_success(pareto.objectives, pareto, 0.0)


def test_uncovered_extreme_point():
    exact = ParetoSet(
        instance_id="toy",
        solutions=np.array([[0, 1], [1, 0]], dtype=np.uint8),
        objectives=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert not epsilon_success(np.array([[0.95, 0.0]]), exact, 0.1)


def test_matches_full_space_oracle():
    rng = np.random.default_rng(5)
    for trial in range(6):
        inst = generate_instance(100 + trial, 10, 2, 3)
        pareto = _pareto_of(inst)
        candidates = evaluate_batch(
            inst, rng.integers(0, 2, size=(50, 10), dtype=np.uint8)
        )
        for eps in (0.05, 0.1, 0.3):
            expected = oracles.epsilon_success_fullspace(inst, candidates, eps)
            assert epsilon_success(candidates, pareto, eps) == expected


def test_monotone_in_epsilon():
    inst = generate_instance(21, 9, 2, 2)
    pareto = _pareto_of(inst)
    rng = np.random.default_rng(0)
    candidates = evaluate_batch(inst, rng.integers(0, 2, size=(30, 9), dtype=np.uint8))
    results = [epsilon_success(candidates, pareto, eps) for eps in np.linspace(0, 1, 21)]
    assert results == sorted(results)  # False..False True..True


def test_empty_candidate_set_fails():
    inst = popcount_instance(4)
    pareto = _pareto_of(inst)
    assert not epsilon_success(np.empty((0, 2)), pareto, 10.0)


def _coverage_case(m, pool, exact_from, seed=0):
    """(candidates, exact) on one-decimal coordinates with duplicated rows,
    exact points equal to candidates, and, at 1,000 candidates, an exact
    set spanning three coverage blocks."""
    rng = np.random.default_rng(seed)
    cand = np.round(10.0 * rng.random((pool, m)), 1)
    cand[pool // 2 :] = cand[: pool - pool // 2]
    n_exact = 2 * ((1 << 22) // cand.size) + 7 if pool >= 1000 else 9
    if exact_from == "candidates":
        exact = cand[rng.integers(0, pool, n_exact)]
    else:
        exact = np.round(10.0 * rng.random((n_exact, m)), 1)
        exact[: pool // 5] = cand[: pool // 5]
    return cand, exact


COVERAGE_CASES = pytest.mark.parametrize(
    "m, pool, exact_from, epsilon",
    [
        (m, pool, exact_from, epsilon)
        for m in (2, 3, 5, 8)
        for pool in (7, 1000)
        for exact_from in ("random", "candidates")
        for epsilon in (0.0, 0.1)
    ],
)


@COVERAGE_CASES
def test_covering_blocks_match_oracle(m, pool, exact_from, epsilon):
    cand, exact = _coverage_case(m, pool, exact_from)
    blocks = list(enumeration._covering_blocks(cand, exact, epsilon))
    if pool >= 1000:
        assert len(blocks) == 3
    expected = oracles.covering_matrix(cand, exact, epsilon)
    assert np.array_equal(np.vstack(blocks), expected)


@COVERAGE_CASES
def test_first_uncovered_matches_oracle(m, pool, exact_from, epsilon):
    cand, exact = _coverage_case(m, pool, exact_from)
    covered = oracles.covering_matrix(cand, exact, epsilon)
    hit = covered.any(axis=1)
    if hit.all():
        # each exact point's first covering candidate; the prefix must reach the latest
        expected = (None, 1 + max(int(np.flatnonzero(row)[0]) for row in covered))
    else:
        expected = (int(np.argmin(hit)), 0)
    assert enumeration._coverage(cand, exact, epsilon) == expected
    assert epsilon_success(cand, exact, epsilon) == (expected[0] is None)


def test_first_uncovered_indexes_later_blocks_globally():
    cand = np.ones((1000, 2))
    step = (1 << 22) // cand.size
    exact = np.zeros((step + 10, 2))
    exact[step + 3] = 2.0
    assert len(list(enumeration._covering_blocks(cand, exact, 0.0))) == 2
    assert enumeration._coverage(cand, exact, 0.0)[0] == step + 3


# --- persistence -----------------------------------------------------------------


def test_pareto_json_round_trip(tmp_path):
    inst = generate_instance(3, 8, 3, 2)
    pareto = enumerate_pareto(inst)
    path = tmp_path / "pareto.json"
    save_pareto_json(pareto, path)
    assert load_pareto_json(path) == pareto


def test_pareto_csv_columns(tmp_path):
    inst = generate_instance(3, 6, 2, 1)
    pareto = enumerate_pareto(inst)
    path = tmp_path / "pareto.csv"
    save_pareto_csv(pareto, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bitstring,z_1,z_2"
    assert len(lines) == pareto.size + 1
    first = lines[1].split(",")
    assert set(first[0]) <= {"0", "1"} and len(first[0]) == 6
    assert float(first[1]) == pareto.objectives[0, 0]


def _break_doc(doc, how):
    if how == "version":
        doc["format_version"] = 2
    elif how == "row-count":
        doc["objectives"].pop()
    elif how == "row-width":
        doc["objectives"][1].append(0.5)
    elif how == "bitstring-length":
        doc["solutions"][2] += "0"
    elif how == "order":
        doc["solutions"][0], doc["solutions"][1] = doc["solutions"][1], doc["solutions"][0]
        doc["objectives"][0], doc["objectives"][1] = doc["objectives"][1], doc["objectives"][0]
    elif how == "duplicate":
        doc["solutions"][1] = doc["solutions"][0]
        doc["objectives"][1] = doc["objectives"][0]
    elif how == "missing-field":
        del doc["n"]
    elif how == "bad-character":
        doc["solutions"][1] = doc["solutions"][1][:-1] + "x"
    elif how == "solutions-not-list":
        doc["solutions"] = 5
    elif how == "objectives-not-list":
        doc["objectives"] = 5
    elif how == "objective-not-number":
        doc["objectives"][1][1] = "x"
    elif how == "objective-null":
        doc["objectives"][1][0] = None


@pytest.mark.parametrize(
    "how, message",
    [
        ("version", "format_version"),
        ("row-count", "objective rows"),
        ("row-width", "objective row"),
        ("bitstring-length", "bits long"),
        ("order", "strictly increasing"),
        ("duplicate", "strictly increasing"),
        ("missing-field", "missing field 'n'"),
        ("bad-character", "only 0/1"),
        ("solutions-not-list", "field 'solutions' must be a list"),
        ("objectives-not-list", "field 'objectives' must be a list"),
        ("objective-not-number", "objective values must be finite numbers"),
        ("objective-null", "objective values must be finite numbers"),
    ],
)
def test_load_pareto_json_rejects_malformed_file(tmp_path, how, message):
    pareto = enumerate_pareto(generate_instance(3, 8, 3, 2))
    assert pareto.size >= 3
    path = tmp_path / "pareto.json"
    save_pareto_json(pareto, path)
    doc = json.loads(path.read_text())
    _break_doc(doc, how)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as excinfo:
        load_pareto_json(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("text", ['{"format_version": 1, ', "[1, 2]"], ids=["truncated", "list"])
def test_load_pareto_json_names_the_file_on_bad_json(tmp_path, text):
    path = tmp_path / "pareto.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="JSON") as excinfo:
        load_pareto_json(path)
    assert str(excinfo.value).startswith(f"{path}: ")
