import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnkbench import enumeration
from mnkbench.enumeration import (
    EnumerationCapError,
    ParetoSet,
    dominates,
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


# --- dominates ----------------------------------------------------------------


def test_dominates_examples():
    assert dominates((0.6, 0.6), (0.5, 0.5))
    assert not dominates((0.6, 0.4), (0.4, 0.6))
    assert not dominates((0.4, 0.6), (0.6, 0.4))
    assert not dominates((0.5, 0.5), (0.5, 0.5))


def test_dominates_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dominates((0.5, 0.5), (0.5,))


vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3
)


@given(vectors)
def test_dominates_is_irreflexive(a):
    assert not dominates(a, a)


@given(vectors, vectors)
def test_dominates_is_asymmetric(a, b):
    if dominates(a, b):
        assert not dominates(b, a)


@given(vectors, vectors, vectors)
def test_dominates_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


# --- enumerate_pareto -----------------------------------------------------------


def test_single_optimum_instance():
    inst = popcount_instance(8)
    pareto = enumerate_pareto(inst)
    assert pareto.size == 1
    assert np.array_equal(pareto.solutions[0], np.ones(8, dtype=np.uint8))


def _assert_matches_pairwise_oracle(inst):
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
    for front_index in range(1, ranked.n_fronts + 1):
        front = ranked.front(front_index)
        for i in front:
            for j in front:
                assert not dominates(objs[i], objs[j])
        if front_index > 1:
            upper = ranked.front(front_index - 1)
            for j in front:
                assert any(dominates(objs[i], objs[j]) for i in upper)


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
