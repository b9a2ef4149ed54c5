import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from mnkbench.bayesnet import (
    BNStructure,
    CPTs,
    _counts,
    _k2_scores,
    fit_parameters,
    k2_learn,
    load_network_json,
    log_joint_pmf,
    sample,
    save_network_json,
)

import oracles


def _chain3(theta1=0.7, given1=0.9, given0=0.2):
    """X0 -> X1 -> X2 with hand-set tables."""
    structure = BNStructure(n_vars=3, parents=((), (0,), (1,)), ordering=(0, 1, 2))
    cpts = CPTs(
        tables=(
            np.array([[1 - theta1, theta1]]),
            np.array([[1 - given0, given0], [1 - given1, given1]]),
            np.array([[1 - given0, given0], [1 - given1, given1]]),
        )
    )
    return structure, cpts


def _all_assignments(n):
    codes = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


# --- parameter estimation ---------------------------------------------------------


def test_parentless_smoothed_estimate():
    # variable observed as 1 in 3 of 5 rows: theta(1) = (1+3)/(2+5) = 4/7
    data = np.array([[1], [1], [1], [0], [0]], dtype=np.uint8)
    structure = BNStructure(n_vars=1, parents=((),), ordering=(0,))
    cpts = fit_parameters(structure, data)
    assert cpts.tables[0][0, 1] == float(Fraction(4, 7))
    assert cpts.tables[0][0, 0] == float(Fraction(3, 7))


def test_empty_dataset_gives_uniform():
    structure = BNStructure(n_vars=4, parents=((), (0,), (), (1, 2)), ordering=(0, 1, 2, 3))
    cpts = fit_parameters(structure, np.empty((0, 4), dtype=np.uint8))
    for table in cpts.tables:
        assert np.all(table == 0.5)


def test_parented_counts_match_manual_oracle():
    data = np.array(
        [
            [0, 1],
            [0, 0],
            [1, 1],
            [1, 1],
            [1, 0],
            [0, 1],
        ],
        dtype=np.uint8,
    )
    structure = BNStructure(n_vars=2, parents=((), (0,)), ordering=(0, 1))
    cpts = fit_parameters(structure, data)
    expected = oracles.cpt_fraction(data, var=1, parents=(0,))
    for j in range(2):
        for v in range(2):
            assert cpts.tables[1][j, v] == float(expected[j][v])


def test_unseen_parent_combination_gets_uniform_prior():
    data = np.array([[1, 0], [1, 1]], dtype=np.uint8)  # parent never equals 0
    structure = BNStructure(n_vars=2, parents=((), (0,)), ordering=(0, 1))
    cpts = fit_parameters(structure, data)
    assert np.all(cpts.tables[1][0] == 0.5)


def test_estimates_stay_inside_open_unit_interval():
    rng = np.random.default_rng(0)
    data = np.zeros((50, 3), dtype=np.uint8)  # extreme: constant zeros
    structure = k2_learn(data, np.arange(3), 2)
    cpts = fit_parameters(structure, data)
    for table in cpts.tables:
        assert np.all(table > 0.0) and np.all(table < 1.0)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


def test_arity_mismatch_raises():
    structure = BNStructure(n_vars=3, parents=((), (), ()), ordering=(0, 1, 2))
    with pytest.raises(ValueError):
        fit_parameters(structure, np.zeros((4, 2), dtype=np.uint8))


# --- K2 ----------------------------------------------------------------------------


def test_independent_coins_learn_no_edges():
    rng = np.random.default_rng(12345)
    data = rng.integers(0, 2, size=(500, 4), dtype=np.uint8)
    structure = k2_learn(data, np.arange(4), 3)
    assert structure.parents == ((), (), (), ())
    # cross-check with the exact rational score: no single edge may beat
    # the empty parent set
    for var in range(4):
        base = oracles.k2_score_exact(data, var, ())
        for cand in range(var):
            assert oracles.k2_score_exact(data, var, (cand,)) <= base


def test_duplicated_column_becomes_parent():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 2, size=(200, 2), dtype=np.uint8)
    data[:, 1] = data[:, 0]
    structure = k2_learn(data, np.array([0, 1]), 3)
    assert structure.parents[1] == (0,)
    assert oracles.k2_score_exact(data, 1, (0,)) > oracles.k2_score_exact(data, 1, ())


def test_max_parents_zero_forces_empty_structure():
    rng = np.random.default_rng(1)
    data = rng.integers(0, 2, size=(100, 5), dtype=np.uint8)
    data[:, 2] = data[:, 0] ^ data[:, 1]
    structure = k2_learn(data, np.arange(5), 0)
    assert all(p == () for p in structure.parents)


def test_k2_score_agrees_with_exact_rational():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, size=(40, 3), dtype=np.uint8)
    for parents in [(), (0,), (1,), (0, 1)]:
        expected = oracles.k2_score_exact(data, 2, parents)
        got = _k2_scores(_counts(data, 2, [parents]), gammaln(np.arange(43)))[0]
        assert got == pytest.approx(float(np.log(float(expected))), rel=1e-12)


@pytest.mark.parametrize("rows", [0, 1, 50])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_batched_step_scores_match_k2_score_and_exact(rows, q):
    # one greedy step for variable 7: the current parents (the first q-1 of
    # 2, 4, 1) plus each remaining candidate; columns 3 and 6 copy column 1
    rng = np.random.default_rng([rows, q])
    data = rng.integers(0, 2, size=(rows, 8), dtype=np.uint8)
    data[:, 3] = data[:, 6] = data[:, 1]
    current = (2, 4, 1)[: max(q - 1, 0)]
    if q == 0:
        tuples = [()]
    else:
        tuples = [tuple(sorted(current + (c,))) for c in range(7) if c not in current]
    lgamma = gammaln(np.arange(rows + 3))
    scores = _k2_scores(_counts(data, 7, tuples), lgamma)
    assert scores.shape == (len(tuples),)
    for parents, score in zip(tuples, scores):
        # scored alone, each tuple gets the same float as in the batch
        assert score == _k2_scores(_counts(data, 7, [parents]), lgamma)[0]
        exact = oracles.k2_score_exact(data, 7, parents)
        expected = math.log(exact.numerator) - math.log(exact.denominator)
        assert score == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_k2_tie_takes_the_lower_index():
    # columns 0 and 3 are identical and 2 copies them, so as parents of 2
    # they tie; 3 comes first in the ordering, 0 must still win
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, size=(100, 4), dtype=np.uint8)
    data[:, 3] = data[:, 2] = data[:, 0]
    scores = _k2_scores(_counts(data, 2, [(0,), (3,)]), gammaln(np.arange(103)))
    assert scores[0] == scores[1]
    structure = k2_learn(data, np.array([3, 1, 0, 2]), 3)
    assert structure.parents[2] == (0,)
    assert structure.parents[0] == (3,)


def test_k2_respects_ordering():
    rng = np.random.default_rng(9)
    data = rng.integers(0, 2, size=(300, 2), dtype=np.uint8)
    data[:, 1] = data[:, 0]
    # with 1 before 0, the edge must go 1 -> 0
    structure = k2_learn(data, np.array([1, 0]), 3)
    assert structure.parents[0] == (1,)
    assert structure.parents[1] == ()


def test_k2_rejects_bad_ordering():
    with pytest.raises(ValueError):
        k2_learn(np.zeros((5, 3), dtype=np.uint8), np.array([0, 1, 1]), 2)


# --- joint pmf ----------------------------------------------------------------------


def test_uniform_network_pmf():
    n = 10
    structure = BNStructure(n_vars=n, parents=((),) * n, ordering=tuple(range(n)))
    cpts = fit_parameters(structure, np.empty((0, n), dtype=np.uint8))
    assignments = _all_assignments(n)[:16]
    probs = np.exp(log_joint_pmf(structure, cpts, assignments))
    assert np.allclose(probs, 2.0**-10, atol=1e-15)


def test_pmf_normalizes_over_full_space():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 2, size=(60, 3), dtype=np.uint8)
    structure = k2_learn(data, rng.permutation(3), 2)
    cpts = fit_parameters(structure, data)
    total = np.exp(log_joint_pmf(structure, cpts, _all_assignments(3))).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_chain_pmf_matches_hand_product():
    structure, cpts = _chain3(theta1=0.7, given1=0.9, given0=0.2)
    x = np.array([1, 1, 0], dtype=np.uint8)
    assert np.exp(log_joint_pmf(structure, cpts, x[None]))[0] == pytest.approx(
        0.7 * 0.9 * 0.1, rel=1e-12
    )
    y = np.array([0, 1, 1], dtype=np.uint8)
    assert np.exp(log_joint_pmf(structure, cpts, y[None]))[0] == pytest.approx(
        0.3 * 0.2 * 0.9, rel=1e-12
    )


# --- sampling -----------------------------------------------------------------------


def test_sample_zero_count():
    structure, cpts = _chain3()
    assert sample(structure, cpts, 0, 1).shape == (0, 3)


def test_sample_frequency_tracks_theta():
    n = 2000
    theta = 1.0 - 1.0 / (2.0 + n)
    structure = BNStructure(n_vars=1, parents=((),), ordering=(0,))
    cpts = CPTs(tables=(np.array([[1 - theta, theta]]),))
    draws = sample(structure, cpts, 100_000, 42)
    freq = draws.mean()
    sigma = np.sqrt(theta * (1 - theta) / 100_000)
    assert abs(freq - theta) <= 3 * sigma


def test_sample_empirical_joint_close_to_exact():
    structure, cpts = _chain3(theta1=0.6, given1=0.8, given0=0.3)
    draws = sample(structure, cpts, 100_000, 5)
    codes = draws @ np.array([4, 2, 1])
    empirical = np.bincount(codes, minlength=8) / len(draws)
    exact = np.exp(log_joint_pmf(structure, cpts, _all_assignments(3)))
    assert np.abs(empirical - exact).sum() <= 0.02


def test_sample_then_refit_recovers_parameters():
    structure, cpts = _chain3(theta1=0.65, given1=0.85, given0=0.25)
    draws = sample(structure, cpts, 100_000, 11)
    refit = fit_parameters(structure, draws)
    for original, estimated in zip(cpts.tables, refit.tables):
        assert np.max(np.abs(original - estimated)) < 0.02


def test_sampling_is_deterministic():
    structure, cpts = _chain3()
    a = sample(structure, cpts, 257, 99)
    b = sample(structure, cpts, 257, 99)
    assert np.array_equal(a, b)


# --- structure validation and persistence --------------------------------------------


def test_structure_rejects_cycle_against_ordering():
    with pytest.raises(ValueError, match="precede"):
        BNStructure(n_vars=2, parents=((1,), ()), ordering=(0, 1))


def test_cpt_rejects_zero_probability():
    with pytest.raises(ValueError, match="strictly inside"):
        CPTs(tables=(np.array([[0.0, 1.0]]),))


def test_network_json_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.integers(0, 2, size=(80, 4), dtype=np.uint8)
    structure = k2_learn(data, rng.permutation(4), 2)
    cpts = fit_parameters(structure, data)
    path = tmp_path / "net.json"
    save_network_json(structure, cpts, path)
    loaded_structure, loaded_cpts = load_network_json(path)
    assert loaded_structure == structure
    for a, b in zip(cpts.tables, loaded_cpts.tables):
        assert np.array_equal(a, b)


def _drop_cpts(doc):
    del doc["cpts"]


def _short_cpts(doc):
    doc["cpts"] = doc["cpts"][:2]


def _short_table(doc):
    doc["cpts"][1] = doc["cpts"][1][:1]


def _set(field, value):
    def edit(doc):
        doc[field] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_cpts, "missing field 'cpts'"),
        (_short_cpts, "CPT count does not match the structure"),
        (_short_table, "variable 1: table has 1 rows, structure needs 2"),
        (_set("parents", 5), "field 'parents' must be a list"),
        (_set("cpts", 5), "field 'cpts' must be a list"),
        (_set("ordering", 5), "field 'ordering' must be a list"),
    ],
    ids=["missing-cpts", "short-cpts", "short-table", "parents-int", "cpts-int", "ordering-int"],
)
def test_network_json_rejects_malformed_file_naming_it(tmp_path, edit, message):
    path = tmp_path / "net.json"
    save_network_json(*_chain3(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_network_json(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", ['{"parents": [[]], ', "[1, 2]"], ids=["truncated", "list"])
def test_network_json_names_the_file_on_bad_json(tmp_path, text):
    path = tmp_path / "net.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="JSON") as info:
        load_network_json(path)
    assert str(info.value).startswith(f"{path}: ")
