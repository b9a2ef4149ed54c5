import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnkbench.enumeration import ParetoSet, enumerate_pareto
from mnkbench.features import (
    connectivity,
    extract_features,
    hypervolume,
    monte_carlo_hypervolume,
    pareto_distances,
)
from mnkbench.landscape import generate_instance

import oracles


def _pareto_from_bits(rows, instance_id="toy"):
    bits = np.array(rows, dtype=np.uint8)
    # objectives are irrelevant for distance/connectivity features
    objs = np.linspace(0.1, 0.9, len(rows))[:, None].repeat(2, axis=1)
    return ParetoSet(instance_id=instance_id, solutions=bits, objectives=objs)


# --- hypervolume ---------------------------------------------------------------


def test_single_point_box():
    assert hypervolume(np.array([[0.5, 0.5]]), np.zeros(2)) == pytest.approx(0.25)


def test_two_point_front():
    front = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert hypervolume(front, np.zeros(2)) == pytest.approx(0.75, abs=1e-15)


def test_empty_front_is_zero():
    assert hypervolume(np.empty((0, 2)), np.zeros(2)) == 0.0


def test_matches_sweepline_oracle_2d():
    rng = np.random.default_rng(8)
    for _ in range(50):
        front = rng.random((rng.integers(1, 40), 2))
        expected = oracles.hv_sweepline_2d(front, (0.0, 0.0))
        assert hypervolume(front, np.zeros(2)) == pytest.approx(expected, abs=1e-12)


def test_exact_3d_simple_shapes():
    # two boxes overlapping in a known way:
    # [0,1]x[0,1]x[0,.5] union [0,.5]x[0,.5]x[0,1] -> 0.5 + 0.25 - 0.125
    front = np.array([[1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    assert hypervolume(front, np.zeros(3)) == pytest.approx(0.625, abs=1e-15)


def test_dominated_points_do_not_change_hv():
    front = np.array([[1.0, 0.5], [0.5, 1.0]])
    padded = np.vstack([front, [[0.4, 0.4], [0.5, 0.5]]])
    assert hypervolume(padded, np.zeros(2)) == pytest.approx(
        hypervolume(front, np.zeros(2)), abs=1e-15
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
        ),
        min_size=1,
        max_size=12,
    ),
    st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
)
def test_hv_monotone_under_added_point(front, extra):
    ref = np.zeros(3)
    base = hypervolume(np.array(front), ref)
    grown = hypervolume(np.array(front + [extra]), ref)
    assert grown >= base - 1e-12


def test_monte_carlo_close_to_exact():
    rng = np.random.default_rng(99)
    front = rng.random((10, 3)) * 0.9 + 0.05
    exact = hypervolume(front, np.zeros(3))
    estimate, stderr = monte_carlo_hypervolume(front, np.zeros(3), samples=200_000, seed=7)
    assert stderr > 0
    assert abs(estimate - exact) <= 3 * stderr


def test_rejects_point_below_reference():
    with pytest.raises(ValueError, match="below the reference"):
        hypervolume(np.array([[0.5, -0.1]]), np.zeros(2))


# --- distances -------------------------------------------------------------------


def test_singleton_distances():
    assert pareto_distances(_pareto_from_bits([[0, 0, 0]])) == (0.0, 0.0)


def test_hand_counted_distances():
    pareto = _pareto_from_bits([[0, 0, 0], [0, 1, 1], [1, 0, 1]])
    avgd, maxd = pareto_distances(pareto)
    assert avgd == pytest.approx(2.0)
    assert maxd == 2.0


def test_distances_match_all_pairs_oracle():
    inst = generate_instance(3, 10, 2, 2)
    pareto = enumerate_pareto(inst)
    expected = oracles.all_pairs_distances(pareto.solutions)
    got = pareto_distances(pareto)
    assert got[0] == pytest.approx(expected[0], abs=1e-12)
    assert got[1] == expected[1]


# --- connectivity ----------------------------------------------------------------


def test_singleton_connectivity():
    assert connectivity(_pareto_from_bits([[1, 0, 1]])) == (1, 1.0, 0)


def test_hand_built_components():
    pareto = _pareto_from_bits([[0, 0, 0], [0, 0, 1], [1, 1, 1]])
    nconnec, lconnec, kconnec = connectivity(pareto)
    assert nconnec == 2
    assert lconnec == pytest.approx(2 / 3)
    assert kconnec == 2  # 001 -> 111 bridges the components at distance 2


def test_connectivity_matches_union_find_oracle():
    for seed in (3, 11, 29):
        inst = generate_instance(seed, 10, 2, 2)
        pareto = enumerate_pareto(inst)
        assert connectivity(pareto) == oracles.unionfind_connectivity(pareto.solutions)


@st.composite
def _distinct_rows(draw):
    n = draw(st.integers(1, 8))
    codes = draw(
        st.lists(
            st.integers(0, (1 << n) - 1), min_size=2, max_size=min(30, 1 << n), unique=True
        )
    )
    shifts = np.arange(n - 1, -1, -1)
    return [[(code >> s) & 1 for s in shifts] for code in codes]


@settings(max_examples=200, deadline=None)
@given(_distinct_rows())
def test_connectivity_matches_union_find_oracle_on_drawn_sets(rows):
    # distinct rows in any order, not only the sorted sets enumeration gives
    pareto = _pareto_from_bits(rows)
    assert connectivity(pareto) == oracles.unionfind_connectivity(pareto.solutions)
    avgd, maxd = pareto_distances(pareto)
    expected = oracles.all_pairs_distances(pareto.solutions)
    assert avgd == pytest.approx(expected[0], abs=1e-12)
    assert maxd == expected[1]


def test_kconnec_one_iff_single_component():
    for seed in range(20):
        inst = generate_instance(seed, 8, 2, 1)
        pareto = enumerate_pareto(inst)
        if pareto.size < 2:
            continue
        nconnec, _, kconnec = connectivity(pareto)
        assert (kconnec == 1) == (nconnec == 1)


# --- extract_features --------------------------------------------------------------


def test_copied_parameters():
    inst = generate_instance(3, 9, 2, 2)
    fv = extract_features(inst, enumerate_pareto(inst))
    assert fv.m == 2 and fv.k == 2


def test_single_optimum_features():
    inst = oracles.popcount_instance(7)
    fv = extract_features(inst, enumerate_pareto(inst))
    assert (fv.npo, fv.avgd, fv.maxd) == (1, 0.0, 0.0)
    assert (fv.nconnec, fv.lconnec, fv.kconnec) == (1, 1.0, 0)
    assert fv.hv == pytest.approx(1.0)  # the all-ones box


def test_fields_match_standalone_oracles():
    inst = generate_instance(3, 10, 2, 2)
    pareto = enumerate_pareto(inst)
    fv = extract_features(inst, pareto)
    assert fv.npo == pareto.size
    assert fv.hv == pytest.approx(
        oracles.hv_sweepline_2d(pareto.objectives, (0.0, 0.0)), abs=1e-12
    )
    avgd, maxd = oracles.all_pairs_distances(pareto.solutions)
    assert fv.avgd == pytest.approx(avgd, abs=1e-12)
    assert fv.maxd == maxd
    assert (fv.nconnec, fv.lconnec, fv.kconnec) == oracles.unionfind_connectivity(
        pareto.solutions
    )


def test_rejects_foreign_pareto_set():
    inst = generate_instance(3, 8, 2, 2)
    other = enumerate_pareto(generate_instance(4, 8, 2, 2))
    with pytest.raises(ValueError, match="belongs to"):
        extract_features(inst, other)


def test_feature_invariants_on_random_instances():
    for seed in (1, 2, 3):
        inst = generate_instance(seed, 9, 3, 3)
        pareto = enumerate_pareto(inst)
        fv = extract_features(inst, pareto)
        assert fv.npo >= 1
        assert fv.maxd >= fv.avgd >= 0
        assert 1 <= fv.nconnec <= fv.npo
        assert 0 < fv.lconnec <= 1
        assert 0 <= fv.kconnec <= inst.n_vars
