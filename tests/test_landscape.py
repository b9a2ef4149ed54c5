import json

import numpy as np
import pytest

from mnkbench.landscape import (
    MalformedInstanceError,
    MNKInstance,
    NKComponent,
    bits_to_string,
    bits_to_strings,
    evaluate_batch,
    generate_instance,
    load_instance,
    save_instance,
    string_to_bits,
)


def test_generation_shape():
    inst = generate_instance(7, 18, 2, 2)
    assert inst.m_objectives == 2
    assert inst.n_vars == 18
    for comp in inst.components:
        assert comp.tables.shape == (18, 8)  # 2^(K+1) entries per variable
        assert comp.neighbors.shape == (18, 2)


def test_generation_is_deterministic():
    a = generate_instance(7, 18, 2, 2)
    b = generate_instance(7, 18, 2, 2)
    assert a == b


def test_generation_rejects_k_not_below_n():
    with pytest.raises(ValueError):
        generate_instance(7, 18, 2, 18)


@pytest.mark.parametrize("kwargs", [
    dict(seed=1, n_vars=0, m_objectives=2, k=0),
    dict(seed=1, n_vars=5, m_objectives=0, k=2),
    dict(seed=1, n_vars=5, m_objectives=2, k=-1),
])
def test_generation_rejects_bad_counts(kwargs):
    with pytest.raises(ValueError):
        generate_instance(**kwargs)


def test_neighbor_lists_exclude_self_and_are_distinct():
    inst = generate_instance(123, 12, 3, 4)
    for comp in inst.components:
        for var in range(12):
            row = comp.neighbors[var]
            assert var not in row
            assert len(set(row.tolist())) == 4


def test_constant_tables_give_constant_objectives():
    comps = tuple(
        NKComponent(
            neighbors=np.array([[1], [0], [0]]),
            tables=np.full((3, 4), 0.5),
        )
        for _ in range(2)
    )
    inst = MNKInstance(id="const", seed=0, components=comps)
    for bits in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
        x = np.array(bits, dtype=np.uint8)
        assert evaluate_batch(inst, x[None])[0] == pytest.approx([0.5, 0.5])


def test_hand_built_two_variable_lookup():
    # N=2, K=1: variable 0 depends on variable 1 and vice versa.  Index
    # convention: own bit is the most significant, then the neighbor bit.
    # x = (0, 1): var 0 sees (x0=0, x1=1) -> index 01 = 1; var 1 sees
    # (x1=1, x0=0) -> index 10 = 2.
    t0 = np.array([[0.10, 0.20, 0.30, 0.40]])
    t1 = np.array([[0.50, 0.60, 0.70, 0.80]])
    comp = NKComponent(
        neighbors=np.array([[1], [0]]),
        tables=np.vstack([t0, t1]),
    )
    inst = MNKInstance(id="hand", seed=0, components=(comp,))
    value = evaluate_batch(inst, np.array([[0, 1]], dtype=np.uint8))[0]
    assert value[0] == pytest.approx((0.20 + 0.70) / 2, abs=0)


def test_objectives_stay_in_unit_interval():
    inst = generate_instance(5, 14, 3, 6)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 2, size=(256, 14), dtype=np.uint8)
    objs = evaluate_batch(inst, batch)
    assert np.all(objs >= 0.0) and np.all(objs <= 1.0)


def test_k0_bit_flip_changes_objective_by_table_delta():
    inst = generate_instance(11, 10, 2, 0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(0, 2, size=10, dtype=np.uint8)
        j = int(rng.integers(10))
        y = x.copy()
        y[j] ^= 1
        before = evaluate_batch(inst, x[None])[0]
        after = evaluate_batch(inst, y[None])[0]
        for m, comp in enumerate(inst.components):
            delta = (comp.tables[j, y[j]] - comp.tables[j, x[j]]) / 10
            assert after[m] - before[m] == pytest.approx(delta, abs=1e-12)


def test_evaluate_rejects_wrong_length():
    inst = generate_instance(7, 10, 2, 2)
    with pytest.raises(ValueError):
        evaluate_batch(inst, np.zeros((1, 9), dtype=np.uint8))
    with pytest.raises(ValueError):
        evaluate_batch(inst, np.zeros(10, dtype=np.uint8))


@pytest.mark.parametrize(
    "value, dtype, rows",
    [(2, np.uint8, 3), (-1, np.int64, 3), (2, np.uint8, 8_200)],
    ids=["two", "minus-one-int64", "two-in-a-later-block"],
)
def test_evaluate_batch_rejects_entries_other_than_0_and_1(value, dtype, rows):
    # at the parent a -1 in an int64 batch returned an objective vector
    inst = generate_instance(1, 6, 2, 2)
    batch = np.zeros((rows, 6), dtype=dtype)
    batch[-1, 0] = value
    with pytest.raises(ValueError, match="only 0 and 1"):
        evaluate_batch(inst, batch)


def test_table_entry_distribution_is_uniform():
    # 100 * 2 * 2^9 = 102,400 entries; seeded, mean must sit near 1/2
    inst = generate_instance(2024, 100, 2, 8)
    entries = np.concatenate([comp.tables.ravel() for comp in inst.components])
    assert entries.size >= 100_000
    assert abs(entries.mean() - 0.5) < 0.01


def test_save_load_round_trip_is_bit_exact(tmp_path):
    inst = generate_instance(7, 18, 2, 2)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    for a, b in zip(inst.components, loaded.components):
        assert a.tables.tobytes() == b.tables.tobytes()


@pytest.mark.parametrize(
    "args, instance_id",
    [
        ((3, 7, 2, 0), None),  # empty neighbour lists
        ((4, 6, 3, 5), None),  # K = N - 1
        ((5, 9, 1, 3), None),
        ((6, 8, 8, 2), None),
        ((7, 5, 2, 1), "insté-λ-€"),
    ],
    ids=["k0", "k-n-1", "m1", "m8", "non-ascii-id"],
)
def test_saved_text_equals_the_json_encoder(tmp_path, args, instance_id):
    inst = generate_instance(*args, instance_id=instance_id)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    doc = {
        "format_version": 1,
        "id": inst.id,
        "seed": inst.seed,
        "n": inst.n_vars,
        "m": inst.m_objectives,
        "k": inst.k,
        "components": [
            {"neighbors": comp.neighbors.tolist(), "tables": comp.tables.tolist()}
            for comp in inst.components
        ],
    }
    assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def test_saved_file_has_format_version(tmp_path):
    inst = generate_instance(7, 6, 2, 1)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["n"] == 6 and doc["m"] == 2 and doc["k"] == 1


def _write_tampered(tmp_path, mutate):
    inst = generate_instance(7, 5, 2, 1)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_wrong_table_length(tmp_path):
    def mutate(doc):
        doc["components"][0]["tables"] = [[0.1, 0.2] for _ in range(5)]

    path = _write_tampered(tmp_path, mutate)
    with pytest.raises(MalformedInstanceError, match="tables"):
        load_instance(path)


def test_load_rejects_ragged_table(tmp_path):
    path = _write_tampered(
        tmp_path, lambda doc: doc["components"][0]["tables"].__setitem__(0, [0.1, 0.2])
    )
    with pytest.raises(MalformedInstanceError, match="ragged"):
        load_instance(path)


def test_load_rejects_self_neighbor(tmp_path):
    path = _write_tampered(
        tmp_path, lambda doc: doc["components"][0]["neighbors"].__setitem__(2, [2])
    )
    with pytest.raises(MalformedInstanceError, match="own neighbor"):
        load_instance(path)


def test_load_rejects_out_of_range_table_value(tmp_path):
    def mutate(doc):
        doc["components"][0]["tables"][0][0] = 1.5

    path = _write_tampered(tmp_path, mutate)
    with pytest.raises(MalformedInstanceError, match=r"\[0, 1\]"):
        load_instance(path)


def test_load_rejects_null_table_value(tmp_path):
    # a null entry loads as NaN, which neither bound comparison catches
    def mutate(doc):
        doc["components"][0]["tables"][0][0] = None

    path = _write_tampered(tmp_path, mutate)
    with pytest.raises(MalformedInstanceError, match=r"\[0, 1\]"):
        load_instance(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedInstanceError, match="JSON"):
        load_instance(path)


def test_bitstring_round_trip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert bits_to_string(bits) == "10110"
    assert np.array_equal(string_to_bits("10110"), bits)


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
@pytest.mark.parametrize("shape", [(0, 5), (1, 1), (7, 18), (300, 13)])
def test_bits_to_strings_matches_per_row_text(dtype, shape):
    bits = np.random.default_rng(shape).integers(0, 2, size=shape).astype(dtype)
    expected = ["".join("1" if b else "0" for b in row) for row in bits]
    assert bits_to_strings(bits) == expected
    assert [bits_to_string(row) for row in bits] == expected
