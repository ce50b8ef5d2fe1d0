import dataclasses
import json
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import catalog, classicaloracle, devicemodel, matcore, protocol, scoring
from randx.cli import main
from randx.devicemodel import (
    COMPONENTS,
    CONTEXTUAL,
    GENERAL,
    DeviceError,
    _Records,
    block_device,
    born_probabilities,
    components_device,
    device_from_dict,
    direct_sum,
    json_write,
    load_device,
    make_device,
    save_device,
    validate_device,
)
from randx.matcore import (
    MatcoreError,
    check_resolution,
    ginibre,
    haar_pvm,
    haar_unitary,
)
from tests import dense
from tests.dense import (
    DimMismatchError, LengthMismatchError, device_to_dict, evolve_sequence, json_text,
    matrix_to_pairs, state_pair,
)
from tests.test_protocol import random_dyadic_pair, toy_setup


def random_device(seed, dim=3, n_inputs=2, n_outputs=3):
    """General device with Haar-rotated coordinate measurements."""
    rng = np.random.default_rng(seed)
    g = ginibre((dim, dim), rng)
    phi = g.conj().T @ g
    phi /= np.trace(phi).real
    meas = {}
    unis = {}
    for a in range(n_inputs):
        pvm = haar_pvm(dim, n_outputs, rng)
        meas[a] = {x: p for x, p in enumerate(pvm) if p.any()}
        unis[a] = haar_unitary(dim, rng)
    return make_device(GENERAL, (dim,), phi, meas, unitaries=unis,
                       output_alphabet=tuple(range(n_outputs)))


def commuting_contextual_device():
    pa = {0: np.diag([1.0, 1.0, 0.0, 0.0]), 1: np.diag([0.0, 0.0, 1.0, 1.0])}
    pb = {0: np.diag([1.0, 0.0, 1.0, 0.0]), 1: np.diag([0.0, 1.0, 0.0, 1.0])}
    meas = {
        ("A",): {(y,): pa[y] for y in (0, 1)},
        ("B",): {(y,): pb[y] for y in (0, 1)},
        ("A", "B"): {(y1, y2): pa[y1] @ pb[y2] for y1 in (0, 1) for y2 in (0, 1)},
    }
    return make_device(CONTEXTUAL, (4,), np.eye(4) / 4, meas)


def misfit_projector_device():
    """A dim-2 device whose one input lists diag(1, 0) and a 3x3 identity."""
    meas = {0: {0: np.diag([1.0, 0.0]), 1: np.eye(3)}}
    return make_device(GENERAL, (2,), np.eye(2) / 2, meas)


def unlisted_misfit_letter_device():
    """A contextual device whose measured but unlisted letter ("B",) has a 3x3 projector."""
    meas = {("A",): {(0,): np.eye(2)}, ("B",): {(0,): np.eye(3)}}
    return make_device(CONTEXTUAL, (2,), np.eye(2) / 2, meas, input_alphabet=[("A",)])


MALFORMED = {
    "general-misfit-projector": (misfit_projector_device, "measurement-dim"),
    "components-dims-product": (
        lambda: make_device(COMPONENTS, (2, 3), np.eye(4) / 4, {(0, 0): {(0, 0): np.eye(4)}}),
        "dims-product",
    ),
    "components-misfit-projector": (
        lambda: make_device(
            COMPONENTS, (2, 2), np.eye(4) / 4, {(0, 0): {(0, 0): np.eye(4), (1, 1): np.eye(3)}}
        ),
        "measurement-dim",
    ),
    "contextual-misfit-projector": (
        lambda: make_device(
            CONTEXTUAL, (2,), np.eye(2) / 2, {("A",): {(0,): np.eye(2), (1,): np.eye(3)}}
        ),
        "measurement-dim",
    ),
    "contextual-unlisted-misfit-letter": (unlisted_misfit_letter_device, "measurement-dim"),
}


class TestValidate:
    def test_catalog_chsh_valid(self):
        assert validate_device(catalog.chsh().devices["optimal"]).ok
        assert validate_device(catalog.chsh().devices["classical"]).ok

    def test_completeness_violation_flagged(self):
        meas = {0: {0: np.diag([1.0, 0.0])}}
        d = make_device(GENERAL, (2,), np.eye(2) / 2, meas, output_alphabet=(0,))
        rep = validate_device(d)
        assert not rep.ok
        assert any(v.check == "measurement-completeness" for v in rep.violations)

    def test_contextual_commuting_ok(self):
        assert validate_device(commuting_contextual_device()).ok

    def test_contextual_noncommuting_flagged(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        pa = {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}
        pb = {0: plus, 1: np.eye(2) - plus}
        meas = {
            ("A", "B"): {(y1, y2): pa[y1] @ pb[y2] for y1 in (0, 1) for y2 in (0, 1)},
        }
        d = make_device(CONTEXTUAL, (2,), np.eye(2) / 2, meas)
        rep = validate_device(d)
        assert not rep.ok
        checks = {v.check for v in rep.violations}
        assert "context-commutation" in checks or "context-product-form" in checks

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_device_is_reported_not_raised(self, case):
        build, check = MALFORMED[case]
        rep = validate_device(build())
        assert check in {v.check for v in rep.violations}

    def test_missing_measurement_reported_only_for_input_letters(self):
        meas = {("A",): {(0,): np.eye(2)}, ("B",): {(0,): np.eye(2)}}
        d = make_device(CONTEXTUAL, (2,), np.eye(2) / 2, meas, input_alphabet=[("A",), ("C",)])
        violations = validate_device(d).violations
        assert [v.detail for v in violations if v.check == "measurement-missing"] == ["input ('C',)"]

    def test_near_resolution_reported_but_accepted_by_kernels(self):
        # a 1e-7 perturbation lies between the reporting (1e-9) and raising (1e-6) tolerances
        rng = np.random.default_rng(11)
        pvm = haar_pvm(3, 3, rng)
        g = ginibre((3, 3), rng)
        pvm[0] = pvm[0] + 1e-7 * (g + g.conj().T) / np.max(np.abs(g + g.conj().T))
        check_resolution(pvm, 3)
        d = make_device(GENERAL, (3,), np.eye(3) / 3, {0: dict(enumerate(pvm))})
        checks = {v.check for v in validate_device(d).violations}
        assert {"measurement-projector", "measurement-completeness"} <= checks

    def test_component_structure_violation_flagged(self):
        # entangled joint projectors cannot factor over the sites
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        p = np.outer(psi, psi)
        meas = {(0, 0): {(0, 0): p, (1, 1): np.eye(4) - p}}
        d = make_device("components", (2, 2), np.eye(4) / 4, meas)
        rep = validate_device(d)
        assert not rep.ok
        assert any(v.check.startswith("component-") for v in rep.violations)


class TestStatePair:
    def test_identity_x(self):
        d = catalog.chsh().devices["optimal"]
        pair = state_pair(d, np.eye(4))
        assert np.allclose(pair.device_state, d.state, atol=1e-12)
        assert np.allclose(pair.adversary_state, d.state.T, atol=1e-12)

    def test_rank_one_on_maximally_mixed(self):
        rng = np.random.default_rng(0)
        v = ginibre(2, rng)
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        meas = {0: {0: np.eye(2)}}
        d = make_device(GENERAL, (2,), np.eye(2) / 2, meas)
        pair = state_pair(d, p)
        assert np.allclose(pair.device_state, p / 2, atol=1e-12)

    def test_support_projector_of_pure_state(self):
        d = catalog.chsh().devices["optimal"]
        pair = state_pair(d, d.state)  # pure state: its own support projector
        assert np.max(np.abs(pair.device_state - d.state)) < 1e-10

    def test_dim_mismatch(self):
        d = catalog.chsh().devices["optimal"]
        with pytest.raises(DimMismatchError):
            state_pair(d, np.eye(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_spectra_agree(self, seed):
        d = random_device(seed)
        rng = np.random.default_rng(seed + 1)
        g = ginibre((3, 3), rng)
        x = g.conj().T @ g
        pair = state_pair(d, x)
        ev_dev = np.sort(np.linalg.eigvalsh(pair.device_state))
        ev_adv = np.sort(np.linalg.eigvalsh(pair.adversary_state))
        scale = max(ev_dev[-1], 1e-30)
        assert np.max(np.abs(ev_dev - ev_adv)) / scale < 1e-9


class TestEvolve:
    def test_empty_sequence(self):
        d = catalog.chsh().devices["optimal"]
        pair = evolve_sequence(d, [], [])
        assert np.allclose(pair.device_state, d.state)
        assert np.allclose(pair.adversary_state, d.state.T)

    def test_branch_traces_sum_to_one(self):
        d = catalog.chsh().devices["optimal"]
        total = 0.0
        for x in d.output_alphabet:
            pair = evolve_sequence(d, [(0, 0)], [x])
            total += np.trace(pair.device_state).real
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_magic_square_pair_device_deterministic_branch(self):
        d = catalog.magic_square().devices["pair-000-001"]
        pair = evolve_sequence(d, [(0, 0)], [((0, 0, 0), (0, 0, 1))])
        assert np.trace(pair.device_state).real == pytest.approx(1.0, abs=1e-12)

    def test_one_step_formula(self):
        d = random_device(42)
        a, x = 1, 0
        pair = evolve_sequence(d, [a], [x])
        u = dense.unitary(d, a)
        p = d.measurements[a][x]
        direct = u @ p @ d.state @ p @ u.conj().T
        assert np.max(np.abs(pair.device_state - direct)) < 1e-12

    def test_unitaries_do_not_change_branch_traces(self):
        d = random_device(7)
        stripped = make_device(
            GENERAL, d.dims, d.state,
            {a: dict(outs) for a, outs in d.measurements.items()},
            output_alphabet=d.output_alphabet,
        )
        for a in d.input_alphabet:
            tr_with = sorted(
                np.trace(evolve_sequence(d, [a], [x]).device_state).real
                for x in d.measurements[a]
            )
            tr_without = sorted(
                np.trace(evolve_sequence(stripped, [a], [x]).device_state).real
                for x in d.measurements[a]
            )
            assert np.allclose(tr_with, tr_without, atol=1e-12)

    def test_multi_round_completeness(self):
        d = random_device(13)
        total = 0.0
        for x1 in d.measurements[0]:
            for x2 in d.measurements[1]:
                pair = evolve_sequence(d, [0, 1], [x1, x2])
                total += np.trace(pair.device_state).real
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_errors(self):
        d = catalog.chsh().devices["optimal"]
        with pytest.raises(LengthMismatchError):
            evolve_sequence(d, [(0, 0)], [])
        with pytest.raises(DeviceError, match=r"unknown input letter \(9, 9\)"):
            evolve_sequence(d, [(9, 9)], [(0, 0)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_adversary_spectrum_matches(self, seed):
        d = random_device(seed)
        rng = np.random.default_rng(seed)
        a_seq = [int(rng.integers(2)) for _ in range(2)]
        x_seq = [int(rng.integers(3)) for _ in range(2)]
        if any(x not in d.measurements[a] for a, x in zip(a_seq, x_seq)):
            return
        pair = evolve_sequence(d, a_seq, x_seq)
        ev_dev = np.sort(np.linalg.eigvalsh(pair.device_state))
        ev_adv = np.sort(np.linalg.eigvalsh(pair.adversary_state))
        scale = max(abs(ev_dev[-1]), 1e-12)
        assert np.max(np.abs(ev_dev - ev_adv)) / scale < 1e-9


def test_born_probabilities_normalized():
    d = random_device(21)
    for a in d.input_alphabet:
        probs = born_probabilities(d, a)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-12 for p in probs.values())


def assert_born_table_matches_dense(d):
    for a in d.measurements:
        probs = born_probabilities(d, a)
        ref = dense.born_probabilities(d, a)
        assert list(probs) == list(ref)
        assert max(abs(probs[x] - ref[x]) for x in ref) <= 1e-15, (d.name, a)


@pytest.mark.parametrize("entry", ["chsh", "magic-square"])
def test_born_probabilities_match_dense_on_catalog(entry):
    for d in catalog.get_entry(entry).devices.values():
        assert_born_table_matches_dense(d)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_born_probabilities_match_dense_on_random_devices(seed):
    assert_born_table_matches_dense(random_device(seed))


def test_device_file_roundtrip(tmp_path):
    d = catalog.chsh().devices["optimal"]
    path = tmp_path / "device.json"
    save_device(d, path)
    loaded = load_device(path)
    assert loaded.kind == d.kind
    assert loaded.input_alphabet == d.input_alphabet
    assert loaded.output_alphabet == d.output_alphabet
    for a in d.input_alphabet:
        for x, p in d.measurements[a].items():
            assert np.allclose(loaded.measurements[a][x], p)
    assert validate_device(loaded).ok


def test_device_file_bytes_are_the_json_dump_of_device_to_dict(tmp_path):
    d = random_device(8)
    path = tmp_path / "device.json"
    save_device(d, path)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(device_to_dict(d), sort_keys=True, indent=1) + "\n"
    )


class TestJsonText:
    """json_text must give the bytes of json.dumps(..., sort_keys=True, indent=k)
    on the same payload with each device replaced by device_to_dict."""

    @staticmethod
    def assert_same_text(obj, expected, indents=(1, 2)):
        # the chunks json_write hands a list sink join to the reference at
        # any flush bound: one part (every leaf flushes), a few, and the
        # package's own (json_text)
        for indent in indents:
            text = json.dumps(expected, sort_keys=True, indent=indent)
            for bound in (1, 3):
                chunks = []
                with unittest.mock.patch.object(devicemodel, "_FLUSH_PARTS", bound):
                    json_write(obj, indent, chunks.append)
                assert all(chunks) and "".join(chunks) == text
            assert json_text(obj, indent) == text

    @pytest.mark.parametrize("with_unitaries", [False, True])
    def test_small_devices(self, with_unitaries):
        d = random_device(3) if with_unitaries else catalog.get_device("chsh:optimal")
        assert bool(d.unitaries) == with_unitaries
        self.assert_same_text(d, device_to_dict(d))
        self.assert_same_text({"device": d, "value": 0.5}, {"device": device_to_dict(d), "value": 0.5})

    def test_combined_device_file_text(self):
        # 80 MB of text, which Python's indenting encoder takes about 10 s to
        # write: the whole text is compared token by token with the C
        # encoder's compact text, and the indented bytes of a device file
        # (indent 1) on a small device of the same structure, a direct sum of
        # a direct sum and a block device
        d = catalog.get_device("magic-square:combined")
        compact = json.dumps(device_to_dict(d), sort_keys=True, separators=(",", ":"))
        assert "".join(json_text(d, 1).split()) == compact
        pairs = [catalog.ms_pair_device(*pair) for pair in catalog.ms_answer_pairs()[:3]]
        p = pairs[2]
        letters = {a: (list(outs), p.projector_blocks[a]) for a, outs in p.measurements.items()}
        block = block_device(p.blocks, p.state_blocks, letters, p.input_alphabet,
                             p.output_alphabet, "block")
        inner = direct_sum([(0.5, pairs[0]), (0.5, pairs[1])], "inner")
        small = direct_sum([(0.25, inner), (0.75, block)], "small")
        self.assert_same_text(small, device_to_dict(small), indents=(1,))

    def test_fresh_seesaw_result(self):
        result = classicaloracle.seesaw(catalog.get_game("chsh"), (2, 2), restarts=2, seed=3)
        payload = {"value": result.value, "iterations": result.iterations}
        self.assert_same_text(
            {**payload, "device": result.device},
            {**payload, "device": device_to_dict(result.device)},
        )

    def test_edge_floats_and_shapes_at_every_depth(self):
        edge = np.array([[-0.0 + 5e-324j, 1e16 - 0.0j], [1e-5 + 1e-5j, -5e-324 + 1.5e300j]])
        one = np.array([[-0.0 - 0.0j]])
        self.assert_same_text(
            {"a": edge, "b": [one, {"c": edge, "d": [[one]]}], "e": np.zeros((0, 0))},
            {"a": matrix_to_pairs(edge), "b": [matrix_to_pairs(one),
             {"c": matrix_to_pairs(edge), "d": [[matrix_to_pairs(one)]]}], "e": []},
        )
        self.assert_same_text(one, matrix_to_pairs(one))

    @pytest.mark.parametrize(
        "text", ["randx:matrix", "randx:matrix+", 'x"randx:matrix', "[randx:matrix]"]
    )
    def test_placeholder_text_in_strings_is_not_spliced(self, text):
        # "randx:matrix" was an earlier writer's placeholder: now an ordinary string
        d = dataclasses.replace(catalog.get_device("chsh:optimal"), name=text)
        self.assert_same_text(
            {"device": d, text: text, "list": [text, np.eye(1)]},
            {"device": device_to_dict(d), text: text, "list": [text, matrix_to_pairs(np.eye(1))]},
        )

    def test_non_finite_entries_raise(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(MatcoreError, match="matrix has non-finite entries"):
            json_text({"m": bad}, 2)
        d = dataclasses.replace(catalog.get_device("chsh:optimal"), state=np.full((4, 4), np.inf))
        for write in (device_to_dict, lambda d: json_text(d, 1)):
            with pytest.raises(MatcoreError, match="matrix has non-finite entries"):
                write(d)

    def test_records_are_the_list_of_dicts(self):
        columns = {
            "success": [True, False, True, False, True],
            "c": [-0.0, math.nan, math.inf, -math.inf, -1.5e-300],
            "seed": [0, -1, 2**64, 2**128 - 1, 2**200],
        }
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        self.assert_same_text(_Records(columns), records)
        # at depth, beside a matrix, one record, and none
        one = {k: v[:1] for k, v in columns.items()}
        none = {k: [] for k in columns}
        self.assert_same_text(
            {"a": [{"runs": _Records(columns)}, np.eye(1)], "b": _Records(one), "c": _Records(none)},
            {"a": [{"runs": records}, matrix_to_pairs(np.eye(1))], "b": records[:1], "c": []},
        )
        # fractional scores: the toy game's runs, on the fresh and memory paths
        g, d = toy_setup()
        for fresh in (True, False):
            outcomes = protocol.simulate_outcomes(
                g, d, protocol.ProtocolParams(30, 0.3, 0.1, seed=9), 20, fresh_state=fresh
            )
            assert any(c % 1 for c, _ in outcomes)
            c, success = map(list, zip(*outcomes))
            self.assert_same_text(
                _Records({"c": c, "seed": range(9, 29), "success": success}),
                [{"c": ck, "seed": 9 + k, "success": sk} for k, (ck, sk) in enumerate(outcomes)],
            )

    @pytest.mark.parametrize("n", [1, 3, 4, 9, 10])
    def test_records_are_written_a_block_at_a_time(self, n):
        # blocks of 3 records: the text is the whole list's at any flush
        # bound, and each block is handed to the sink before the next is built
        columns = {"c": [0.5 * k for k in range(n)], "seed": range(7, 7 + n),
                   "success": [k % 2 == 0 for k in range(n)]}
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        with unittest.mock.patch.object(devicemodel, "_RECORD_BLOCK", 3):
            self.assert_same_text({"runs": _Records(columns), "x": 1}, {"runs": records, "x": 1})
            chunks = []
            json_write(_Records(columns), 2, chunks.append)
        assert len(chunks) == -(-n // 3)
        assert all(chunk.count('"seed"') <= 3 for chunk in chunks)

    def test_non_finite_floats_are_named_strings(self):
        numbers = [math.nan, math.inf, -math.inf, 1.5, np.float64(math.inf)]
        names = ["NaN", "Infinity", "-Infinity", 1.5, "Infinity"]
        self.assert_same_text({"x": numbers, "y": {"z": (math.nan,)}, "w": math.inf},
                              {"x": names, "y": {"z": ["NaN"]}, "w": "Infinity"})

    def test_records_hold_scalars_only(self):
        for column in ([[1, 2]], ["a, b"]):
            with pytest.raises(ValueError, match="hold scalars"):
                json_text(_Records({"c": [0.5], "x": column}), 2)

    def test_other_objects_are_not_serializable(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"x": object()}, 2)


@pytest.fixture(scope="module")
def small_ms_witness():
    """A 4x4 Magic Square see-saw witness after one sweep: a 10 MB device file."""
    g = catalog.get_game("magic-square")
    return classicaloracle.seesaw(g, (4, 4), restarts=1, iters=1, seed=1).device


def traced_peak(write) -> int:
    """The tracemalloc peak, in bytes, of calling ``write()``."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestJsonWrite:
    """json_write hands its sink chunks of at most ``_FLUSH_PARTS`` parts plus
    one bulk leaf, so writing a large device holds none of its text whole."""

    # no scalar or separator of the witness file's text is longer than this
    # (its longest, a separator between projector entries, has 44 characters)
    PART_CHARS = 48

    def test_chunks_are_bounded(self, small_ms_witness):
        d = small_ms_witness
        chunks = []
        json_write(d, 1, chunks.append)
        text = "".join(chunks)
        assert len(chunks) > 1
        # the deepest matrices: a projector at a device file's indentation
        matrix = json_text({"inputs": [{"projectors": [{"matrix": d.state}]}]}, 1)
        bound = devicemodel._FLUSH_PARTS * self.PART_CHARS + len(matrix)
        assert max(map(len, chunks)) <= bound < len(text) / 10

    def test_memory_does_not_grow_with_the_text(self, small_ms_witness):
        d = small_ms_witness
        streamed = traced_peak(lambda: json_write(d, 1, lambda chunk: None))
        whole = traced_peak(lambda: json_text(d, 1))
        assert streamed < 4 * 2**20
        assert whole > 15 * 2**20


@given(st.integers(0, 2**32 - 1), st.tuples(st.integers(2, 3), st.integers(2, 3)),
       st.integers(1, 3))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_block_device_file_rebuilds_every_matrix_bit_for_bit(rng_seed, inputs, parts):
    # a direct sum of random components blocks, as TestRandomInstances builds them
    rng = np.random.default_rng(rng_seed)
    blocks = [random_dyadic_pair(rng, inputs)[1] for _ in range(parts)]
    weights = rng.dirichlet(np.ones(parts)).tolist()
    d = direct_sum(list(zip(weights, blocks)), "random-blocks")
    text = json_text(d, 1)
    assert text == json.dumps(device_to_dict(d), sort_keys=True, indent=1)
    chunks = []
    with unittest.mock.patch.object(devicemodel, "_FLUSH_PARTS", 5):
        json_write(d, 1, chunks.append)
    assert len(chunks) > 1 and "".join(chunks) == text
    loaded = device_from_dict(json.loads(text))
    assert (loaded.kind, loaded.dims, loaded.name) == (d.kind, d.dims, d.name)
    assert (loaded.input_alphabet, loaded.output_alphabet) == (d.input_alphabet, d.output_alphabet)
    assert_same_bits(loaded.state, d.state)
    assert list(loaded.measurements) == list(d.measurements)
    for a, outs in d.measurements.items():
        assert list(loaded.measurements[a]) == list(outs)
        for x, p in outs.items():
            assert_same_bits(loaded.measurements[a][x], p)
    assert not loaded.unitaries and not d.unitaries


def test_device_dict_omitted_unitary_defaults_identity():
    d = random_device(5)
    data = device_to_dict(d)
    for entry in data["inputs"]:
        entry.pop("unitary", None)
    loaded = device_from_dict(data)
    assert np.allclose(dense.unitary(loaded, 0), np.eye(3))


def test_devices_compare_and_hash_by_identity():
    d = catalog.chsh_optimal_device()
    assert d == d
    assert (d == catalog.chsh_optimal_device()) is False
    assert hash(d) == hash(d)
    assert {d: 1}[d] == 1


class TestBlocks:
    def split_device(self, extra_projector=None, unitary=None):
        """Two 2-dim blocks {0, 1} and {2, 3}, unless an extra projector or unitary links them."""
        rng = np.random.default_rng(4)
        a, b = haar_pvm(2, 2, rng), haar_pvm(2, 2, rng)
        z = np.zeros((2, 2))
        meas = {0: {0: np.block([[a[0], z], [z, b[0]]]), 1: np.block([[a[1], z], [z, b[1]]])}}
        if extra_projector is not None:
            meas[1] = {0: extra_projector, 1: np.eye(4) - extra_projector}
        unis = {0: unitary} if unitary is not None else None
        return make_device(GENERAL, (4,), np.eye(4) / 4, meas, unitaries=unis)

    def test_blocks_split_and_cached(self):
        d = self.split_device()
        assert [idx.tolist() for idx in d.blocks] == [[[0, 1], [2, 3]]]
        assert d.blocks is d.blocks
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.blocks = ()

    def test_block_stacks_cached_read_only_and_unsettable(self):
        u = np.kron(np.eye(2), haar_unitary(2, np.random.default_rng(5)))
        d = self.split_device(unitary=u)
        assert [idx.tolist() for idx in d.blocks] == [[[0, 1], [2, 3]]]
        idx = d.blocks[0]

        def split(m):
            return m[idx[:, :, None], idx[:, None, :]]

        assert np.array_equal(d.state_blocks[0], split(d.state))
        for j, p in enumerate(d.measurements[0].values()):
            assert np.array_equal(d.projector_blocks[0][0][j], split(p))
            assert np.allclose(d.round_ops[0][0][j], split(u @ p), atol=1e-15)
        for name in ("state_blocks", "projector_blocks", "round_ops"):
            value = getattr(d, name)
            assert getattr(d, name) is value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, value)
        for stack in (*d.state_blocks, *d.projector_blocks[0], *d.round_ops[0]):
            assert not stack.flags.writeable

    def test_one_off_block_projector_merges(self):
        v = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2)
        d = self.split_device(extra_projector=np.outer(v, v))
        assert validate_device(d).ok
        assert [idx.tolist() for idx in d.blocks] == [[[0, 1, 2, 3]]]

    def test_one_off_block_unitary_merges(self):
        swap = np.eye(4)[[0, 3, 2, 1]]
        d = self.split_device(unitary=swap)
        assert validate_device(d).ok
        assert [idx.tolist() for idx in d.blocks] == [[[0, 1, 2, 3]]]

    def test_catalog_combined_blocks(self):
        d = catalog.magic_square().devices["combined"]
        assert [idx.shape for idx in d.blocks] == [(80, 1), (8, 4)]

    def test_misfit_unlisted_letter_raises_matcore_error(self):
        with pytest.raises(MatcoreError):
            unlisted_misfit_letter_device().blocks


MIXTURES = ("mixture", "cross-mixture", "combined")


def assert_same_bits(a, b):
    """Equal shape, dtype and bytes: -0.0 and +0.0 differ."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def live_strides(a):
    """The strides of the axes longer than one, the only ones that address memory."""
    return [stride for stride, n in zip(a.strides, a.shape) if n > 1]


@pytest.fixture(scope="module")
def dense_mixtures():
    return dense.magic_square_mixtures()


@pytest.fixture
def fresh_magic_square():
    """The Magic Square entry built anew, so no earlier test has read its projectors."""
    for build in (catalog.magic_square, catalog.ms_mixture_device,
                  catalog.ms_cross_mixture_device, catalog.ms_combined_device):
        build.cache_clear()
    return catalog.magic_square()


class TestDirectSum:
    @pytest.mark.parametrize("name", MIXTURES)
    def test_stacks_equal_the_split_dense_sum(self, name, dense_mixtures, fresh_magic_square):
        d, ref = fresh_magic_square.devices[name], dense_mixtures[name]
        assert (d.input_alphabet, d.output_alphabet) == (ref.input_alphabet, ref.output_alphabet)
        assert len(d.blocks) == len(ref.blocks)
        for idx, ref_idx in zip(d.blocks, ref.blocks):
            assert_same_bits(idx, ref_idx)
            assert not idx.flags.writeable
        for f, ref_f in zip(d.state_blocks, ref.state_blocks):
            assert_same_bits(f, ref_f)
            assert live_strides(f) == live_strides(ref_f)
        assert list(d.projector_blocks) == list(ref.projector_blocks)
        for a, stacks in ref.projector_blocks.items():
            assert list(d.measurements[a]) == list(ref.measurements[a])
            for p, ref_p in zip(d.projector_blocks[a], stacks, strict=True):
                assert_same_bits(p, ref_p)
                assert live_strides(p) == live_strides(ref_p)
                assert not p.flags.writeable
            assert born_probabilities(d, a) == born_probabilities(ref, a)
        assert not any("_dense" in vars(outs) for outs in d.measurements.values())

    @pytest.mark.parametrize("name", MIXTURES)
    def test_materialised_measurements_equal_the_dense_oracle(self, name, dense_mixtures):
        d, ref = catalog.magic_square().devices[name], dense_mixtures[name]
        assert_same_bits(d.state, ref.state)
        assert list(d.measurements) == list(ref.measurements)
        for a, outs in ref.measurements.items():
            assert list(d.measurements[a]) == list(outs)
            for x, p in outs.items():
                assert_same_bits(d.measurements[a][x], p)
                assert not d.measurements[a][x].flags.writeable
        with pytest.raises(TypeError):
            d.measurements[a] = {}

    def test_a_letter_is_scattered_once_on_first_read(self, fresh_magic_square):
        d = fresh_magic_square.devices["combined"]
        outs = d.measurements[(1, 2)]
        x = next(iter(outs))
        assert x in outs and len(outs) == 16 and "_dense" not in vars(outs)
        p = outs[x]
        assert "_dense" in vars(outs) and outs[x].base is p.base
        assert not any("_dense" in vars(o) for a, o in d.measurements.items() if a != (1, 2))

    def test_exact_steps_build_no_dense_projector(self, fresh_magic_square, capsys):
        argv = ["enumerate", "--game", "magic-square", "--device", "magic-square:combined",
                "--n", "2", "--q", "0.3", "--chi", "0.5", "--eps", "0.1"]
        assert main(argv) == 0
        assert main(["magic-square-demo"]) == 0
        game = fresh_magic_square.game
        for eps in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
            scoring.randomness_report(game, fresh_magic_square.devices["combined"], eps)
        capsys.readouterr()
        for name in MIXTURES:
            outs = fresh_magic_square.devices[name].measurements.values()
            assert not any("_dense" in vars(o) for o in outs), name

    def test_parts_with_unitaries_are_refused(self):
        one = np.eye(1)
        d = make_device(GENERAL, (1,), one, {0: {0: one}}, unitaries={0: one})
        with pytest.raises(DeviceError):
            direct_sum([(1.0, d)])


@pytest.fixture
def components_calls(monkeypatch):
    """Each components_device call the catalog and the see-saw make, with its site measurements."""
    calls = []

    def spy(site_dims, state, site_measurements, *args, **kwargs):
        calls.append((site_measurements,
                      components_device(site_dims, state, site_measurements, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(catalog, "components_device", spy)
    monkeypatch.setattr(classicaloracle, "components_device", spy)
    return calls


def test_components_projectors_equal_kron(components_calls):
    catalog.chsh_optimal_device()
    catalog.chsh_classical_device()
    for pair in catalog.ms_answer_pairs():
        catalog.ms_pair_device.__wrapped__(*pair)
    classicaloracle.seesaw(catalog.get_game("chsh"), (2, 2), restarts=1, iters=3, seed=1)
    classicaloracle.seesaw(catalog.get_game("magic-square"), (4, 4), restarts=1, iters=2, seed=1)
    assert len(components_calls) == 12
    for site_measurements, d in components_calls:
        ref = dense.kron_projectors(site_measurements)
        assert list(d.measurements) == list(ref)
        for a, outs in ref.items():
            assert list(d.measurements[a]) == list(outs)
            for x, p in outs.items():
                assert_same_bits(d.measurements[a][x], p)


def base_array(a):
    """The array that owns a view's memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.fixture(scope="module")
def ms_witness():
    """A 4x4 Magic Square see-saw witness: 576 projectors of 16x16, one block."""
    g = catalog.get_game("magic-square")
    return classicaloracle.seesaw(g, (4, 4), restarts=1, iters=2, seed=1).device


def catalog_devices():
    return [*catalog.chsh().devices.values(), *catalog.magic_square().devices.values()]


class TestSingleStorage:
    def test_measurements_share_the_projector_blocks(self, ms_witness):
        for d in (catalog.get_device("chsh:optimal"), ms_witness):
            assert [idx.shape for idx in d.blocks] == [(1, d.dim)]
            for a, outs in d.measurements.items():
                for x in outs:
                    assert np.shares_memory(outs[x], d.projector_blocks[a][0])

    def test_witness_holds_one_projector_array_per_letter(self, ms_witness):
        d = ms_witness
        arrays = [p for outs in d.measurements.values() for p in outs.values()]
        arrays += [s for stacks in d.projector_blocks.values() for s in stacks]
        arrays += [s for stacks in d.round_ops.values() for s in stacks]
        bases = {id(base_array(m)): base_array(m) for m in arrays}
        assert len(bases) == len(d.measurements) == 9
        assert sum(b.nbytes for b in bases.values()) == 576 * 16 * 16 * 16

    def test_round_ops_without_a_unitary_are_the_projector_blocks(self):
        for d in catalog_devices():
            for a in d.measurements:
                assert d.round_ops[a] is d.projector_blocks[a]

    def test_round_ops_with_a_unitary_equal_the_dense_oracle(self):
        d = random_device(8)
        one = make_device(GENERAL, (3,), d.state, d.measurements, unitaries={1: d.unitaries[1]})
        for dev in (d, one):
            for a, outs in dev.measurements.items():
                if a not in dev.unitaries:
                    assert dev.round_ops[a] is dev.projector_blocks[a]
                    continue
                ref = matcore.split_blocks(np.stack([dev.unitaries[a] @ p for p in outs.values()]),
                                           dev.blocks)
                for op, ref_op in zip(dev.round_ops[a], ref, strict=True):
                    assert np.allclose(op, ref_op, rtol=0, atol=1e-15)
                    assert not op.flags.writeable

    def test_stacks_keep_the_layout_of_split_blocks(self):
        opt = catalog.get_device("chsh:optimal")
        raw = {a: dict(outs) for a, outs in opt.measurements.items()}
        for d in (*catalog_devices(), make_device(GENERAL, (4,), opt.state, raw)):
            for f, ref in zip(d.state_blocks, matcore.split_blocks(d.state, d.blocks), strict=True):
                assert live_strides(f) == live_strides(ref)
            for a, outs in d.measurements.items():
                ref = matcore.split_blocks(np.stack(list(outs.values())), d.blocks)
                for stacks in (d.projector_blocks[a], d.round_ops[a]):
                    for p, ref_p in zip(stacks, ref, strict=True):
                        assert_same_bits(p, ref_p)
                        assert live_strides(p) == live_strides(ref_p)

    def test_fresh_mass_equals_the_split_stacks_bit_for_bit(self):
        d = catalog.chsh_optimal_device()
        ref = dataclasses.replace(d)
        ref.__dict__["projector_blocks"] = {
            a: tuple(matcore.split_blocks(np.stack(list(outs.values())), d.blocks))
            for a, outs in d.measurements.items()
        }
        g = catalog.chsh_game()
        masses = [protocol.enumerate_success_state(g, dev, 3, q=0.5, chi=0.5, eps=0.2).mass
                  for dev in (d, ref)]
        assert masses == [0.8116474450410949] * 2

    def test_mixed_shape_letters_are_kept_for_validation(self):
        d = misfit_projector_device()
        outs = d.measurements[0]
        assert [p.shape for p in outs.values()] == [(2, 2), (3, 3)]
        assert not any(p.flags.writeable for p in outs.values())


class TestReadOnlyMaps:
    def devices(self):
        d = random_device(3)
        return [
            catalog.get_device("chsh:optimal"),
            catalog.get_device("magic-square:pair-000-001"),
            d,
            dataclasses.replace(d, measurements={a: dict(outs) for a, outs in d.measurements.items()}),
        ]

    def test_measurements_and_unitaries_refuse_assignment(self):
        for d in self.devices():
            a = next(iter(d.measurements))
            with pytest.raises(TypeError):
                d.measurements[a] = {}
            with pytest.raises(TypeError):
                d.measurements[a][next(iter(d.measurements[a]))] = np.eye(d.dim)
            with pytest.raises(TypeError):
                d.unitaries[a] = np.eye(d.dim)
            for outs in d.measurements.values():
                assert not any(p.flags.writeable for p in outs.values())

    def test_catalog_device_keeps_its_measurements(self):
        d = catalog.get_device("chsh:optimal")
        with pytest.raises(TypeError):
            d.measurements[(0, 0)] = {}
        assert len(catalog.get_device("chsh:optimal").measurements[(0, 0)]) == 4

    def test_make_device_copies_its_inputs(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        d = make_device(GENERAL, (2,), np.eye(2) / 2, {0: {0: p, 1: np.eye(2) - p}})
        p[0, 0] = 0.0
        assert d.measurements[0][0][0, 0] == 1.0

    def test_a_device_of_unknown_kind_cannot_be_built(self):
        # however it is built: "abstract" is no device kind
        d = catalog.get_device("chsh:optimal")
        with pytest.raises(DeviceError, match="unknown device kind 'abstract'"):
            dataclasses.replace(d, kind="abstract")
        with pytest.raises(DeviceError, match="unknown device kind 'abstract'"):
            make_device("abstract", (2,), np.eye(2) / 2, {0: {0: np.eye(2)}})


class TestDirectSumErrors:
    def test_part_without_a_joined_input_letter(self):
        parts = [(0.5, catalog.get_device("chsh:optimal")),
                 (0.5, catalog.get_device("magic-square:pair-000-001"))]
        with pytest.raises(DeviceError, match="does not measure input letter"):
            direct_sum(parts)

    @pytest.mark.parametrize("weights", [(-0.5, 1.5), (0.0, 1.0), (math.nan, 0.5), (math.inf, 1.0)])
    def test_weights_must_be_positive_and_finite(self, weights):
        d = catalog.get_device("chsh:optimal")
        with pytest.raises(DeviceError, match="positive and finite"):
            direct_sum([(w, d) for w in weights])

    def test_no_parts(self):
        with pytest.raises(DeviceError, match="at least one part"):
            direct_sum([])
