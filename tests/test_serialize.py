"""write_json against its oracle json.dumps(doc, indent=2) + "\\n", byte for byte.

The forms the writer takes beyond JSON values (numpy arrays, Rows) are
compared with the plain JSON values they stand for: an array is the list of
its floats (complex interleaved re, im), Rows the list of its objects.
"""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohrank import (
    OrbitWitness,
    WeightedEnsemble,
    dio_synthesize,
    dual_flag_ensemble,
    fourier_flag_mixture,
    noisy_max_coherent,
    power_pair_witness,
    verify_ensemble,
)
from cohrank import serialize
from cohrank.serialize import (
    Rows,
    Sparse,
    channel_to_json,
    ensemble_from_json,
    ensemble_to_json,
    matrix_to_json,
    vector_to_json,
    write_json,
)


def written(doc) -> str:
    buf = io.StringIO()
    write_json(doc, buf)
    return buf.getvalue()


def oracle(plain) -> str:
    return json.dumps(plain, indent=2) + "\n"


def plain_array(a: np.ndarray) -> list:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        out = np.empty(2 * a.size)
        out[0::2], out[1::2] = a.real.ravel(), a.imag.ravel()
        return out.tolist()
    return a.astype(float).ravel().tolist()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1, 1e16, 1e-5, 2.0**0.5,
           math.nan, math.inf, -math.inf]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
# Mostly zeros, so the writer's zero-run path is exercised as well as the dense one.
sparse_floats = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.just(0.0), floats)
float_lists = st.one_of(st.lists(floats, max_size=80), st.lists(sparse_floats, max_size=160))


@st.composite
def arrays(draw):
    values = draw(float_lists)
    if draw(st.booleans()):
        imag = draw(st.lists(sparse_floats, min_size=len(values), max_size=len(values)))
        a = np.array(values, dtype=float) + 0j
        a.imag = imag
    else:
        a = np.array(values, dtype=float)
    if a.size % 2 == 0 and a.size and draw(st.booleans()):
        a = a.reshape(2, -1)
    return a


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=8),
    st.sampled_from(["", "\"quoted\"", "back\\slash", "tab\tnew\nline", "\x00\x1f", "café ☃ \U0001f600"]),
)
keys = st.text(max_size=6)
leaves = st.one_of(
    scalars.map(lambda v: (v, v)),
    arrays().map(lambda a: (a, plain_array(a))),
)


def containers(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        items.map(lambda xs: ([lazy for lazy, _ in xs], [p for _, p in xs])),
        items.map(lambda xs: (tuple(lazy for lazy, _ in xs), [p for _, p in xs])),
        st.dictionaries(keys, children, max_size=4).map(
            lambda d: ({k: v[0] for k, v in d.items()}, {k: v[1] for k, v in d.items()})
        ),
    )


documents = st.recursive(leaves, containers, max_leaves=24)
# Zeros per shared fragment of a run: the default, and sizes that split short runs.
units = st.sampled_from([serialize.ZERO_UNIT, 1, 3])


@st.composite
def row_lists(draw):
    """A Rows value and its plain list of objects."""
    keys = draw(st.lists(st.text(max_size=5), min_size=1, max_size=4, unique=True))
    kinds = draw(
        st.lists(st.sampled_from(["float", "list", "complex", "scalar"]),
                 min_size=len(keys), max_size=len(keys))
        .filter(lambda kinds: set(kinds) != {"scalar"})
    )
    width = draw(st.integers(0, 70))
    blocks, plain = [], []
    for _ in range(draw(st.integers(0, 3))):
        count = draw(st.integers(1, 4))
        block, columns = {}, []
        for key, kind in zip(keys, kinds):
            if kind == "scalar":
                value = draw(scalars)
                block[key], column = value, [value] * count
            elif kind == "float":
                values = draw(st.lists(floats, min_size=count, max_size=count))
                block[key], column = np.array(values), values
            else:
                flat = draw(st.lists(sparse_floats, min_size=count * width, max_size=count * width))
                a = np.array(flat, dtype=float).reshape(count, width)
                if kind == "complex":
                    real, a = a, a.astype(complex)
                    a.imag = real[:, ::-1]
                block[key], column = Sparse.scan(a), [plain_array(row) for row in a]
            columns.append(column)
        blocks.append(block)
        plain += [dict(zip(keys, row)) for row in zip(*columns)]
    return Rows(lambda: iter(blocks)), plain


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(pair=documents, chunk=st.sampled_from([serialize.FLOAT_CHUNK, 3, 64]), unit=units)
    def test_matches_json_dumps(self, pair, chunk, unit):
        lazy, plain = pair
        with mock.patch.object(serialize, "FLOAT_CHUNK", chunk), mock.patch.object(serialize, "ZERO_UNIT", unit):
            assert written(lazy) == oracle(plain)

    @settings(max_examples=100, deadline=None)
    @given(pair=row_lists(), level=st.integers(0, 2), unit=units)
    def test_rows_match_json_dumps(self, pair, level, unit):
        lazy, plain = pair
        for _ in range(level):
            lazy, plain = {"k": lazy}, {"k": plain}
        with mock.patch.object(serialize, "ZERO_UNIT", unit):
            assert written(lazy) == oracle(plain)

    @pytest.mark.parametrize(
        "make_doc,plain",
        [
            (lambda: {}, {}),
            (lambda: {"a": []}, {"a": []}),
            (lambda: [[], {}, ()], [[], {}, []]),
            (lambda: np.array([]), []),
            (lambda: np.array(2.5), [2.5]),
            (lambda: np.zeros((3, 0)), []),
            (lambda: Rows(lambda: iter([])), []),
            (lambda: None, None),
            (lambda: "x", "x"),
            (lambda: -0.0, -0.0),
            (lambda: [np.float64(-0.0), True, False, 0], [-0.0, True, False, 0]),
        ],
    )
    def test_edge_documents(self, make_doc, plain):
        assert written(make_doc()) == oracle(plain)

    def test_long_array_is_written_in_chunks(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(300) * (rng.random(300) < 0.1)
        a[7] = -0.0
        monkeypatch.setattr(serialize, "FLOAT_CHUNK", 16)
        sink = mock.Mock(wraps=io.StringIO())
        write_json({"entries": a}, sink)
        assert sink.write.call_count > 300 // 16
        assert "".join(c.args[0] for c in sink.write.call_args_list) == oracle(
            {"entries": a.tolist()}
        )

    def test_rows_block_needs_an_array_column(self):
        with pytest.raises(ValueError, match="array column"):
            written(Rows(lambda: [{"dim": 3}]))

    def test_rows_column_must_be_an_array_or_a_scalar(self):
        with pytest.raises(TypeError, match="Rows column"):
            written(Rows(lambda: [{"weight": np.ones(2), "tags": ["a"]}]))

    def test_rows_list_column_is_sparse(self):
        """A list-per-row column is given by its nonzeros; a 2-D array is refused,
        not written as one float per row."""
        with pytest.raises(TypeError, match="Rows column must be a 1-D array, Sparse"):
            written(Rows(lambda: [{"weight": np.ones(2), "amplitudes": np.ones((2, 3))}]))

    @pytest.mark.parametrize(
        "doc",
        # the repr of an object or an iterator holds its address, so those two
        # cases are named by the expression that builds them
        [pytest.param({"a": object()}, id="{'a': object()}"), [b"bytes"], {(1,): 2},
         {"a": {1j: 1}}, [np.int64(1)], [np.bool_(True)], pytest.param(iter([]), id="iter([])")],
        ids=repr,
    )
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            written(doc)

    @pytest.mark.parametrize("key", [1, 0.5, True, None])
    def test_refuses_keys_json_would_coerce(self, key):
        # no document the package writes has them; refusing beats guessing
        with pytest.raises(TypeError, match="keys must be str"):
            written({"a": {key: 1}})


def eager_ensemble(ens, report=None):
    """The whole-document form the lazy ensemble_to_json stands for."""
    doc = {
        "target_dim": ens.target_dim,
        "members": [{"weight": float(w), **vector_to_json(psi)} for w, psi in ens.members()],
    }
    if report is not None:
        doc["report"] = {
            "reconstruction_trace_distance": report.reconstruction_trace_distance,
            "max_member_rank": report.max_member_rank,
            "weight_sum": report.weight_sum,
            "feasible": report.feasible,
        }
    return doc


# Orbit witnesses, written from their labels, on both feasible sides: inside
# the boundary (with basis members) and at its repr (none), plus lifted ones.
ORBITS = [
    *(pytest.param(power_pair_witness(0.3 * (2 ** (1 / n) - 1), n), id=f"orbit-n{n}")
      for n in range(1, 7)),
    *(pytest.param(power_pair_witness(2 ** (1 / n) - 1, n), id=f"orbit-boundary-n{n}")
      for n in range(1, 7)),
    *(pytest.param(power_pair_witness(0.3 * (2 ** (1 / n) - 1), n).lifted(), id=f"orbit-lifted-n{n}")
      for n in range(1, 4)),
    pytest.param(power_pair_witness(1.0, 1).lifted(), id="orbit-lifted-boundary-n1"),
]


class TestLazyDocuments:
    @pytest.mark.parametrize("block", [serialize.MEMBER_BLOCK, 1, 7])
    @pytest.mark.parametrize(
        "ens",
        [
            pytest.param(power_pair_witness(0.1, 3), id="orbit"),
            pytest.param(power_pair_witness(2 ** 0.25 - 1, 4), id="orbit-boundary"),
            pytest.param(power_pair_witness(0.2, 2).lifted(), id="orbit-lifted"),
            pytest.param(dual_flag_ensemble(5), id="flag"),
            pytest.param(dual_flag_ensemble(2).lifted(), id="flag-lifted"),
            pytest.param(
                WeightedEnsemble(
                    weights=np.array([0.25, 0.75]),
                    states=np.array([[1.0, 0.0, -0.0], [0.6, 0.0, 0.8j]]),
                ),
                id="weighted",
            ),
            *ORBITS,
        ],
    )
    def test_ensemble_document(self, ens, block, monkeypatch):
        monkeypatch.setattr(serialize, "MEMBER_BLOCK", block)
        target = ens.reconstruction()
        report = verify_ensemble(ens, target)
        assert written(ensemble_to_json(ens, report)) == oracle(eager_ensemble(ens, report))
        assert written(ensemble_to_json(ens)) == oracle(eager_ensemble(ens))

    def test_documents_can_be_written_twice(self):
        ens = power_pair_witness(0.1, 3)
        report = verify_ensemble(ens, ens.reconstruction())
        doc = ensemble_to_json(ens, report)
        first = written(doc)
        assert written(doc) == first == oracle(eager_ensemble(ens, report))
        ch = dio_synthesize(fourier_flag_mixture(3), 2)
        doc = channel_to_json(ch)
        assert written(doc) == written(doc)

    @pytest.mark.parametrize(
        "ens",
        [power_pair_witness(0.1, 3), power_pair_witness(0.2, 2).lifted(), dual_flag_ensemble(4)],
        ids=["orbit", "orbit-lifted", "flag"],
    )
    def test_in_memory_round_trip(self, ens, monkeypatch):
        """Iterating Rows yields plain member dicts, so ensemble_from_json reads
        the lazy document itself, not only its written text."""
        monkeypatch.setattr(serialize, "MEMBER_BLOCK", 7)
        doc = ensemble_to_json(ens)
        assert list(doc["members"]) == eager_ensemble(ens)["members"]
        back = ensemble_from_json(doc)
        np.testing.assert_array_equal(back.weights, ens.weights)
        np.testing.assert_array_equal(back.states, np.array([psi for _, psi in ens.members()]))

    def test_ensemble_members_are_built_on_write(self):
        ens = power_pair_witness(0.1, 2)
        with mock.patch.object(OrbitWitness, "label_blocks", side_effect=AssertionError):
            doc = ensemble_to_json(ens)
        assert isinstance(doc["members"], Rows)

    @pytest.mark.parametrize("target,d", [(fourier_flag_mixture(3), 2), (noisy_max_coherent(0.3), 3)])
    def test_channel_document(self, target, d):
        ch = dio_synthesize(target, d)
        eager = {
            "input_dim": ch.input_dim,
            "output_dim": ch.output_dim,
            "choi": matrix_to_json(ch.choi, dims=(ch.input_dim, ch.output_dim)),
            "component_a": matrix_to_json(ch.component_a),
            "component_b": matrix_to_json(ch.component_b),
            "component_d": matrix_to_json(ch.component_d),
            "component_z": matrix_to_json(ch.component_z),
        }
        assert written(channel_to_json(ch)) == oracle(eager)
