"""JSON encodings for matrices, states, ensembles and channels, and the one writer.

Matrix schema: {"dim": n, "entries": [re0, im0, re1, im1, ...]} with entries
row-major interleaved; bipartite values add {"dims": [dA, dB]}. Pure states
use {"dim": n, "amplitudes": [re0, im0, ...]}.

write_json streams a document to a text file with exactly the bytes that the
json module's dumps writes at indent=2, plus a newline. Besides JSON values it
takes numpy arrays (the flat list of their values, a complex array interleaved
as in the schema) and Rows (a lazy list of objects given in blocks of
columns). ensemble_to_json and channel_to_json build such documents, so
nothing the size of the document is ever formed, and each can be written
more than once. Every list of floats goes through one row formatter, which
takes the nonzeros of a block (Sparse): a dense array is scanned for them,
and an orbit witness's members are given by their labels, never as vectors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import DioChannel
from .decompositions import PAIR_AMP, Ensemble, EnsembleReport, OrbitWitness, WeightedEnsemble
from .kernel import as_complex_matrix
from .states import mc_labels

INDENT = "  "
# Array floats formatted per numpy pass (and per write).
FLOAT_CHUNK = 1 << 16
# Ensemble members formatted per numpy pass (and per write).
MEMBER_BLOCK = 512
# A run of zeros is written as fragments of up to this many "0.0" each.
ZERO_UNIT = 64


def _floats(values) -> np.ndarray:
    """C-contiguous float64 values, at least 1-D; complex values interleave re, im
    along the last axis (a view when no copy is needed)."""
    a = np.atleast_1d(np.asarray(values))
    if np.iscomplexobj(a):
        return np.ascontiguousarray(a, dtype=complex).view(float)
    return np.ascontiguousarray(a, dtype=float)


def _interleave(values: np.ndarray) -> list[float]:
    return _floats(np.asarray(values, dtype=complex)).reshape(-1).tolist()


def _deinterleave(entries: list[float]) -> np.ndarray:
    flat = np.asarray(entries, dtype=float)
    if flat.size % 2:
        raise ValueError("interleaved payload must have an even number of floats")
    return flat[0::2] + 1j * flat[1::2]


def _matrix_doc(m, dims: tuple[int, int] | None = None) -> dict:
    m = as_complex_matrix(m)
    doc: dict = {"dim": m.shape[0], "entries": m}
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
    return doc


def matrix_to_json(m, dims: tuple[int, int] | None = None) -> dict:
    doc = _matrix_doc(m, dims)
    doc["entries"] = _interleave(doc["entries"])
    return doc


def matrix_from_json(doc: dict) -> np.ndarray:
    dim = int(doc["dim"])
    flat = _deinterleave(doc["entries"])
    if flat.size != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def vector_to_json(psi) -> dict:
    psi = np.asarray(psi, dtype=complex)
    return {"dim": psi.size, "amplitudes": _interleave(psi)}


def vector_from_json(doc: dict) -> np.ndarray:
    dim = int(doc["dim"])
    flat = _deinterleave(doc["amplitudes"])
    if flat.size != dim:
        raise ValueError(f"expected {dim} amplitudes, got {flat.size}")
    return flat


@dataclass(frozen=True)
class Sparse:
    """A 2-D block of floats given by its nonzeros: values[e] at (rows[e], cols[e]),
    sorted by row, then column; every other entry is 0.0."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def scan(cls, block) -> Sparse:
        """The nonzeros of a 2-D array, complex interleaved. +0.0 is the one float
        whose bits are all zero, so the scan keeps -0.0, which json writes "-0.0"."""
        block = _floats(block)
        rows, cols = np.nonzero(block.view(np.int64))
        return cls(block.shape, rows, cols, block[rows, cols])

    def dense(self) -> np.ndarray:
        """The block as a 2-D float array."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


class Rows:
    """A lazy JSON list of objects that share their keys, given in blocks of columns.

    Each block maps every key, in order, to a column over the block's rows:
    a 1-D array (one float per row), a Sparse block (one list of floats per
    row) or a JSON scalar shared by every row; at least one column is not a
    scalar. write_json formats a whole block per numpy pass.
    blocks is a function of no arguments that returns the blocks; write_json
    calls it on every write, so the same document can be written again.
    """

    def __init__(self, blocks: Callable[[], Iterable[dict]]):
        self.blocks = blocks

    def __iter__(self):
        """The objects one at a time, as plain dicts of JSON values."""
        for block in self.blocks():
            columns = [
                c.dense().tolist() if isinstance(c, Sparse)
                else _floats(c).tolist() if isinstance(c, np.ndarray)
                else repeat(c)
                for c in block.values()
            ]
            for values in zip(*columns):
                yield dict(zip(block, values))


def _member_blocks(ens: Ensemble):
    """Rows blocks of MEMBER_BLOCK members, the amplitudes (interleaved) as nonzeros.

    An orbit witness's members come from their labels: a pair member holds
    PAIR_AMP at the real parts of its two labels, a basis member 1.0 at its
    one. Dense rows are scanned, and a lifted row's nonzeros are moved to
    its labels, so no member vector is formed.
    """
    dim = ens.target_dim
    if isinstance(ens, OrbitWitness):
        for weights, labels in ens.label_blocks(MEMBER_BLOCK):
            count, width = labels.shape
            rows = np.repeat(np.arange(count), width)
            values = np.full(labels.size, PAIR_AMP if width == 2 else 1.0)
            yield {
                "weight": weights,
                "dim": dim,
                "amplitudes": Sparse((count, 2 * dim), rows, 2 * labels.reshape(-1), values),
            }
        return
    size = ens.states.shape[1]
    labels = mc_labels(size) if ens.lift else np.arange(size)
    columns = (2 * labels[:, None] + np.arange(2)).reshape(-1)  # re at 2 * label, im after it
    for start in range(0, len(ens), MEMBER_BLOCK):
        rows = Sparse.scan(ens.states[start : start + MEMBER_BLOCK].astype(complex))
        yield {
            "weight": ens.weights[start : start + MEMBER_BLOCK],
            "dim": dim,
            "amplitudes": Sparse((rows.shape[0], 2 * dim), rows.rows, columns[rows.cols], rows.values),
        }


def ensemble_to_json(ens: Ensemble, report: EnsembleReport | None = None) -> dict:
    """Lazy document for write_json: members are built MEMBER_BLOCK at a time, on write."""
    doc: dict = {"target_dim": ens.target_dim, "members": Rows(lambda: _member_blocks(ens))}
    if report is not None:
        doc["report"] = asdict(report)
    return doc


def ensemble_from_json(doc: dict) -> WeightedEnsemble:
    members = doc["members"]
    weights = np.array([m["weight"] for m in members])
    states = np.array([vector_from_json(m) for m in members])
    return WeightedEnsemble(weights=weights, states=states)


def channel_to_json(ch: DioChannel) -> dict:
    """Document for write_json; the matrix entries stay numpy arrays until written."""
    return {
        "input_dim": ch.input_dim,
        "output_dim": ch.output_dim,
        "choi": _matrix_doc(ch.choi, dims=(ch.input_dim, ch.output_dim)),
        "component_a": _matrix_doc(ch.component_a),
        "component_b": _matrix_doc(ch.component_b),
        "component_d": _matrix_doc(ch.component_d),
        "component_z": _matrix_doc(ch.component_z),
    }


def channel_from_json(doc: dict) -> DioChannel:
    return DioChannel(
        input_dim=int(doc["input_dim"]),
        output_dim=int(doc["output_dim"]),
        choi=matrix_from_json(doc["choi"]),
        component_a=matrix_from_json(doc["component_a"]),
        component_b=matrix_from_json(doc["component_b"]),
        component_d=matrix_from_json(doc["component_d"]),
        component_z=matrix_from_json(doc["component_z"]),
    )


def _floatstr(x: float) -> str:
    """json's float encoding: repr, with NaN and the infinities spelled out."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _float_texts(values: np.ndarray) -> list[str]:
    """json's text of each float, formatting each distinct value once.

    Distinct means distinct bits, so -0.0 stays apart from 0.0.
    """
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(_floatstr, distinct.view(float).tolist()))
    return list(map(texts.__getitem__, index.tolist()))


@lru_cache(maxsize=16)  # one entry per nesting level in use
def _zero_runs(sep: str, unit: int) -> tuple[str, tuple[str, ...]]:
    """unit zeros, each followed by sep, and the runs of 0 .. unit - 1 of them."""
    zero = "0.0" + sep
    return zero * unit, tuple(zero * k for k in range(unit))


def _float_rows(block: Sparse, opening: str, sep: str, closing: str) -> list[list[str]]:
    """The one row formatter: the text of each row of a block (width > 0), as
    fragments: opening, the floats as json writes them joined by sep, closing.

    Only the nonzeros are formatted, each distinct one once. A run of zeros
    is made of shared fragments of at most ZERO_UNIT zeros, so no text is
    copied until the fragments are joined to be written.
    """
    count, width = block.shape
    texts = _float_texts(block.values)
    cols = block.cols
    starts = np.searchsorted(block.rows, np.arange(count + 1))  # row k: entries starts[k]:starts[k + 1]
    # zeros before each entry, back to the previous entry of its row or the row's start
    previous = np.concatenate(([-1], cols[:-1]))
    previous[starts[:-1][starts[:-1] < cols.size]] = -1
    units, rests = (a.tolist() for a in np.divmod(cols - previous - 1, ZERO_UNIT))
    # zeros after each row's last entry; the last of them is written before closing
    last = np.where(starts[1:] > starts[:-1], np.append(cols, -1)[starts[1:] - 1], -1)
    after = (width - 1 - last).tolist()
    tail_units, tail_rests = (a.tolist() for a in np.divmod(width - 2 - last, ZERO_UNIT))
    unit, runs = _zero_runs(sep, ZERO_UNIT)
    out, bounds = [], starts.tolist()
    for k in range(count):
        row = [opening]
        for e in range(bounds[k], bounds[k + 1]):
            row += [unit] * units[e]
            row += (runs[rests[e]], texts[e], sep)
        if after[k]:
            row += [unit] * tail_units[k]
            row += (runs[tail_rests[k]], "0.0", closing)
        else:
            row[-1] = closing
        out.append(row)
    return out


def _keyed(item: tuple) -> tuple[str, object]:
    key, value = item
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key) + ": ", value


def _scalar(value) -> str | None:
    """json's text of a str, None, bool, int or float (subclasses too, in json's
    order: a numpy float64 is a float, a numpy bool or int64 is none of them);
    None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _floatstr(value)
    return None


def write_json(doc, fh) -> None:
    """Stream doc to the text file fh: json's dumps text at indent=2, plus a newline.

    doc may hold, besides JSON values, numpy arrays (written as the flat list
    of their values, a complex array interleaved re, im) and Rows. Text is
    written every Rows block and every FLOAT_CHUNK values of a long array, so
    memory is bounded by one of those, not by the document. Dict keys must
    be str.
    """
    pieces: list[str] = []

    def flush() -> None:
        fh.write("".join(pieces))
        pieces.clear()

    def encode(value, level: int) -> None:
        text = _scalar(value)
        if text is not None:
            pieces.append(text)
        elif isinstance(value, dict):
            encode_items(map(_keyed, value.items()), level, "{", "}")
        elif isinstance(value, np.ndarray):
            encode_array(value, level)
        elif isinstance(value, Rows):
            encode_rows(value, level)
        elif isinstance(value, (list, tuple)):
            encode_items((("", item) for item in value), level, "[", "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def encode_items(items, level: int, opening: str, closing: str) -> None:
        """A dict or list from (key prefix, value) pairs; the prefix is "" in a list."""
        inner = "\n" + INDENT * (level + 1)
        separator = opening + inner
        for prefix, item in items:
            pieces.append(separator + prefix)
            encode(item, level + 1)
            separator = "," + inner
        pieces.append(opening + closing if separator[0] == opening else "\n" + INDENT * level + closing)

    def array_text(block: Sparse, level: int, head: str = "") -> list[list[str]]:
        """The JSON list text of each row of a block, after head, as fragments."""
        if not block.shape[1]:
            return [[head + "[]"]] * block.shape[0]
        inner = "\n" + INDENT * (level + 1)
        return _float_rows(block, head + "[" + inner, "," + inner, "\n" + INDENT * level + "]")

    def encode_array(value: np.ndarray, level: int) -> None:
        flat = _floats(value).reshape(-1)
        if flat.size <= FLOAT_CHUNK:
            pieces.extend(array_text(Sparse.scan(flat[None, :]), level)[0])
            return
        inner = "\n" + INDENT * (level + 1)
        opening = "[" + inner
        for start in range(0, flat.size, FLOAT_CHUNK):
            chunk = Sparse.scan(flat[None, start : start + FLOAT_CHUNK])
            pieces.extend(_float_rows(chunk, opening, "," + inner, "")[0])
            opening = "," + inner
            flush()
        pieces.append("\n" + INDENT * level + "]")

    def encode_rows(value: Rows, level: int) -> None:
        inner = "\n" + INDENT * (level + 1)
        field = "\n" + INDENT * (level + 2)
        closing = "\n" + INDENT * (level + 1) + "}"
        opening = "[" + inner
        for block in value.blocks():
            lengths = [c.shape[0] for c in block.values() if isinstance(c, (np.ndarray, Sparse))]
            if not lengths:
                raise ValueError("a Rows block needs at least one array column")
            columns = []  # per column, the fragments of each row, after the key
            for key, column in block.items():
                head = ("{" if not columns else ",") + field + encode_basestring_ascii(key) + ": "
                if isinstance(column, Sparse):
                    columns.append(array_text(column, level + 2, head))
                elif isinstance(column, np.ndarray) and column.ndim == 1:
                    columns.append([[head + text] for text in _float_texts(_floats(column))])
                else:
                    text = _scalar(column)
                    if text is None:
                        name = type(column).__name__
                        raise TypeError(f"a Rows column must be a 1-D array, Sparse or a JSON scalar, not {name}")
                    columns.append([[head + text]] * lengths[0])
            for fields in zip(*columns):
                pieces.append(opening)
                for fragments in fields:
                    pieces.extend(fragments)
                pieces.append(closing)
                opening = "," + inner
            flush()
        pieces.append("[]" if opening[0] == "[" else "\n" + INDENT * level + "]")

    encode(doc, 0)
    pieces.append("\n")
    flush()
