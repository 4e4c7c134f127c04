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
more than once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import asdict
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import DioChannel
from .decompositions import Ensemble, EnsembleReport, WeightedEnsemble
from .kernel import as_complex_matrix

INDENT = "  "
# Array floats formatted per numpy pass (and per write).
FLOAT_CHUNK = 1 << 16
# Ensemble members formatted per numpy pass (and per write).
MEMBER_BLOCK = 512


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


class Rows:
    """A lazy JSON list of objects that share their keys, given in blocks of columns.

    Each block maps every key, in order, to a column over the block's rows:
    a 1-D array (one float per row), a 2-D array (one list of floats per
    row, complex interleaved) or a JSON scalar shared by every row; at least
    one column is an array. write_json formats a whole block per numpy pass.
    blocks is a function of no arguments that returns the blocks; write_json
    calls it on every write, so the same document can be written again.
    """

    def __init__(self, blocks: Callable[[], Iterable[dict]]):
        self.blocks = blocks

    def __iter__(self):
        """The objects one at a time, as plain dicts of JSON values."""
        for block in self.blocks():
            columns = [
                _floats(c).tolist() if isinstance(c, np.ndarray) else repeat(c) for c in block.values()
            ]
            for values in zip(*columns):
                yield dict(zip(block, values))


def _member_blocks(ens: Ensemble):
    members = ens.members()
    while block := list(islice(members, MEMBER_BLOCK)):
        weights, states = zip(*block)
        amplitudes = np.array(states, dtype=complex)
        yield {
            "weight": np.array(weights, dtype=float),
            "dim": amplitudes.shape[1],
            "amplitudes": amplitudes,
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


def _float_rows(block: np.ndarray, sep: str) -> list[str]:
    """The floats of each row of a 2-D block as json writes them, joined by sep.

    One nonzero scan covers the block. +0.0 is the one float whose bits are
    all zero, so the scan keeps -0.0, which json writes "-0.0". Only the
    nonzeros are formatted; each run of zeros is written by string repetition.
    """
    count, width = block.shape
    rows, cols = np.nonzero(block.view(np.int64))
    texts = _float_texts(block[rows, cols])
    cols = cols.tolist()
    zero = "0.0" + sep
    out, begin = [], 0
    for end in np.searchsorted(rows, np.arange(1, count + 1)).tolist():
        pieces, last = [], -1
        for col, text in zip(cols[begin:end], texts[begin:end]):
            pieces.append(zero * (col - last - 1) + text + sep)
            last = col
        out.append(("".join(pieces) + zero * (width - 1 - last))[: -len(sep)])
        begin = end
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

    def array_text(rows: np.ndarray, level: int) -> list[str]:
        """The JSON list text of each row of a 2-D float array."""
        if not rows.shape[1]:
            return ["[]"] * rows.shape[0]
        inner = "\n" + INDENT * (level + 1)
        closing = "\n" + INDENT * level + "]"
        return ["[" + inner + text + closing for text in _float_rows(rows, "," + inner)]

    def encode_array(value: np.ndarray, level: int) -> None:
        flat = _floats(value).reshape(-1)
        if flat.size <= FLOAT_CHUNK:
            pieces.extend(array_text(flat[None, :], level))
            return
        inner = "\n" + INDENT * (level + 1)
        opening = "[" + inner
        for start in range(0, flat.size, FLOAT_CHUNK):
            pieces.append(opening)
            pieces.extend(_float_rows(flat[None, start : start + FLOAT_CHUNK], "," + inner))
            opening = "," + inner
            flush()
        pieces.append("\n" + INDENT * level + "]")

    def encode_rows(value: Rows, level: int) -> None:
        inner = "\n" + INDENT * (level + 1)
        field = "\n" + INDENT * (level + 2)
        closing = "\n" + INDENT * (level + 1) + "}"
        opening = "[" + inner
        for block in value.blocks():
            lengths = [len(column) for column in block.values() if isinstance(column, np.ndarray)]
            if not lengths:
                raise ValueError("a Rows block needs at least one array column")
            heads, columns = [], []
            for key, column in block.items():
                heads.append(("{" if not heads else ",") + field + encode_basestring_ascii(key) + ": ")
                if not isinstance(column, np.ndarray):
                    text = _scalar(column)
                    if text is None:
                        name = type(column).__name__
                        raise TypeError(f"a Rows column must be an array or a JSON scalar, not {name}")
                    columns.append([text] * lengths[0])
                elif column.ndim == 2:
                    columns.append(array_text(_floats(column), level + 2))
                else:
                    columns.append(_float_texts(_floats(column)))
            for texts in zip(*columns):
                pieces.append(opening + "".join(map(str.__add__, heads, texts)) + closing)
                opening = "," + inner
            flush()
        pieces.append("[]" if opening[0] == "[" else "\n" + INDENT * level + "]")

    encode(doc, 0)
    pieces.append("\n")
    flush()
