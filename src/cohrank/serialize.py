"""JSON encodings for matrices, states, ensembles and channels.

Matrix schema: {"dim": n, "entries": [re0, im0, re1, im1, ...]} with entries
row-major interleaved; bipartite values add {"dims": [dA, dB]}. Pure states
use {"dim": n, "amplitudes": [re0, im0, ...]}.
"""

from __future__ import annotations

import numpy as np

from .channels import DioChannel
from .decompositions import Ensemble, EnsembleReport, WeightedEnsemble
from .kernel import as_complex_matrix


def _interleave(values: np.ndarray) -> list[float]:
    flat = np.asarray(values, dtype=complex).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def _deinterleave(entries: list[float]) -> np.ndarray:
    flat = np.asarray(entries, dtype=float)
    if flat.size % 2:
        raise ValueError("interleaved payload must have an even number of floats")
    return flat[0::2] + 1j * flat[1::2]


def matrix_to_json(m, dims: tuple[int, int] | None = None) -> dict:
    m = as_complex_matrix(m)
    doc: dict = {"dim": m.shape[0], "entries": _interleave(m)}
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
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


def ensemble_to_json(ens: Ensemble, report: EnsembleReport | None = None) -> dict:
    doc: dict = {
        "target_dim": ens.target_dim,
        "members": [
            {"weight": float(w), **vector_to_json(state)}
            for w, state in ens.members()
        ],
    }
    if report is not None:
        doc["report"] = {
            "reconstruction_trace_distance": report.reconstruction_trace_distance,
            "max_member_rank": report.max_member_rank,
            "weight_sum": report.weight_sum,
            "feasible": report.feasible,
        }
    return doc


def ensemble_from_json(doc: dict) -> WeightedEnsemble:
    members = doc["members"]
    weights = np.array([m["weight"] for m in members])
    states = np.array([vector_from_json(m) for m in members])
    return WeightedEnsemble(weights=weights, states=states)


def channel_to_json(ch: DioChannel) -> dict:
    return {
        "input_dim": ch.input_dim,
        "output_dim": ch.output_dim,
        "choi": matrix_to_json(ch.choi, dims=(ch.input_dim, ch.output_dim)),
        "component_a": matrix_to_json(ch.component_a),
        "component_b": matrix_to_json(ch.component_b),
        "component_d": matrix_to_json(ch.component_d),
        "component_z": matrix_to_json(ch.component_z),
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
