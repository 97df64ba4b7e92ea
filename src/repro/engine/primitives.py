"""Vectorised neighbour reductions over CSR neighbourhoods.

Paper context: §1.1 — in the synchronous model a round is "receive from
all neighbours, compute, send to all neighbours", so per-vertex state
that depends on the neighbourhood is a *neighbour reduction* over the
flat CSR buffers of :class:`~repro.graphs.graph.Graph`.  The batch
engine needs one: the live degree of every vertex in the current phase
(:func:`live_degrees`, the broadcast fan-out), built on the dense
receiver-side sum :func:`gather_sum`.  Both come in a pure-Python and a
numpy form (see :mod:`repro.engine._backend`).

Determinism contract: both backends return bit-identical results.
Integer sums are order-independent; **floating-point sums are
deliberately excluded from the numpy path** — :func:`gather_sum` falls
back to Python for float arrays so accumulation order never depends on
the backend.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from . import _backend
from ._backend import WIDE_THRESHOLD, np

__all__ = ["gather_sum", "live_degrees"]


def _np_values(values, dtype=None):
    """A numpy view of ``values`` (zero-copy for ``array``/``bytearray``)."""
    if isinstance(values, bytearray):
        return np.frombuffer(values, dtype=dtype or np.uint8)
    if isinstance(values, array):
        return np.frombuffer(values, dtype=dtype or values.typecode)
    return np.asarray(values, dtype=dtype)


def gather_sum(graph, values: Sequence, source_mask=None) -> list:
    """Per-vertex sum of neighbour values.

    Integer inputs may take the vectorised path (exact, order-free);
    float inputs always use the sequential Python loop so that both
    backends accumulate in the same order, keeping results bit-identical.
    """
    n = graph.num_vertices
    indptr, indices = graph.csr()
    # The int64 fast path requires *provably* integer inputs — anything
    # else (floats, float32 ndarrays, exotic numerics) takes the Python
    # loop, whose sequential accumulation is the semantics of record.
    if isinstance(values, array):
        is_float = values.typecode in ("d", "f")
    elif isinstance(values, (bytearray, bytes)):
        is_float = False
    elif np is not None and isinstance(values, np.ndarray):
        is_float = values.dtype.kind not in ("i", "u", "b")
    else:
        is_float = not all(isinstance(v, int) for v in values)
    if _backend.enabled() and not is_float and len(indices) >= WIDE_THRESHOLD:
        np_indptr, np_indices = graph._numpy_csr()
        vals = _np_values(values).astype(np.int64, copy=False)
        gathered = vals[np_indices]
        if source_mask is not None:
            mask = _np_values(source_mask, dtype=np.uint8)[np_indices] != 0
            gathered = np.where(mask, gathered, 0)
        counts = np_indptr[1:] - np_indptr[:-1]
        # Pad with the additive identity so trailing empty rows keep all
        # reduceat start indices valid without clamping (which would
        # steal the previous row's final element).
        out = np.add.reduceat(np.append(gathered, 0), np_indptr[:-1])
        out[counts == 0] = 0
        return out.tolist()
    zero = 0.0 if is_float else 0
    result = [zero] * n
    for v in range(n):
        total = zero
        for position in range(indptr[v], indptr[v + 1]):
            u = indices[position]
            if source_mask is None or source_mask[u]:
                total += values[u]
        result[v] = total
    return result


def live_degrees(graph, live) -> array:
    """Per-vertex count of *live* neighbours, as a flat ``array('l')``.

    ``live`` is a 0/1 byte mask.  This is the degree of each vertex in
    the induced subgraph :math:`G_t` — the fan-out of a broadcast in the
    current phase — computed as one :func:`gather_sum` pass.
    """
    return array("l", gather_sum(graph, live))
