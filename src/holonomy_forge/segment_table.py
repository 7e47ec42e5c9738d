"""Segment tables: the flat form of line and cubic chains that samplers read.

A chain of s segments is a pair (cubic, ctrl): kind flags of shape (s,)
and control points of shape (s, 4, dim), a line p0 -> p1 stored as
[p0, p0, p1, p1] so that reversing the rows of either kind reverses the
segment.  ``PathNd`` evaluates points and velocities through its table,
and reconstruction loops are built as bare tables (``SegmentChain``)
without path objects.  ``sample_pieces`` samples the smooth pieces of
many paths at once; it is what the holonomy integrators read.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SegmentChain",
    "table_rows",
    "bezier_points",
    "bezier_velocities",
    "thin_keep",
    "sample_pieces",
]


def table_rows(kind: str, points: np.ndarray) -> np.ndarray:
    """The four table rows of a segment given by its kind and control points."""
    return points if kind == "cubic" else points[[0, 0, 1, 1]]


def bezier_points(cubic, ctrl, u) -> np.ndarray:
    """Points of table segments at local parameters u in [0, 1].

    ``ctrl`` is (..., 4, dim), ``cubic`` (...) and ``u`` broadcasts against
    both; the result is (..., dim).  Both forms are convex combinations, so
    u = 0 and u = 1 give the end control points exactly.
    """
    u = np.asarray(u)[..., None]
    v = 1.0 - u
    out = v * ctrl[..., 0, :] + u * ctrl[..., 3, :]
    if np.any(cubic):
        bez = (
            v**3 * ctrl[..., 0, :]
            + 3 * v**2 * u * ctrl[..., 1, :]
            + 3 * v * u**2 * ctrl[..., 2, :]
            + u**3 * ctrl[..., 3, :]
        )
        out = np.where(np.asarray(cubic)[..., None], bez, out)
    return out


def bezier_velocities(cubic, ctrl, u) -> np.ndarray:
    """Derivatives d/du of table segments, laid out like ``bezier_points``."""
    u = np.asarray(u)[..., None]
    chord = ctrl[..., 3, :] - ctrl[..., 0, :]
    out = np.broadcast_to(chord, np.broadcast_shapes(chord.shape, u.shape)).copy()
    if np.any(cubic):
        v = 1.0 - u
        c = ctrl
        bez = 3.0 * (
            v**2 * (c[..., 1, :] - c[..., 0, :])
            + 2 * v * u * (c[..., 2, :] - c[..., 1, :])
            + u**2 * (c[..., 3, :] - c[..., 2, :])
        )
        out = np.where(np.asarray(cubic)[..., None], bez, out)
    return out


def thin_keep(cubic: np.ndarray, ctrl: np.ndarray, counts, tol: float) -> np.ndarray:
    """Thin reduction of each chain in a flat batch of segment tables.

    Drops zero-length segments, then cancels exact (control-point level)
    adjacent retracings until none is left; ``counts`` gives the number of
    segments of each chain and ``tol`` the relative tolerance of both
    tests.  Returns the mask of surviving segments.
    """
    scale = 1.0 + np.abs(ctrl).max(axis=(1, 2))
    keep = np.abs(ctrl - ctrl[:, :1]).max(axis=(1, 2)) > tol * scale
    owner = np.repeat(np.arange(len(counts)), counts)

    def retraces(a, b):
        return (cubic[a] == cubic[b]) & (
            np.abs(ctrl[a] - ctrl[b, ::-1]).max(axis=(-2, -1)) <= tol * np.maximum(scale[a], scale[b])
        )

    idx = np.flatnonzero(keep)
    a, b = idx[:-1], idx[1:]
    flagged = (owner[a] == owner[b]) & retraces(a, b)
    # Cancelling one pair can make its neighbours adjacent, so chains with
    # a retracing are reduced with a stack, which reaches the fixed point.
    for chain in np.unique(owner[a[flagged]]):
        members = idx[owner[idx] == chain]
        stack: list[int] = []
        for j in members:
            if stack and retraces(stack[-1], j):
                stack.pop()
            else:
                stack.append(j)
        keep[members] = False
        keep[stack] = True
    return keep


class SegmentChain:
    """A path as a bare segment table in traversal order, without
    breakpoints or validation; every segment is one smooth piece."""

    __slots__ = ("_table",)

    def __init__(self, cubic: np.ndarray, ctrl: np.ndarray):
        self._table = (cubic, ctrl)

    @property
    def n_pieces(self) -> int:
        return len(self._table[0])


def _sample_table(cubic, ctrl, u) -> tuple[np.ndarray, np.ndarray]:
    k, c, uu = cubic[:, None], ctrl[:, None], np.asarray(u, dtype=float)[None, :]
    return bezier_points(k, c, uu), bezier_velocities(k, c, uu)


def sample_pieces(paths, u) -> tuple[np.ndarray, np.ndarray]:
    """Samples at local abscissae u in [0, 1] on every smooth piece of every
    path, stacked in traversal order: points and velocities d/du, each
    (pieces, len(u), dim).

    Paths with a segment table (``PathNd``, ``SegmentChain``) are sampled
    straight from their control points, one vectorized call per run of
    them; other paths sample through their ``piece_samples``.
    """
    blocks, run = [], []

    def flush():
        if run:
            cubic, ctrl = (np.concatenate(parts) for parts in zip(*run))
            blocks.append(_sample_table(cubic, ctrl, u))
            run.clear()

    for p in paths:
        table = getattr(p, "_table", None)
        if table is None:
            flush()
            blocks.append(p.piece_samples(u))
        else:
            run.append(table)
    flush()
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
