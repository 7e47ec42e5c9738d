"""Flat segment tables: the form of line and cubic chains that samplers read.

A chain of s segments is a pair (cubic, ctrl): kind flags of shape (s,)
and control points of shape (s, 4, dim), a line p0 -> p1 stored as
[p0, p0, p1, p1] so that reversing the rows of either kind reverses the
segment.  A reparametrized piece adds a time map ``tmap`` (s, 4): the
Bezier ordinates of a cubic from the piece's parameter to the segment's.
``polyline_rows`` and ``reversed_rows`` build the rows of straight chains
and of chains traversed backwards, for one chain or many at once.
``PathNd`` holds a table with breakpoints.  A batch of many chains is one
flat table plus the row count of each chain (``Batch``); it is what frames,
reconstruction loops and the holonomy kernels pass on, and
``sample_pieces`` samples its rows for the integrators.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Batch",
    "bezier_points",
    "bezier_velocities",
    "time_map",
    "polyline_rows",
    "reversed_rows",
    "thin_keep",
    "table_batch",
    "stack_tables",
    "sample_pieces",
]


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


def time_map(tmap: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """The segments' parameters and their derivatives d/du at local parameters u
    of pieces with time-map ordinates ``tmap`` (..., 4), u broadcasting
    against (...).  A row of NaN marks a piece without a time map, which
    gets u and 1 exactly."""
    tm = tmap[..., None]
    timed = ~np.isnan(tmap[..., 0])
    t, dt = bezier_points(True, tm, u)[..., 0], bezier_velocities(True, tm, u)[..., 0]
    return np.where(timed, t, u), np.where(timed, dt, 1.0)


def polyline_rows(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the straight chains through vertices (..., n + 1, dim):
    flags (..., n) and control points (..., n, 4, dim)."""
    a, b = vertices[..., :-1, :], vertices[..., 1:, :]
    return np.zeros(a.shape[:-1], dtype=bool), np.stack([a, a, b, b], axis=-2)


def reversed_rows(cubic: np.ndarray, ctrl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of chains, flags (..., s) and control points (..., s, 4,
    dim), traversed backwards."""
    return cubic[..., ::-1], ctrl[..., ::-1, ::-1, :]


def thin_keep(cubic: np.ndarray, ctrl: np.ndarray, counts, tol: float) -> np.ndarray:
    """Thin reduction of each chain in a flat batch of segment tables.

    Drops zero-length segments, then cancels exact (control-point level)
    adjacent retracings until none is left; ``counts`` gives the number of
    segments of each chain and ``tol`` the relative tolerance of both
    tests.  Returns the mask of surviving segments.  Both tests reduce
    over the control points held coordinate-major in memory, as (4, dim,
    rows) planes, so that every operation runs along the rows.
    """
    c = np.ascontiguousarray(np.moveaxis(ctrl, 0, -1))
    scale = 1.0 + np.abs(c).max(axis=(0, 1))
    keep = np.abs(c - c[:1]).max(axis=(0, 1)) > tol * scale
    owner = np.repeat(np.arange(len(counts)), counts)

    def retraces(a, b, ca, cb):
        # Rows a and b, with control-point planes ca and cb.
        return (cubic[a] == cubic[b]) & (
            np.abs(ca - cb[::-1]).max(axis=(0, 1)) <= tol * np.maximum(scale[a], scale[b])
        )

    idx = np.flatnonzero(keep)
    kept = c.take(idx, axis=2)
    a, b = idx[:-1], idx[1:]
    flagged = (owner[a] == owner[b]) & retraces(a, b, kept[..., :-1], kept[..., 1:])
    # Cancelling one pair can make its neighbours adjacent, so chains with
    # a retracing are reduced with a stack, which reaches the fixed point.
    # (Not np.unique, whose first call imports numpy.ma, about 10 ms.)
    for chain in sorted(set(owner[a[flagged]].tolist())):
        members = idx[owner[idx] == chain]
        stack: list[int] = []
        for j in members:
            if stack and retraces(stack[-1], j, c[..., stack[-1]], c[..., j]):
                stack.pop()
            else:
                stack.append(j)
        keep[members] = False
        keep[stack] = True
    return keep


class Batch(NamedTuple):
    """Many chains as one flat segment table in traversal order: flags,
    control points, time maps or None, and the row count of each chain."""

    cubic: np.ndarray
    ctrl: np.ndarray
    tmap: np.ndarray | None
    counts: np.ndarray


def table_batch(cubic: np.ndarray, ctrl: np.ndarray) -> Batch:
    """The batch of m chains of s rows each, from flags (m, s) and control
    points (m, s, 4, dim) such as ``PathFamily.tables`` returns."""
    m, s = cubic.shape
    return Batch(cubic.reshape(-1), ctrl.reshape(-1, 4, ctrl.shape[-1]), None, np.full(m, s))


def stack_tables(paths) -> Batch:
    """The segment tables of many paths as one batch, its time maps None
    unless some path has one, in which case the other paths' rows are NaN."""
    counts = np.array([p.n_pieces for p in paths])
    cubic, ctrl = np.concatenate([p.cubic for p in paths]), np.concatenate([p.ctrl for p in paths])
    if all(p.tmap is None for p in paths):
        return Batch(cubic, ctrl, None, counts)
    tmap = np.concatenate([np.full((p.n_pieces, 4), np.nan) if p.tmap is None else p.tmap for p in paths])
    return Batch(cubic, ctrl, tmap, counts)


def sample_pieces(cubic, ctrl, tmap, u) -> tuple[np.ndarray, np.ndarray]:
    """Samples at local abscissae u in [0, 1] on every row of a segment
    table (flags, control points, time maps or None): points and
    velocities d/du, each (rows, len(u), dim).  Both are views of arrays
    held coordinate-major in memory, (dim, rows, len(u)), so that every
    operation runs along rows and samples.  A row without a time map is
    sampled from its control points alone, bit for bit whatever else is
    in the table."""
    c = np.ascontiguousarray(np.moveaxis(ctrl, -1, 0))[:, :, None, :, None]
    k, t = cubic[:, None], np.asarray(u, dtype=float)[None, :]
    if tmap is None:
        pts, vels = bezier_points(k, c, t), bezier_velocities(k, c, t)
    else:
        t, dt = time_map(tmap[:, None], t)
        pts, vels = bezier_points(k, c, t), bezier_velocities(k, c, t) * dt[..., None]
    return pts[..., 0].transpose(1, 2, 0), vels[..., 0].transpose(1, 2, 0)
