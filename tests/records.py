"""Demod records built from per-branch arrays, in the layout that
``lockin_demodulate`` and the record files use: the up rows first with
branch +1.0, then the down rows with branch -1.0."""

from dataclasses import fields, replace

import numpy as np

from alignor.instrument import DemodRecord


def _columns(rows):
    """(bx, s, t) of one branch given as (bx, s) or (bx, s, t); t defaults
    to zeros."""
    bx, s, *t = (np.asarray(col, dtype=float) for col in rows)
    return bx, s, t[0] if t else np.zeros(bx.size)


def branch_record(up, down=((), ()), meta=None) -> DemodRecord:
    """A DemodRecord of the up rows, then the down rows, each branch given
    as (bx, s) or (bx, s, t); st is zeros.  Without ``down`` the record has
    the up branch alone."""
    (bx_u, s_u, t_u), (bx_d, s_d, t_d) = _columns(up), _columns(down)
    return DemodRecord(bx=np.concatenate([bx_u, bx_d]), st=np.zeros(bx_u.size + bx_d.size),
                       s=np.concatenate([s_u, s_d]), t=np.concatenate([t_u, t_d]),
                       branch=np.repeat([1.0, -1.0], [bx_u.size, bx_d.size]),
                       meta={} if meta is None else meta)


def rows_of(rec, sign):
    """Indices of the rows on the branch of this sign (+1 up, -1 down)."""
    return np.flatnonzero(np.asarray(rec.branch) == sign)


def take_rows(rec, index):
    """``rec`` with only the rows at ``index``, in every column."""
    return replace(rec, **{f.name: np.asarray(getattr(rec, f.name))[index]
                           for f in fields(rec) if f.name != "meta"})


def with_value(rec, column, row, value):
    """``rec`` with ``column[row]`` set to ``value`` in a copy of the column."""
    col = np.array(getattr(rec, column), dtype=float)
    col[row] = value
    return replace(rec, **{column: col})
