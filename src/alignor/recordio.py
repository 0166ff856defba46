"""Versioned serialization for tables, scan/demod records and configs.

Records and the study points and trends tables share one table layout:
``#`` header lines, a ``# columns: <names>`` line, then the body.  The
study tables have a text body, one row per line of repr floats and of
words in str columns.  Records (format v2) have a binary body: a
``# body: f8-le <rows>`` line, then exactly ``rows x columns x 8`` bytes
of little-endian float64, one column after another, so ``head scan.txt``
shows the header and nothing below it is text.  A record's columns are
its array fields in order (a demod ``branch`` is +1.0 on the up rows,
which come first, and -1.0 on the down rows), so a record is written and
read as it is held.  v1 records, with a text body (``branch`` the word
``up`` or ``down``), still read and are rewritten as v2.  write -> read
-> write is byte-identical, and a malformed header or body raises
ValueError naming the file and the line (or, from the ``# body:`` line
on, the byte offset).  Configs are flat ``section.key = value`` files.
"""

import ast
from dataclasses import fields, replace
import os
from pathlib import Path
import re

import numpy as np

from .instrument import DemodRecord, ScanRecord
from .spincore import settings_fields

_MAGIC = "# alignor-record"
_COLUMNS = "# columns: "
_BODY = "# body: "
_BODY_LINE = re.compile(_BODY.encode() + rb"f8-le (0|[1-9][0-9]*)\n")
_KIND_LINE = re.compile(r"# kind: (.*)")
_META_LINE = re.compile(r"# meta\.([^\s=]+) = (.*)")

SCAN_COLUMNS = ("t", "bx_ramp", "st_raw", "sb_raw", "direction")
DEMOD_COLUMNS = ("bx", "st", "sb_demod", "t", "branch")
# record kind -> (record type, whose array fields are the columns in file
# order, then meta; column names; loadtxt converters of the words in a v1
# text body)
_LAYOUTS = {"scan": (ScanRecord, SCAN_COLUMNS, None),
            "demod": (DemodRecord, DEMOD_COLUMNS, {4: {"up": 1.0, "down": -1.0}.__getitem__})}


def _column_length(path, names, columns) -> int:
    lengths = {len(col) for col in columns}
    if len(columns) != len(names) or len(lengths) != 1:
        raise ValueError(f"{path}: expected {len(names)} columns of one length")
    return lengths.pop()


def write_table(path, header, names, columns) -> Path:
    """Write header lines, the column-names line and one row per index:
    str columns verbatim, numeric ones formatted once per column with repr."""
    path = Path(path)
    _column_length(path, names, columns)
    cells = [col.tolist() if col.dtype.kind == "U" else map(repr, col.astype(float).tolist())
             for col in map(np.asarray, columns)]
    path.write_text("\n".join([*header, _COLUMNS + " ".join(names), *map(" ".join, zip(*cells))])
                    + "\n")
    return path


def _write_binary_table(path, header, names, columns) -> Path:
    """Write header lines, the column-names line, a ``# body: f8-le <rows>``
    line, then the columns as little-endian float64, one after another."""
    path = Path(path)
    rows = _column_length(path, names, columns)
    head = [*header, _COLUMNS + " ".join(names), f"{_BODY}f8-le {rows}"]
    with path.open("wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for col in columns:
            f.write(np.ascontiguousarray(col, "<f8"))
    return path


def _text(path, raw, line) -> str:
    """``raw`` decoded as UTF-8, where ``line`` is the file line it starts
    on; a bad byte raises naming its line."""
    try:
        return raw.decode()
    except UnicodeDecodeError as e:
        line += raw.count(b"\n", 0, e.start)
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None


def read_table(path, parse_header):
    """Return the parsed header and the ``(n, len(names))`` body of a table.

    ``parse_header(path, header_lines)`` checks the lines before ``# columns:``
    and returns (parsed header, names, loadtxt converters of text columns,
    whether the body is binary).  The file is read once; a binary body is
    read straight into the returned array, whose columns are contiguous."""
    with open(path, "rb") as f:
        lines, stop = [], None
        while stop is None and (raw := f.readline()):
            line = _text(path, raw, len(lines) + 1).removesuffix("\n").removesuffix("\r")
            if line.startswith((_COLUMNS, _BODY)):
                stop = line
            else:
                lines.append(line)
        at = len(lines)
        header, names, converters, binary = parse_header(path, lines)
        expected = _COLUMNS + " ".join(names)
        if stop != expected:
            raise ValueError(f"{path}:{at + 1}: expected {expected!r}")
        if not binary:
            body = _text(path, f.read(), at + 2).splitlines()
        else:
            pos, raw = f.tell(), f.readline(80)  # bounded: never read into the body
            if (m := _BODY_LINE.fullmatch(raw)) is None:
                raise ValueError(f"{path}: byte {pos}: expected '# body: f8-le <rows>', "
                                 f"got {raw.rstrip()!r}")
            start, rows, ncols = f.tell(), int(m[1]), len(names)
            need, got = rows * ncols * 8, os.fstat(f.fileno()).st_size - start
            if got == need:
                buf = bytearray(need)
                got = f.readinto(buf)
            if got != need:
                raise ValueError(f"{path}: byte {start + min(got, need)}: a {rows}-row body of "
                                 f"{ncols} float64 columns is {need} bytes, found {got}")
            return header, np.frombuffer(buf, "<f8").reshape(ncols, rows).T
    if not any(map(str.strip, body)):
        return header, np.empty((0, len(names)))
    try:
        table = np.loadtxt(body, ndmin=2, comments=None, converters=converters)
        if table.shape[1] == len(names):
            return header, table
    except ValueError:
        pass
    for n, line in enumerate(body, start=at + 2):  # slow path: name the bad line
        try:
            ok = not line.strip() or np.loadtxt(
                [line], ndmin=2, comments=None, converters=converters).shape[1] == len(names)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}:{n}: bad row {line!r}, expected {' '.join(names)}")
    raise ValueError(f"{path}: malformed table body")


def _plain(v):
    """v with numpy scalars, also inside lists, tuples and dicts, turned
    into the Python scalars whose repr is a literal."""
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, (list, tuple)):
        return (list if isinstance(v, list) else tuple)(map(_plain, v))
    if isinstance(v, dict):
        return {_plain(k): _plain(x) for k, x in v.items()}
    return v


def _format_value(v):
    return repr(_plain(v))


class _NonFinite(ast.NodeTransformer):
    """Turn the bare names nan and inf, which repr writes for non-finite
    floats and literal_eval rejects, into float constants."""

    def visit_Name(self, node):
        return ast.Constant(float(node.id)) if node.id in ("nan", "inf") else node


def _parse_literal(text: str):
    return ast.literal_eval(_NonFinite().visit(ast.parse(text, mode="eval")))


def _parse_header(path, lines):
    """Check a record header: the signature, exactly one ``# kind:`` line and
    ``# meta.<key> = <literal>`` lines with distinct keys, each exactly as
    ``write_record`` writes its item, nothing else."""
    sig = re.fullmatch(_MAGIC + " v([0-9]+)", lines[0]) if lines else None
    if sig is None:
        raise ValueError(f"{path}:1: not a record file: missing signature line")
    version = int(sig.group(1))
    if version not in (1, 2):
        raise ValueError(f"{path}:1: unsupported record format version {version} "
                         "(supported: 1, 2)")
    kind, meta = None, {}
    for n, ln in enumerate(lines[1:], start=2):
        if m := _KIND_LINE.fullmatch(ln):
            if kind is not None:
                raise ValueError(f"{path}:{n}: a second '# kind:' line")
            if m[1] not in _LAYOUTS:
                raise ValueError(f"{path}:{n}: unknown record kind {m[1]!r}")
            kind = m[1]
            continue
        m = _META_LINE.fullmatch(ln)
        try:
            if m is None:
                raise ValueError
            value = _parse_literal(m[2])
        except (ValueError, SyntaxError, TypeError):
            raise ValueError(f"{path}:{n}: expected '# kind: <kind>' or "
                             f"'# meta.<key> = <literal>', got {ln!r}") from None
        if m[1] in meta:
            raise ValueError(f"{path}:{n}: duplicate meta key {m[1]!r}")
        try:
            written = _meta_line(m[1], value)
        except ValueError:
            written = None
        if written != ln:
            raise ValueError(f"{path}:{n}: {ln!r} would not be written back as itself")
        meta[m[1]] = value
    if kind is None:
        raise ValueError(f"{path}:2: missing '# kind:' line")
    return (kind, meta), *_LAYOUTS[kind][1:], version == 2


def _meta_line(key, value) -> str:
    """The ``# meta.<key> = <literal>`` line of one meta item; a key or a
    value that would not read back as itself raises ValueError."""
    line = f"# meta.{key} = {(text := _format_value(value))}"
    try:  # the repr of a str, int, float, bool or None is its literal
        if isinstance(key, str) and _META_LINE.fullmatch(line)[1] == key and (
                type(value) in (str, int, float, bool, type(None))
                or _format_value(_parse_literal(text)) == text):
            return line
    except (TypeError, ValueError, SyntaxError):
        pass
    raise ValueError(f"meta key {key!r}: {text} does not read back as a literal")


def write_record(rec, path) -> Path:
    """Serialize a ScanRecord or a DemodRecord as format v2 (binary body),
    its array fields as the columns."""
    kind = next((k for k, (cls, *_) in _LAYOUTS.items() if isinstance(rec, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(rec).__name__}")
    header = [f"{_MAGIC} v2", f"# kind: {kind}",
              *(_meta_line(k, rec.meta[k]) for k in sorted(rec.meta))]
    columns = [getattr(rec, f.name) for f in fields(rec) if f.name != "meta"]
    return _write_binary_table(path, header, _LAYOUTS[kind][1], columns)


def read_record(path):
    """Read a record file back into a ScanRecord or DemodRecord."""
    (kind, meta), body = read_table(path, _parse_header)
    # v1 words read as +-1.0; branch is the last column, the file's last bytes
    if kind == "demod" and (bad := np.flatnonzero(np.abs(body[:, 4]) != 1.0)).size:
        raise ValueError(f"{path}: byte {os.path.getsize(path) - 8 * (len(body) - bad[0])}: "
                         f"branch {float(body[bad[0], 4])!r} is neither 1.0 (up) nor -1.0 (down)")
    return _LAYOUTS[kind][0](*body.T, meta=meta)


# ---------------------------------------------------------------------------
# flat dotted-key config files


# one comma-separated list item; quoted strings may hold commas
_LIST_ITEM = re.compile(r"""(?:'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*"|[^,])+""")


def parse_config(text: str) -> dict:
    """Parse ``section.key = value`` lines into a flat dict.

    Values are Python literals where possible (numbers, strings, booleans,
    None, lists); comma-separated values become lists, split only on commas
    outside quotes; everything else stays a string.  Lines starting with '#'
    and blank lines are ignored.
    """
    out = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {n}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ValueError(f"config line {n}: empty key")
        try:
            value = _parse_literal(val)
        except (ValueError, SyntaxError):
            # not one literal: bare words, maybe a list mixed with literals
            value = val if "," not in val else [
                _parse_scalar(v.strip()) for v in _LIST_ITEM.findall(val) if v.strip()]
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _parse_scalar(s: str):
    try:
        return _parse_literal(s)
    except (ValueError, SyntaxError):
        return s


def config_section(flat: dict, prefix: str, base):
    """``base``, a dataclass instance, with the ``prefix.*`` keys of a flat
    config applied by ``dataclasses.replace``.  A key naming no field, or a
    field that holds a nested dataclass, raises ValueError."""
    names = set(settings_fields(base))
    changes = {}
    for key, value in flat.items():
        if key.startswith(prefix + "."):
            name = key[len(prefix) + 1:]
            if name not in names:
                raise ValueError(f"unknown {prefix} field {name!r}")
            changes[name] = value
    return replace(base, **changes)


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())

