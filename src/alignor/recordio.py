"""Versioned text serialization for tables, scan/demod records and configs.

Records and study points tables share one table format: ``#`` header lines,
a ``# columns: <names>`` line, then rows of repr floats, so write -> read ->
write is byte-identical; a malformed body raises ValueError naming the file
and the line.  Configs are flat ``section.key = value`` text files.
"""

import ast
from dataclasses import fields
from pathlib import Path
import re

import numpy as np

from .instrument import DemodRecord, ScanRecord

FORMAT_VERSION = 1
_MAGIC = "# alignor-record"
_COLUMNS = "# columns: "

SCAN_COLUMNS = ("t", "bx_ramp", "st_raw", "sb_raw", "direction")
DEMOD_COLUMNS = ("bx", "st", "sb_demod", "t", "branch")
# record kind -> (column names, converters of its non-numeric columns)
_LAYOUTS = {"scan": (SCAN_COLUMNS, None),
            "demod": (DEMOD_COLUMNS, {4: {"up": 1.0, "down": -1.0}.__getitem__})}


def write_table(path, header, names, columns) -> Path:
    """Write header lines, the column-names line and one row per index:
    str columns verbatim, numeric ones formatted once per column with repr."""
    path = Path(path)
    if len(columns) != len(names) or len({len(col) for col in columns}) != 1:
        raise ValueError(f"{path}: expected {len(names)} columns of one length")
    cells = [col.tolist() if col.dtype.kind == "U" else map(repr, col.astype(float).tolist())
             for col in map(np.asarray, columns)]
    path.write_text("\n".join([*header, _COLUMNS + " ".join(names), *map(" ".join, zip(*cells))])
                    + "\n")
    return path


def read_table(path, parse_header):
    """Return the parsed header and the ``(n, len(names))`` body of a table;
    ``parse_header(path, header_lines)`` checks the lines before ``# columns:``
    and returns (parsed header, names, loadtxt converters of text columns)."""
    lines = Path(path).read_text().splitlines()
    at = next((i for i, ln in enumerate(lines) if ln.startswith(_COLUMNS)), len(lines))
    header, names, converters = parse_header(path, lines[:at])
    body = lines[at + 1:]
    expected = _COLUMNS + " ".join(names)
    if lines[at:at + 1] != [expected]:
        raise ValueError(f"{path}:{at + 1}: expected {expected!r}")
    if not any(map(str.strip, body)):
        return header, np.empty((0, len(names)))
    try:
        data = np.loadtxt(body, ndmin=2, comments=None, converters=converters)
        if data.shape[1] == len(names):
            return header, data
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


def _format_value(v):
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return repr(int(v))
    return repr(v)


class _NonFinite(ast.NodeTransformer):
    """Turn the bare names nan and inf, which repr writes for non-finite
    floats and literal_eval rejects, into float constants."""

    def visit_Name(self, node):
        return ast.Constant(float(node.id)) if node.id in ("nan", "inf") else node


def _parse_literal(text: str):
    return ast.literal_eval(_NonFinite().visit(ast.parse(text, mode="eval")))


def _parse_header(path, lines):
    sig = re.fullmatch(_MAGIC + " v([0-9]+)", lines[0]) if lines else None
    if sig is None:
        raise ValueError(f"{path}:1: not a record file: missing signature line")
    version = int(sig.group(1))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}:1: unsupported record format version {version} "
                         f"(supported: {FORMAT_VERSION})")
    kind, meta = None, {}
    for n, ln in enumerate(lines[1:], start=2):
        body = ln[1:].strip()
        if body.startswith("kind:"):
            kind = body.split(":", 1)[1].strip()
        elif body.startswith("meta."):
            try:
                key, val = body[5:].split("=", 1)
                meta[key.strip()] = _parse_literal(val.strip())
            except (ValueError, SyntaxError, TypeError):
                raise ValueError(f"{path}:{n}: expected '# meta.<key> = <literal>', "
                                 f"got {ln!r}") from None
    if kind not in _LAYOUTS:
        raise ValueError(f"{path}: unknown record kind {kind!r}")
    return (kind, meta), *_LAYOUTS[kind]


def write_record(rec, path) -> Path:
    """Serialize a ScanRecord or DemodRecord to a versioned text file."""
    if isinstance(rec, ScanRecord):
        kind, columns = "scan", [getattr(rec, name) for name in SCAN_COLUMNS]
    elif isinstance(rec, DemodRecord):
        kind, columns = "demod", [np.concatenate(pair) for pair in (
            (rec.bx_up, rec.bx_down), (rec.st_up, rec.st_down),
            (rec.s_up, rec.s_down), (rec.t_up, rec.t_down))]
        columns.append(["up"] * len(rec.bx_up) + ["down"] * len(rec.bx_down))
    else:
        raise TypeError(f"cannot serialize {type(rec).__name__}")
    header = [f"{_MAGIC} v{FORMAT_VERSION}", f"# kind: {kind}",
              *(f"# meta.{k} = {_format_value(rec.meta[k])}" for k in sorted(rec.meta))]
    return write_table(path, header, _LAYOUTS[kind][0], columns)


def read_record(path):
    """Read a record file back into a ScanRecord or DemodRecord."""
    (kind, meta), body = read_table(path, _parse_header)
    if kind == "scan":
        return ScanRecord(**dict(zip(SCAN_COLUMNS, body.T)), meta=meta)
    up, down = body[body[:, 4] > 0].T, body[body[:, 4] < 0].T
    return DemodRecord(bx_up=up[0], st_up=up[1], s_up=up[2], t_up=up[3], bx_down=down[0],
                       st_down=down[1], s_down=down[2], t_down=down[3], meta=meta)


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


def config_section(flat: dict, prefix: str, cls, **extra):
    """Instantiate a dataclass from the ``prefix.*`` keys of a flat config."""
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in flat.items():
        if key.startswith(prefix + "."):
            name = key[len(prefix) + 1:]
            if name not in names:
                raise ValueError(f"unknown {prefix} field {name!r}")
            kwargs[name] = value
    kwargs.update(extra)
    return cls(**kwargs)


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())


def dump_config(cfg: dict, path) -> Path:
    """Write a flat config that parse_config reads back; lists in brackets."""
    path = Path(path)
    lines = []
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, (list, tuple)):
            lines.append(f"{k} = [" + ", ".join(_format_value(x) for x in v) + "]")
        else:
            lines.append(f"{k} = {_format_value(v)}")
    path.write_text("\n".join(lines) + "\n")
    return path
