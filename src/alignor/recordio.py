"""Versioned text serialization for scan/demod records and flat configs.

RecordFile layout: a commented header (format version, record kind, metadata
as ``key = value`` lines) followed by whitespace-delimited numeric columns.
Floats are written with repr so write -> read -> write round-trips are
byte-identical.  Configs are flat ``section.key = value`` text files.
"""

import ast
from dataclasses import fields
from pathlib import Path
import re

import numpy as np

from .instrument import DemodRecord, ScanRecord

FORMAT_VERSION = 1
_MAGIC = "# alignor-record"

SCAN_COLUMNS = ("t", "bx_ramp", "st_raw", "sb_raw", "direction")
DEMOD_COLUMNS = ("bx", "st", "sb_demod", "t", "branch")


def _format_value(v):
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return repr(int(v))
    return repr(v)


def _meta_lines(meta: dict):
    for k in sorted(meta):
        yield f"# meta.{k} = {_format_value(meta[k])}"


class _NonFinite(ast.NodeTransformer):
    """Turn the bare names nan and inf, which repr writes for non-finite
    floats and literal_eval rejects, into float constants."""

    def visit_Name(self, node):
        return ast.Constant(float(node.id)) if node.id in ("nan", "inf") else node


def _parse_literal(text: str):
    return ast.literal_eval(_NonFinite().visit(ast.parse(text, mode="eval")))


def _parse_header(lines):
    sig = re.fullmatch(_MAGIC + " v([0-9]+)", lines[0]) if lines else None
    if sig is None:
        raise ValueError("not a record file: missing signature line")
    version = int(sig.group(1))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported record format version {version} "
                         f"(supported: {FORMAT_VERSION})")
    kind = None
    meta = {}
    for ln in lines[1:]:
        body = ln[1:].strip()
        if body.startswith("kind:"):
            kind = body.split(":", 1)[1].strip()
        elif body.startswith("meta."):
            key, val = body[5:].split("=", 1)
            meta[key.strip()] = _parse_literal(val.strip())
    if kind not in ("scan", "demod"):
        raise ValueError(f"unknown record kind {kind!r}")
    return kind, meta


def write_record(rec, path) -> Path:
    """Serialize a ScanRecord or DemodRecord to a versioned text file."""
    path = Path(path)
    lines = [f"{_MAGIC} v{FORMAT_VERSION}"]
    if isinstance(rec, ScanRecord):
        lines.append("# kind: scan")
        lines.extend(_meta_lines(rec.meta))
        lines.append("# columns: " + " ".join(SCAN_COLUMNS))
        cols = (rec.t, rec.bx_ramp, rec.st_raw, rec.sb_raw, rec.direction)
        for row in zip(*cols):
            lines.append(" ".join(repr(float(v)) for v in row))
    elif isinstance(rec, DemodRecord):
        lines.append("# kind: demod")
        lines.extend(_meta_lines(rec.meta))
        lines.append("# columns: " + " ".join(DEMOD_COLUMNS))
        for bx, st, sb, t, br in [
            (rec.bx_up, rec.st_up, rec.s_up, rec.t_up, "up"),
            (rec.bx_down, rec.st_down, rec.s_down, rec.t_down, "down"),
        ]:
            for i in range(len(bx)):
                lines.append(f"{float(bx[i])!r} {float(st[i])!r} "
                             f"{float(sb[i])!r} {float(t[i])!r} {br}")
    else:
        raise TypeError(f"cannot serialize {type(rec).__name__}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_record(path):
    """Read a record file back into a ScanRecord or DemodRecord."""
    text = Path(path).read_text()
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    kind, meta = _parse_header(header)
    if kind == "scan":
        body = np.array([[float(v) for v in ln.split()] for ln in data_lines])
        if body.size == 0:
            body = body.reshape(0, len(SCAN_COLUMNS))
        if body.shape[1] != len(SCAN_COLUMNS):
            raise ValueError("scan record body has wrong column count")
        return ScanRecord(t=body[:, 0], bx_ramp=body[:, 1], st_raw=body[:, 2],
                          sb_raw=body[:, 3], direction=body[:, 4], meta=meta)
    rows = [ln.split() for ln in data_lines]
    if any(len(r) != len(DEMOD_COLUMNS) for r in rows):
        raise ValueError("demod record body has wrong column count")
    up = [r for r in rows if r[4] == "up"]
    down = [r for r in rows if r[4] == "down"]

    def col(rows_, j):
        return np.array([float(r[j]) for r in rows_])

    return DemodRecord(
        bx_up=col(up, 0), st_up=col(up, 1), s_up=col(up, 2), t_up=col(up, 3),
        bx_down=col(down, 0), st_down=col(down, 1), s_down=col(down, 2),
        t_down=col(down, 3), meta=meta)


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
