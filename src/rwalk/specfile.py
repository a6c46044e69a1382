"""Declarative walk-spec files: parse and emit.

Line-oriented text, '#' starts a comment, blank lines separate nothing.
Probabilities are decimal strings so fixtures diff cleanly and survive
emit/parse round trips bit-for-bit.

    group lattice 1          # or: group finite 6
    cayley                   # finite groups only: <order> rows of indices
      0 1 2
      1 2 0
      2 0 1

    law                      # one atom per line: element then probability
      1 0.25                 # lattice: d coordinates; finite: one index
      -1 0.75

    options                  # optional overrides, one "key value" per line
      window_radius 32
      horizon 4000
      trajectories 10000
      seed 42
      growth_recurrent 1.5
      growth_transient 1.05
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import SpecFileError
from .groups import FiniteGroup, Group, Lattice
from .laws import Law


@dataclass
class WalkOptions:
    window_radius: int | None = None
    horizon: int | None = None
    trajectories: int | None = None
    seed: int | None = None
    growth_recurrent: float | None = None
    growth_transient: float | None = None

    _TYPES = {"window_radius": int, "horizon": int, "trajectories": int,
              "seed": int, "growth_recurrent": float, "growth_transient": float}


@dataclass
class WalkSpec:
    group: Group
    law: Law
    options: WalkOptions = field(default_factory=WalkOptions)


def _tokens(text: str):
    """Yield (line_number, [tokens]) for nonempty, non-comment lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecFileError(f"{what}: expected integer, got {tok!r}", line) from None


def _prob(tok: str, line: int) -> float:
    try:
        p = float(tok)
    except ValueError:
        raise SpecFileError(f"law block: bad probability {tok!r}", line) from None
    if not 0.0 < p <= 1.0:
        raise SpecFileError(f"law block: probability {tok!r} outside (0, 1]", line)
    return p


def parse_walk_spec(text: str) -> WalkSpec:
    lines = list(_tokens(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, None)

    # --- group header -----------------------------------------------------
    if pos >= len(lines) or lines[pos][1][0] != "group":
        raise SpecFileError("file must start with a 'group' line",
                            lines[pos][0] if pos < len(lines) else None)
    gline, gtok = lines[pos]
    pos += 1
    if len(gtok) != 3 or gtok[1] not in ("lattice", "finite"):
        raise SpecFileError("group line must be 'group lattice <d>' or "
                            "'group finite <order>'", gline)
    if gtok[1] == "lattice":
        d = _int(gtok[2], gline, "group")
        try:
            group: Group = Lattice(d)
        except ValueError as exc:
            raise SpecFileError(f"group: {exc}", gline) from None
    else:
        order = _int(gtok[2], gline, "group")
        ln, tok = peek()
        if tok != ["cayley"]:
            raise SpecFileError("finite group needs a 'cayley' block", ln or gline)
        pos += 1
        rows = []
        for _ in range(order):
            ln, tok = peek()
            if tok is None:
                raise SpecFileError(f"cayley block: expected {order} rows", gline)
            if len(tok) != order:
                raise SpecFileError(
                    f"cayley block: row has {len(tok)} entries, expected {order}", ln)
            rows.append([_int(t, ln, "cayley") for t in tok])
            pos += 1
        try:
            group = FiniteGroup(rows)
        except ValueError as exc:
            raise SpecFileError(f"cayley block: {exc}", gline) from None

    # --- law block ---------------------------------------------------------
    ln, tok = peek()
    if tok != ["law"]:
        raise SpecFileError("expected a 'law' block after the group", ln or gline)
    law_line = ln
    pos += 1
    atoms: dict = {}
    coords = group.dim if isinstance(group, Lattice) else 1
    while True:
        ln, tok = peek()
        if tok is None or tok == ["options"]:
            break
        if len(tok) != coords + 1:
            raise SpecFileError(
                f"law block: expected {coords} element coordinate(s) and a "
                f"probability, got {len(tok)} token(s)", ln)
        if isinstance(group, Lattice):
            elem = tuple(_int(t, ln, "law element") for t in tok[:-1])
        else:
            elem = _int(tok[0], ln, "law element")
            if not 0 <= elem < group.order:
                raise SpecFileError(f"law block: element index {elem} outside "
                                    f"0..{group.order - 1}", ln)
        if elem in atoms:
            raise SpecFileError(f"law block: duplicate atom {elem!r}", ln)
        atoms[elem] = _prob(tok[-1], ln)
        pos += 1
    if not atoms:
        raise SpecFileError("law block: no atoms", law_line)
    try:
        law = Law(group, atoms)
    except ValueError as exc:
        raise SpecFileError(f"law block: {exc}", law_line) from None

    # --- options block -----------------------------------------------------
    options = WalkOptions()
    ln, tok = peek()
    if tok == ["options"]:
        pos += 1
        while True:
            ln, tok = peek()
            if tok is None:
                break
            if len(tok) != 2:
                raise SpecFileError("options block: expected 'key value'", ln)
            key, value = tok
            caster = WalkOptions._TYPES.get(key)
            if caster is None:
                raise SpecFileError(f"options block: unknown key {key!r}", ln)
            try:
                setattr(options, key, caster(value))
            except ValueError:
                raise SpecFileError(
                    f"options block: bad value {value!r} for {key}", ln) from None
            if key == "window_radius" and options.window_radius < 0:
                raise SpecFileError("options block: window_radius must be >= 0", ln)
            if caster is float and not math.isfinite(getattr(options, key)):
                raise SpecFileError(f"options block: {key} must be finite, got {value!r}", ln)
            pos += 1
    elif tok is not None:
        raise SpecFileError(f"unexpected content {' '.join(tok)!r}", ln)

    return WalkSpec(group, law, options)


def format_walk_spec(spec: WalkSpec) -> str:
    """Emit a spec as text; repr() of each probability round-trips exactly."""
    out = []
    group = spec.group
    if isinstance(group, Lattice):
        out.append(f"group lattice {group.dim}")
    else:
        out.append(f"group finite {group.order}")
        out.append("cayley")
        for row in group.cayley_array.tolist():
            out.append("  " + " ".join(str(v) for v in row))
    out.append("")
    out.append("law")
    for x, p in spec.law.atoms.items():
        elem = " ".join(str(c) for c in x) if isinstance(x, tuple) else x
        out.append(f"  {elem} {p!r}")
    opts = [(f.name, getattr(spec.options, f.name)) for f in fields(spec.options)]
    opts = [(k, v) for k, v in opts if v is not None]
    if opts:
        out.append("")
        out.append("options")
        for k, v in opts:
            out.append(f"  {k} {v}")
    out.append("")
    return "\n".join(out)


def parse_element_set(text: str, group: Group):
    """Parse a CLI target set: elements split by ';', coordinates by ','."""
    elems = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            coords = [int(c) for c in part.split(",")]
        except ValueError:
            raise SpecFileError(f"bad element {part!r} in target set") from None
        elem = coords[0] if isinstance(group, FiniteGroup) else tuple(coords)
        try:
            group.validate_element(elem)
        except Exception as exc:
            raise SpecFileError(f"target element {part!r}: {exc}") from None
        elems.append(elem)
    if not elems:
        raise SpecFileError("empty target set")
    return frozenset(elems)
