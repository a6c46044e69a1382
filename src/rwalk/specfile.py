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
      window_radius 32       # lattice groups only
      horizon 4000
      trajectories 10000
      seed 42
      growth_recurrent 1.5
      growth_transient 1.05
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import IndexOutOfRange, SpecFileError
from .groups import FiniteGroup, Group, Lattice
from .laws import Law


class WalkOptions(NamedTuple):
    window_radius: int | None = None
    horizon: int | None = None
    trajectories: int | None = None
    seed: int | None = None
    growth_recurrent: float | None = None
    growth_transient: float | None = None

    _TYPES = {"window_radius": int, "horizon": int, "trajectories": int,
              "seed": int, "growth_recurrent": float, "growth_transient": float}


class WalkSpec(NamedTuple):
    group: Group
    law: Law
    options: WalkOptions = WalkOptions()


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
    if not lines or lines[0][1][0] != "group":
        raise SpecFileError("file must start with a 'group' line",
                            lines[0][0] if lines else None)
    (gline, gtok), rest = lines[0], lines[1:]
    if len(gtok) != 3 or gtok[1] not in ("lattice", "finite"):
        raise SpecFileError("group line must be 'group lattice <d>' or "
                            "'group finite <order>'", gline)
    size = _int(gtok[2], gline, "group")
    if gtok[1] == "lattice":
        try:
            group: Group = Lattice(size)
        except ValueError as exc:
            raise SpecFileError(f"group: {exc}", gline) from None
    else:
        if not rest or rest[0][1] != ["cayley"]:
            raise SpecFileError("finite group needs a 'cayley' block",
                                rest[0][0] if rest else gline)
        # the next <order> lines are the rows, whatever they hold
        end = 1 + max(size, 0)
        rows, rest, table = rest[1:end], rest[end:], []
        for ln, tok in rows:
            if len(tok) != size:
                raise SpecFileError(
                    f"cayley block: row has {len(tok)} entries, expected {size}", ln)
            table.append([_int(t, ln, "cayley") for t in tok])
        if len(rows) < size:
            raise SpecFileError(f"cayley block: expected {size} rows", gline)
        try:
            group = FiniteGroup(table)
        except ValueError as exc:
            raise SpecFileError(f"cayley block: {exc}", gline) from None

    if not rest or rest[0][1] != ["law"]:
        raise SpecFileError("expected a 'law' block after the group",
                            rest[0][0] if rest else gline)
    law_line, rest = rest[0][0], rest[1:]
    cut = next((i for i, (_, tok) in enumerate(rest) if tok == ["options"]), len(rest))
    atoms: dict = {}
    coords = group.dim if isinstance(group, Lattice) else 1
    for ln, tok in rest[:cut]:
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
    if not atoms:
        raise SpecFileError("law block: no atoms", law_line)
    try:
        law = Law(group, atoms)
    except ValueError as exc:
        raise SpecFileError(f"law block: {exc}", law_line) from None

    values: dict = {}
    for ln, tok in rest[cut + 1:]:
        if len(tok) != 2:
            raise SpecFileError("options block: expected 'key value'", ln)
        key, value = tok
        caster = WalkOptions._TYPES.get(key)
        if caster is None:
            raise SpecFileError(f"options block: unknown key {key!r}", ln)
        if key == "window_radius" and isinstance(group, FiniteGroup):
            raise SpecFileError("options block: window_radius applies only to lattice groups", ln)
        try:
            values[key] = caster(value)
        except ValueError:
            raise SpecFileError(
                f"options block: bad value {value!r} for {key}", ln) from None
        if key == "window_radius" and values[key] < 0:
            raise SpecFileError("options block: window_radius must be >= 0", ln)
        if caster is float and not math.isfinite(values[key]):
            raise SpecFileError(f"options block: {key} must be finite, got {value!r}", ln)
    return WalkSpec(group, law, WalkOptions(**values))


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
    opts = [(k, v) for k, v in spec.options._asdict().items() if v is not None]
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
        # a finite-group element is one index: more coordinates are refused
        elem = coords[0] if isinstance(group, FiniteGroup) and len(coords) == 1 else tuple(coords)
        try:
            group.validate_element(elem)
        except (ValueError, IndexOutOfRange) as exc:
            raise SpecFileError(f"target element {part!r}: {exc}") from None
        elems.append(elem)
    if not elems:
        raise SpecFileError("empty target set")
    return frozenset(elems)
