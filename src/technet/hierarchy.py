"""Hierarchical field-code tree (sections, classes, subclasses) and region table.

Codes form a three-level tree keyed by string prefixes, IPC-style: one-letter
sections at the root, classes below them, subclasses below classes. Raw codes
from event files may be deeper than subclass level; they are resolved by
longest-prefix match and then walked up to the requested granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LEVELS = ("section", "class", "subclass")


class HierarchyError(ValueError):
    """Raised for malformed hierarchy definitions or unresolvable codes."""


def level_depth(level: str | int) -> int:
    if isinstance(level, int):
        if not 0 <= level < len(LEVELS):
            raise HierarchyError(f"invalid level depth {level}")
        return level
    try:
        return LEVELS.index(level)
    except ValueError:
        raise HierarchyError(f"unknown level {level!r}; expected one of {LEVELS}") from None


@dataclass(frozen=True)
class CodeHierarchy:
    """Immutable code tree with parent links and per-code depth."""

    parent: dict[str, str | None]
    depth: dict[str, int] = field(repr=False)

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, str | None]]) -> "CodeHierarchy":
        parent: dict[str, str | None] = {}
        for code, par in pairs:
            code = code.strip()
            par = par.strip() if par else None
            if not code:
                raise HierarchyError("empty code in hierarchy definition")
            if code in parent:
                raise HierarchyError(f"duplicate code {code!r} in hierarchy")
            parent[code] = par or None
        depth: dict[str, int] = {}

        def walk(code: str, seen: tuple[str, ...]) -> int:
            if code in depth:
                return depth[code]
            if code in seen:
                raise HierarchyError(f"cycle in hierarchy at {code!r}")
            par = parent.get(code)
            if par is None:
                d = 0
            elif par not in parent:
                raise HierarchyError(f"code {code!r} references unknown parent {par!r}")
            else:
                d = walk(par, seen + (code,)) + 1
            if d >= len(LEVELS):
                raise HierarchyError(f"code {code!r} deeper than {LEVELS[-1]} level")
            depth[code] = d
            return d

        for code in parent:
            walk(code, ())
        return cls(parent=parent, depth=depth)

    def codes_at(self, level: str | int) -> tuple[str, ...]:
        d = level_depth(level)
        return tuple(sorted(c for c, cd in self.depth.items() if cd == d))

    @property
    def sections(self) -> tuple[str, ...]:
        return self.codes_at(0)

    def ancestor_at(self, code: str, level: str | int) -> str:
        """Walk up from a known code to its ancestor at the requested level."""
        d = level_depth(level)
        if code not in self.depth:
            raise HierarchyError(f"unknown code {code!r}")
        if self.depth[code] < d:
            raise HierarchyError(f"code {code!r} is above the {LEVELS[d]} level")
        while self.depth[code] > d:
            code = self.parent[code]  # type: ignore[assignment]
        return code

    def resolve(self, raw_code: str, level: str | int) -> str | None:
        """Resolve a raw (possibly deeper-than-subclass) code to the requested level.

        Longest-prefix match against known codes, then walk up. Returns None
        when no prefix matches or the matched node sits above the level.
        """
        d = level_depth(level)
        raw_code = raw_code.strip()
        for end in range(len(raw_code), 0, -1):
            candidate = raw_code[:end]
            if candidate in self.depth:
                if self.depth[candidate] < d:
                    return None
                return self.ancestor_at(candidate, d)
        return None

    def section_of(self, code: str) -> str:
        return self.ancestor_at(code, 0)


def parse_hierarchy(text: str, delimiter: str = ",") -> CodeHierarchy:
    """Parse a hierarchy file: header row, then one (code, parent) pair per line."""
    pairs: list[tuple[str, str | None]] = []
    lines = text.splitlines()
    if not lines:
        raise HierarchyError("empty hierarchy file")
    for raw in lines[1:]:
        if not raw.strip():
            continue
        cells = raw.split(delimiter)
        if len(cells) < 1:
            raise HierarchyError(f"malformed hierarchy line: {raw!r}")
        code = cells[0]
        par = cells[1] if len(cells) > 1 else None
        pairs.append((code, par))
    return CodeHierarchy.from_pairs(pairs)


def hierarchy_to_text(h: CodeHierarchy, delimiter: str = ",") -> str:
    lines = ["code" + delimiter + "parent"]
    for code in sorted(h.parent, key=lambda c: (h.depth[c], c)):
        lines.append(code + delimiter + (h.parent[code] or ""))
    return "\n".join(lines) + "\n"


def region_table_to_text(table: dict[str, str], delimiter: str = ",") -> str:
    lines = ["region_id" + delimiter + "country"]
    for region in sorted(table):
        lines.append(region + delimiter + table[region])
    return "\n".join(lines) + "\n"
