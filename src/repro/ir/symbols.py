"""Symbol table and types for the IR.

Fortran implicit typing applies: an undeclared name starting with
I..N is INTEGER, anything else REAL. Loop variables are entered as
INTEGER scalars with ``is_loop_var`` set. PARAMETER constants are
evaluated at build time and stored with their value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import SemanticError


class ScalarType(enum.Enum):
    INT = "INTEGER"
    REAL = "REAL"
    LOGICAL = "LOGICAL"


def implicit_type(name: str) -> ScalarType:
    """Fortran implicit typing rule (I–N ⇒ INTEGER)."""
    return ScalarType.INT if name[:1].upper() in "IJKLMN" else ScalarType.REAL


class SymbolKind(enum.Enum):
    SCALAR = "scalar"
    ARRAY = "array"
    PARAM = "parameter"


@dataclass
class Symbol:
    """One named entity of the procedure.

    ``dims`` holds ``(low, high)`` integer bounds for arrays (bounds are
    required to be compile-time constants after PARAMETER substitution,
    which holds for every program in the paper).
    """

    name: str
    kind: SymbolKind
    type: ScalarType
    dims: tuple[tuple[int, int], ...] = ()
    value: int | float | None = None  # for PARAM
    is_loop_var: bool = False

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_array(self) -> bool:
        return self.kind is SymbolKind.ARRAY

    @property
    def is_scalar(self) -> bool:
        return self.kind is SymbolKind.SCALAR

    def extent(self, dim: int) -> int:
        """Number of elements along ``dim`` (0-based)."""
        low, high = self.dims[dim]
        return high - low + 1

    def size(self) -> int:
        total = 1
        for dim in range(self.rank):
            total *= self.extent(dim)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        dims = "(" + ",".join(f"{lo}:{hi}" for lo, hi in self.dims) + ")" if self.dims else ""
        return f"<{self.kind.value} {self.name}{dims}:{self.type.value}>"


class SymbolTable:
    """Name → :class:`Symbol` map with implicit declaration support."""

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Symbol:
        key = symbol.name.upper()
        if key in self._symbols:
            raise SemanticError(f"duplicate declaration of {symbol.name!r}")
        self._symbols[key] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        return self._symbols.get(name.upper())

    def resolve_scalar(self, name: str) -> Symbol:
        """Look up ``name``; implicitly declare a scalar if unknown."""
        symbol = self.lookup(name)
        if symbol is None:
            symbol = Symbol(
                name=name.upper(), kind=SymbolKind.SCALAR, type=implicit_type(name)
            )
            self._symbols[name.upper()] = symbol
        return symbol

    def require(self, name: str) -> Symbol:
        symbol = self.lookup(name)
        if symbol is None:
            raise SemanticError(f"undeclared name {name!r}")
        return symbol

    def arrays(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.is_array]

    def scalars(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.is_scalar]

    def __iter__(self):
        return iter(self._symbols.values())

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._symbols

    def __len__(self) -> int:
        return len(self._symbols)
