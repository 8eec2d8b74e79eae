"""Construction of effective array mappings for privatized arrays,
including *partial privatization* (paper Section 3.2).

A privatized array's effective mapping assigns each grid dimension one
of:

* ``priv`` — the array is privatized along this dimension: every
  processor holds a per-iteration private copy of its slice; no
  ownership constraint, no communication;
* ``dist`` — the dimension stays *partitioned*: one of the array's own
  dimensions is distributed here, inheriting the template of the
  alignment target's corresponding dimension (so writes stay local
  under the owner-computes rule and cross-iteration reads become
  shifts).

Full privatization is the special case with every grid dimension
``priv``.
"""

from __future__ import annotations

from ..errors import MappingError
from ..ir.expr import ArrayElemRef
from ..ir.program import Procedure
from ..ir.stmt import LoopStmt
from ..ir.symbols import Symbol
from ..mapping.descriptors import ArrayMapping, GridDimRole


def find_matching_array_dim(
    proc: Procedure,
    array: Symbol,
    loop: LoopStmt,
    driving_vars: set[str],
) -> int | None:
    """Which dimension of ``array`` is traversed by one of
    ``driving_vars`` inside ``loop``? Writes are inspected first (the
    owner-computes rule makes write locality the priority), then reads.
    """
    def scan(refs) -> int | None:
        for ref in refs:
            for dim, form in enumerate(ref.forms):
                if form is None:
                    continue
                for s in form.symbols:
                    if s.name in driving_vars and form.coeff(s) != 0:
                        return dim
        return None

    writes = []
    reads = []
    for stmt in loop.walk():
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                writes.append(ref)
        for ref in stmt.uses():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                reads.append(ref)
    dim = scan(writes)
    if dim is None:
        dim = scan(reads)
    return dim


def build_privatized_mapping(
    base: ArrayMapping,
    target_mapping: ArrayMapping | None,
    priv_grid_dims: tuple[int, ...],
    partitioned_dims: dict[int, int],
) -> ArrayMapping:
    """Effective mapping of a privatized array.

    ``partitioned_dims`` maps array_dim → grid_dim; each partitioned
    dimension inherits the template (format/stride/offset) of the
    target's role on that grid dimension, re-based to the array's own
    lower bound so that identical index values co-locate.
    """
    grid = base.grid
    roles: list[GridDimRole] = []
    for g in range(grid.rank):
        if g in priv_grid_dims:
            roles.append(GridDimRole(kind="priv"))
            continue
        array_dim = next(
            (ad for ad, gd in partitioned_dims.items() if gd == g), None
        )
        if array_dim is None:
            roles.append(GridDimRole(kind="repl"))
            continue
        if target_mapping is None:
            raise MappingError(
                f"array {base.array.name}: partitioned dim {array_dim} has "
                f"no alignment target"
            )
        target_role = target_mapping.roles[g]
        if target_role.kind != "dist":
            raise MappingError(
                f"array {base.array.name}: grid dim {g} of target "
                f"{target_mapping.array.name} is not distributed"
            )
        # Identity alignment of index values: array index x sits at the
        # target template position of index x.
        roles.append(
            GridDimRole(
                kind="dist",
                array_dim=array_dim,
                fmt=target_role.fmt,
                stride=target_role.stride,
                norm_offset=target_role.norm_offset,
            )
        )
    return ArrayMapping(array=base.array, grid=grid, roles=tuple(roles))
