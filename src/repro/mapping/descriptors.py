"""Resolved array mappings: DISTRIBUTE/ALIGN directives composed against
the processor grid into ownership descriptors.

An :class:`ArrayMapping` answers, for a global element index vector:

* which grid coordinates own it (a specific coordinate per grid
  dimension, or ``None`` meaning replicated along that dimension),
* where it lives in the owner's local section (dense packing).

Aligned arrays inherit ownership through their alignment target
(ultimately a distributed array), including '*' target dims ⇒
replication along the corresponding grid dimension — exactly the
semantics the paper relies on for ``ALIGN (i) WITH A(*) :: E, F``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import MappingError
from ..ir.program import AlignSpec, DistributeSpec, Procedure
from ..ir.symbols import Symbol
from .distribution import DimFormat
from .grid import ProcessorGrid


@dataclass(frozen=True)
class GridDimRole:
    """What one grid dimension means for one array.

    kind:
      * ``repl`` — array replicated along this grid dimension;
      * ``dist`` — ``array_dim`` is distributed here with ``fmt``; the
        position on the distribution template of global index ``i`` is
        ``stride * i + norm_offset`` (0-based);
      * ``priv`` — array *privatized* along this grid dimension (paper
        Section 3.2): each processor along the dimension has its own
        per-iteration copy. For availability/ownership queries this
        behaves like replication (the local copy is always present and
        imposes no execution constraint), but it is distinct for
        reporting and for the semantics of copy-in/copy-out.
    """

    kind: str
    array_dim: int | None = None
    fmt: DimFormat | None = None
    stride: int = 1
    norm_offset: int = 0

    def template_pos(self, global_index: int) -> int:
        return self.stride * global_index + self.norm_offset


@dataclass(frozen=True)
class ArrayMapping:
    """Complete mapping of one array onto the grid."""

    array: Symbol
    grid: ProcessorGrid
    roles: tuple[GridDimRole, ...]

    # -- classification ---------------------------------------------------------

    @property
    def is_replicated(self) -> bool:
        return all(r.kind != "dist" for r in self.roles)

    @property
    def privatized_grid_dims(self) -> tuple[int, ...]:
        return tuple(g for g, r in enumerate(self.roles) if r.kind == "priv")

    @property
    def is_partitioned(self) -> bool:
        return not self.is_replicated

    def grid_dim_of_array_dim(self, array_dim: int) -> int | None:
        for g, role in enumerate(self.roles):
            if role.kind == "dist" and role.array_dim == array_dim:
                return g
        return None

    # -- ownership -----------------------------------------------------------------

    def owner_coords(self, index: tuple[int, ...]) -> tuple[int | None, ...]:
        """Owning coordinate per grid dim; None = replicated (all)."""
        coords: list[int | None] = []
        for role in self.roles:
            if role.kind != "dist":
                coords.append(None)
            else:
                # template_pos folds the template's lower bound into
                # norm_offset, so fmt.owner sees a 0-based position.
                coords.append(role.fmt.owner(role.template_pos(index[role.array_dim])))
        return tuple(coords)

    def owner_ranks(self, index: tuple[int, ...]) -> list[int]:
        """All ranks owning (a copy of) the element."""
        coords = self.owner_coords(index)
        axes = [
            [c] if c is not None else list(range(extent))
            for c, extent in zip(coords, self.grid.shape)
        ]
        return [self.grid.rank_of(tuple(c)) for c in itertools.product(*axes)]

    def primary_owner_rank(self, index: tuple[int, ...]) -> int:
        """A canonical single owner (coordinate 0 along replicated
        dims) — used when one copy must act (e.g. I/O)."""
        coords = tuple(c if c is not None else 0 for c in self.owner_coords(index))
        return self.grid.rank_of(coords)

    def owns(self, rank: int, index: tuple[int, ...]) -> bool:
        coords = self.grid.coords_of(rank)
        for c, owner in zip(coords, self.owner_coords(index)):
            if owner is not None and c != owner:
                return False
        return True

    # -- local sections ---------------------------------------------------------------

    def local_shape(self) -> tuple[int, ...]:
        """Allocation shape of a local section (same on every rank)."""
        shape: list[int] = []
        for dim in range(self.array.rank):
            g = self.grid_dim_of_array_dim(dim)
            if g is None:
                shape.append(self.array.extent(dim))
            else:
                shape.append(self.roles[g].fmt.max_local_count())
        return tuple(shape)

    def local_index(self, index: tuple[int, ...]) -> tuple[int, ...]:
        """Local position of a global element in its owners' sections
        (identical on every owning rank)."""
        local: list[int] = []
        for dim in range(self.array.rank):
            g = self.grid_dim_of_array_dim(dim)
            if g is None:
                local.append(index[dim] - self.array.dims[dim][0])
            else:
                role = self.roles[g]
                local.append(role.fmt.to_local(role.template_pos(index[dim])))
        return tuple(local)

    def owned_global_indices(self, rank: int):
        """Iterate global index vectors owned by ``rank`` (ascending,
        row-major)."""
        coords = self.grid.coords_of(rank)
        per_dim: list[list[int]] = []
        for dim in range(self.array.rank):
            low, high = self.array.dims[dim]
            g = self.grid_dim_of_array_dim(dim)
            if g is None:
                per_dim.append(list(range(low, high + 1)))
            else:
                role = self.roles[g]
                coord = coords[g]
                indices = []
                for idx in range(low, high + 1):
                    if role.fmt.owner(role.template_pos(idx)) == coord:
                        indices.append(idx)
                per_dim.append(indices)
        yield from itertools.product(*per_dim)


# --------------------------------------------------------------------------
# Resolution of directives into mappings
# --------------------------------------------------------------------------


def _roles_from_distribute(
    spec: DistributeSpec, grid: ProcessorGrid
) -> tuple[GridDimRole, ...]:
    array = spec.array
    distributed = [
        (dim, kind, chunk)
        for dim, (kind, chunk) in enumerate(spec.formats)
        if kind != "*"
    ]
    if len(distributed) != grid.rank:
        raise MappingError(
            f"array {array.name}: {len(distributed)} distributed dims do not "
            f"match processor grid rank {grid.rank}"
        )
    roles: list[GridDimRole] = []
    for g, (dim, kind, chunk) in enumerate(distributed):
        low = array.dims[dim][0]
        fmt = DimFormat(
            kind=kind.lower(),
            extent=array.extent(dim),
            procs=grid.shape[g],
            chunk=chunk if chunk is not None else 1,
        )
        roles.append(
            GridDimRole(
                kind="dist",
                array_dim=dim,
                fmt=fmt,
                stride=1,
                norm_offset=-low,
            )
        )
    return tuple(roles)


def _roles_from_align(
    spec: AlignSpec, target_mapping: ArrayMapping
) -> tuple[GridDimRole, ...]:
    array = spec.array
    target = spec.target
    roles: list[GridDimRole] = []
    for g, target_role in enumerate(target_mapping.roles):
        if target_role.kind == "repl":
            roles.append(GridDimRole(kind="repl"))
            continue
        t_dim = target_role.array_dim
        if t_dim in spec.replicated_target_dims:
            roles.append(GridDimRole(kind="repl"))
            continue
        # Find the source dim aligned to target dim t_dim.
        source_dim = None
        stride = offset = 0
        for s_dim, mapping in enumerate(spec.axis_map):
            if mapping is not None and mapping[0] == t_dim:
                source_dim, stride, offset = s_dim, mapping[1], mapping[2]
                break
        if source_dim is None:
            # Target dim is distributed but carries no source dim and is
            # not starred: the source is replicated along it (HPF treats
            # an unmatched distributed target dim as replication only
            # via '*'; we are permissive and replicate).
            roles.append(GridDimRole(kind="repl"))
            continue
        # Compose: source index i sits at target element stride*i+offset,
        # whose template position is target_role applied to it.
        roles.append(
            GridDimRole(
                kind="dist",
                array_dim=source_dim,
                fmt=target_role.fmt,
                stride=target_role.stride * stride,
                norm_offset=target_role.stride * offset + target_role.norm_offset,
            )
        )
    return tuple(roles)


def replicated_mapping(array: Symbol, grid: ProcessorGrid) -> ArrayMapping:
    return ArrayMapping(
        array=array,
        grid=grid,
        roles=tuple(GridDimRole(kind="repl") for _ in range(grid.rank)),
    )


def resolve_mappings(proc: Procedure, grid: ProcessorGrid) -> dict[str, ArrayMapping]:
    """Resolve every array's mapping. Arrays without directives are
    replicated. Alignment chains are followed to any depth."""
    mappings: dict[str, ArrayMapping] = {}
    for spec in proc.distributes:
        mappings[spec.array.name] = ArrayMapping(
            array=spec.array, grid=grid, roles=_roles_from_distribute(spec, grid)
        )
    pending = list(proc.aligns)
    progress = True
    while pending and progress:
        progress = False
        remaining: list[AlignSpec] = []
        for spec in pending:
            target_mapping = mappings.get(spec.target.name)
            if target_mapping is None:
                remaining.append(spec)
                continue
            if spec.array.name in mappings:
                raise MappingError(
                    f"array {spec.array.name} is both distributed and aligned"
                )
            mappings[spec.array.name] = ArrayMapping(
                array=spec.array,
                grid=grid,
                roles=_roles_from_align(spec, target_mapping),
            )
            progress = True
        pending = remaining
    if pending:
        unresolved = ", ".join(s.array.name for s in pending)
        raise MappingError(
            f"unresolvable ALIGN chain (cyclic or missing DISTRIBUTE): {unresolved}"
        )
    for symbol in proc.symbols.arrays():
        if symbol.name not in mappings:
            mappings[symbol.name] = replicated_mapping(symbol, grid)
    return mappings
