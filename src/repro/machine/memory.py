"""Memory of the simulated distributed-memory machine.

Every virtual processor holds a full-global-shape copy of every array
and a copy of every scalar, each with a validity flag: a copy is
*valid* on a rank when the rank owns it (per the effective mapping),
has received it, or computed it. Reads of invalid copies trigger
modeled communication in the simulator; writes are only legal on
executing ranks. This "distributed memory with explicit validity"
discipline is what lets the simulator detect mapping/partitioning bugs:
an element nobody valid-holds is a compile error surfaced at run time.

A distributed object is indexed by *(processor, element)* — the
processor is one more index, not a container.  So the simulator's whole
state is one :class:`Store`, addressed by (name, rank, element):

* an array is a data buffer and a validity buffer of shape ``(P,
  *shape)``, rank-major; an element's *address* in the flattened buffer
  is ``rank * size + element``, which is how the slab tier reads,
  writes, invalidates and delivers for all ranks in one indexed
  operation;
* a scalar is a length-``P`` list of values and one of validity flags.
  Plain Python values keep each rank's copy at its exact type, and an
  invalidated copy keeps its value (``None``: never stored).

Nothing of a store is ever pickled: a simulator builds its own from the
procedure.

(Full-shape allocation is a simulation convenience — the *semantics*
are those of distributed sections. Test problem sizes are small; large
sizes go through the analytic estimator instead.)
"""

from __future__ import annotations

import numpy as np

from ..codegen.seq import _dtype_of
from ..errors import SimulationError
from ..ir.program import Procedure
from ..mapping.descriptors import ArrayMapping, GridDimRole


class Store:
    """Every declared variable on every rank: per array one data buffer
    and one validity buffer of shape ``(nranks, *shape)`` — zero data,
    nothing valid — and per scalar one list of ``nranks`` values and
    one of validity flags — nothing stored."""

    def __init__(self, proc: Procedure, nranks: int):
        self.data: dict[str, np.ndarray] = {}
        self.valid: dict[str, np.ndarray] = {}
        self.lows: dict[str, tuple[int, ...]] = {}
        #: name -> (data, valid, size) with the buffers flattened: rank
        #: ``r``'s element ``e`` is at ``r * size + e``
        self.flat: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        for symbol in proc.symbols.arrays():
            name = symbol.name
            shape = (nranks, *(symbol.extent(d) for d in range(symbol.rank)))
            data = self.data[name] = np.zeros(shape, dtype=_dtype_of(symbol))
            valid = self.valid[name] = np.zeros(shape, dtype=np.bool_)
            self.lows[name] = tuple(lo for lo, _ in symbol.dims)
            self.flat[name] = (data.reshape(-1), valid.reshape(-1), data[0].size)
        #: name -> every rank's value of the scalar, and whether it is valid
        self.scalars: dict[str, list] = {
            s.name: [None] * nranks for s in proc.symbols.scalars()
        }
        self.scalar_valid: dict[str, list[bool]] = {
            name: [False] * nranks for name in self.scalars
        }

    def set_array(self, mapping: ArrayMapping, values) -> None:
        """Distribute initial array contents: every rank receives the
        data, but validity follows ownership (owners valid; replicated/
        privatized dims valid everywhere)."""
        name = mapping.array.name
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":
            # (complex would lose its imaginary part, a string die in numpy)
            raise SimulationError(
                f"cannot initialize {name} from {values.dtype} values: "
                f"an input is boolean, integer or real"
            )
        data = self.data[name]
        if data.shape[1:] != values.shape:
            raise SimulationError(
                f"shape mismatch initializing {name}: "
                f"{values.shape} vs {data.shape[1:]}"
            )
        data[...] = values
        self.valid[name][...] = ownership_masks(mapping)

    def offset(self, name: str, index: tuple[int, ...]) -> tuple[int, ...]:
        """The element ``name(index)`` as offsets into a rank's copy."""
        return tuple(idx - lo for idx, lo in zip(index, self.lows[name]))

    def at(self, name: str, rank: int, index: tuple[int, ...]) -> tuple[int, ...]:
        """Rank ``rank``'s copy of ``name(index)`` in the array's buffers."""
        return (rank, *self.offset(name, index))

    def holder(self, name: str) -> int | None:
        """The lowest rank holding a valid copy of scalar ``name``."""
        valid = self.scalar_valid[name]
        return valid.index(True) if True in valid else None

    def scalar_keep(self, name: str, ranks) -> None:
        """Invalidate scalar ``name`` on every rank outside ``ranks``."""
        keep = set(ranks)
        valid = self.scalar_valid[name]
        valid[:] = [ok and r in keep for r, ok in enumerate(valid)]


def _owner_vector(role: GridDimRole, low: int, count: int) -> np.ndarray:
    """Owning grid coordinate of every global index along one
    distributed dimension (vectorized ``fmt.owner(template_pos(i))``)."""
    idx = np.arange(low, low + count, dtype=np.int64)
    pos = role.stride * idx + role.norm_offset
    fmt = role.fmt
    bad = (pos < 0) | (pos >= fmt.extent)
    if bad.any():
        # raise the canonical MappingError at the first bad position
        fmt.owner(int(pos[int(np.argmax(bad))]))
    if fmt.kind == "block":
        return pos // fmt.block_size
    return (pos // fmt.chunk) % fmt.procs


def ownership_mask(mapping: ArrayMapping, rank: int) -> np.ndarray:
    """Boolean mask over the full global shape of the elements ``rank``
    owns — the vectorized form of ``mapping.owned_global_indices``."""
    symbol = mapping.array
    coords = mapping.grid.coords_of(rank)
    vecs: list[np.ndarray] = []
    for dim, (low, high) in enumerate(symbol.dims):
        count = high - low + 1
        g = mapping.grid_dim_of_array_dim(dim)
        if g is None:
            vecs.append(np.ones(count, dtype=np.bool_))
        else:
            vecs.append(_owner_vector(mapping.roles[g], low, count) == coords[g])
    mask = vecs[0]
    for vec in vecs[1:]:
        mask = np.logical_and.outer(mask, vec)
    return mask


def ownership_masks(mapping: ArrayMapping) -> np.ndarray:
    """:func:`ownership_mask` of every rank at once, shape ``(P,
    *shape)``: per distributed dimension one owner vector, compared
    with every rank's coordinate on that grid dimension."""
    symbol, grid = mapping.array, mapping.grid
    shape = tuple(symbol.extent(d) for d in range(symbol.rank))
    coords = np.unravel_index(np.arange(grid.size), grid.shape)
    masks = np.ones((grid.size, *shape), dtype=np.bool_)
    for dim, (low, _high) in enumerate(symbol.dims):
        g = mapping.grid_dim_of_array_dim(dim)
        if g is not None:
            owner = _owner_vector(mapping.roles[g], low, shape[dim])
            along = [1] * symbol.rank
            along[dim] = -1
            masks &= (owner == coords[g][:, None]).reshape(grid.size, *along)
    return masks
