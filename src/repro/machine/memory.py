"""Memory of the simulated distributed-memory machine.

Every virtual processor holds a full-global-shape copy of every array
plus a validity mask: an element is *valid* on a rank when the rank
owns it (per the effective mapping) or has received it. Reads of
invalid elements trigger modeled communication in the simulator; writes
are only legal on executing ranks. This "distributed memory with
explicit validity" discipline is what lets the simulator detect
mapping/partitioning bugs: an element nobody valid-holds is a compile
error surfaced at run time.

A distributed object is indexed by *(processor, element)* — the
processor is one more index, not a container.  So there is one store
per array (:class:`ArrayStore`): a data buffer and a validity buffer of
shape ``(P, *shape)``, rank-major.  A :class:`NodeMemory` is a row of
it — ``memory.arrays[name]`` / ``memory.valid[name]`` are views of the
rank's row, so a store through either is visible through both — and an
element's *address* in the flattened buffer is ``rank * size +
element``, which is how the slab tier reads, writes, invalidates and
delivers for all ranks in one indexed operation.  Nothing of a store is
ever pickled: a simulator builds its own from the procedure.

(Full-shape allocation is a simulation convenience — the *semantics*
are those of distributed sections. Test problem sizes are small; large
sizes go through the analytic estimator instead.)
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..ir.program import Procedure
from ..ir.symbols import ScalarType, Symbol
from ..mapping.descriptors import ArrayMapping, GridDimRole


def _dtype_of(symbol: Symbol):
    if symbol.type is ScalarType.INT:
        return np.int64
    if symbol.type is ScalarType.LOGICAL:
        return np.bool_
    return np.float64


class ArrayStore:
    """Every declared array on every rank: per array one data buffer
    and one validity buffer of shape ``(nranks, *shape)`` — zero data,
    nothing valid."""

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


class NodeMemory:
    """Memory of one virtual processor: every declared array at its
    full global shape beside a validity mask — row ``rank`` of
    ``store``, or of a one-rank store of its own — and the scalars.
    All of it exists from construction; the simulator marks what the
    rank owns and ``initialize_array`` writes the initial contents
    through."""

    def __init__(self, rank: int, proc: Procedure, store: ArrayStore | None = None):
        self.rank = rank
        row = rank
        if store is None:
            store, row = ArrayStore(proc, 1), 0
        self.arrays = {name: buf[row] for name, buf in store.data.items()}
        self.valid = {name: buf[row] for name, buf in store.valid.items()}
        self.scalars: dict[str, float | int | bool] = {}
        self.scalar_valid: dict[str, bool] = {}
        self._lows = store.lows

    # -- index helpers -----------------------------------------------------

    def offset(self, name: str, index: tuple[int, ...]) -> tuple[int, ...]:
        lows = self._lows[name]
        return tuple(idx - lo for idx, lo in zip(index, lows))

    # -- arrays ----------------------------------------------------------------

    def array_value(self, name: str, index: tuple[int, ...]):
        return self.arrays[name][self.offset(name, index)].item()

    def array_is_valid(self, name: str, index: tuple[int, ...]) -> bool:
        return bool(self.valid[name][self.offset(name, index)])

    def array_store(self, name: str, index: tuple[int, ...], value) -> None:
        off = self.offset(name, index)
        self.arrays[name][off] = value
        self.valid[name][off] = True

    def array_invalidate(self, name: str, index: tuple[int, ...]) -> None:
        self.valid[name][self.offset(name, index)] = False

    # -- scalars ------------------------------------------------------------------

    def scalar_value(self, name: str):
        if not self.scalar_valid.get(name, False):
            raise SimulationError(
                f"rank {self.rank}: read of invalid scalar {name}"
            )
        return self.scalars[name]

    def scalar_is_valid(self, name: str) -> bool:
        return self.scalar_valid.get(name, False)

    def scalar_store(self, name: str, value) -> None:
        self.scalars[name] = value
        self.scalar_valid[name] = True

    def scalar_invalidate(self, name: str) -> None:
        self.scalar_valid[name] = False


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


def initialize_array(memories: list[NodeMemory], mapping: ArrayMapping,
                     values) -> None:
    """Distribute initial array contents: every rank receives the data,
    but validity follows ownership (owners valid; replicated/privatized
    dims valid everywhere)."""
    name = mapping.array.name
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        # (complex would lose its imaginary part, a string die in numpy)
        raise SimulationError(
            f"cannot initialize {name} from {values.dtype} values: "
            f"an input is boolean, integer or real"
        )
    for memory in memories:
        if memory.arrays[name].shape != values.shape:
            raise SimulationError(
                f"shape mismatch initializing {name}: "
                f"{values.shape} vs {memory.arrays[name].shape}"
            )
    masks = ownership_masks(mapping)
    for memory in memories:
        memory.arrays[name][...] = values
        memory.valid[name][...] = masks[memory.rank]
