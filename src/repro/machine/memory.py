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

The store is also the one place that knows who owns an element.  At
construction it tabulates, per array and per distributed dimension, the
owner of every index along that dimension (:class:`_Owners`: O(extent),
never a ``(P, *shape)`` mask), and from those tables answers, for
both engines, the two questions every fetch, gather and combine asks: an
element's owner ranks, ascending (:meth:`Store.owner_rows`), and the
rank a read of it is served from — its lowest-ranked valid owner, else
the lowest-ranked valid copy (:meth:`Store.sources`, and
:meth:`Store.source` for one element).

The module is the one place that turns owner coordinates into ranks,
for statements as well: :func:`tabulate_owners` lists a format's
owners, :class:`GridRanks` turns a coordinate (or None: every one) per
grid dimension into the ascending rank list — read by the store, the
executor tables, the reduction groups and the slab plan's columns.

Nothing of a store is ever pickled: a simulator builds its own from the
compiled program.

(Full-shape allocation is a simulation convenience — the *semantics*
are those of distributed sections. Test problem sizes are small; large
sizes go through the analytic estimator instead.)
"""

from __future__ import annotations

import math

import numpy as np

from ..codegen.seq import _dtype_of
from ..errors import SimulationError
from ..mapping.descriptors import ArrayMapping
from ..mapping.distribution import DimFormat


class Store:
    """Every declared variable on every rank: per array one data buffer
    and one validity buffer of shape ``(nranks, *shape)`` — zero data,
    valid where the rank owns the element — and per scalar one list of
    ``nranks`` values and one of validity flags — nothing stored."""

    def __init__(self, compiled):
        proc = compiled.proc
        self.nranks = nranks = compiled.grid.size
        self.data: dict[str, np.ndarray] = {}
        self.valid: dict[str, np.ndarray] = {}
        self.lows: dict[str, tuple[int, ...]] = {}
        #: name -> (data, valid, size) with the buffers flattened: rank
        #: ``r``'s element ``e`` is at ``r * size + e``
        self.flat: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        #: the rule turning owner coordinates into ranks
        self.grid_ranks = grid_ranks = GridRanks(compiled.grid.shape)
        #: name -> who owns each element of the array
        self.owners: dict[str, _Owners] = {}
        for symbol in proc.symbols.arrays():
            name = symbol.name
            shape = (nranks, *(symbol.extent(d) for d in range(symbol.rank)))
            data = self.data[name] = np.zeros(shape, dtype=_dtype_of(symbol))
            valid = self.valid[name] = np.zeros(shape, dtype=np.bool_)
            self.lows[name] = tuple(lo for lo, _ in symbol.dims)
            self.flat[name] = (data.reshape(-1), valid.reshape(-1), data[0].size)
            owners = self.owners[name] = _Owners(compiled.mappings[name], grid_ranks)
            owners.mark(valid)
        #: name -> every rank's value of the scalar, and whether it is valid
        self.scalars: dict[str, list] = {
            s.name: [None] * nranks for s in proc.symbols.scalars()
        }
        self.scalar_valid: dict[str, list[bool]] = {
            name: [False] * nranks for name in self.scalars
        }

    def set_array(self, name: str, values) -> None:
        """Distribute initial array contents: every rank receives the
        data, but validity follows ownership (owners valid; replicated/
        privatized dims valid everywhere)."""
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
        self.owners[name].mark(self.valid[name])

    def offset(self, name: str, index: tuple[int, ...]) -> tuple[int, ...]:
        """The element ``name(index)`` as offsets into a rank's copy."""
        return tuple(idx - lo for idx, lo in zip(index, self.lows[name]))

    def at(self, name: str, rank: int, index: tuple[int, ...]) -> tuple[int, ...]:
        """Rank ``rank``'s copy of ``name(index)`` in the array's buffers."""
        return (rank, *self.offset(name, index))

    def element(self, name: str, index: tuple[int, ...]) -> int:
        """The flat element ``name(index)``; an index with the wrong
        number of subscripts or outside the declared bounds is a
        :class:`SimulationError` (numpy would wrap or reject it)."""
        lows, shape = self.lows[name], self.data[name].shape[1:]
        offset = self.offset(name, index)
        if len(index) != len(lows) or not all(
            0 <= o < n for o, n in zip(offset, shape)
        ):
            bounds = ", ".join(f"{lo}:{lo + n - 1}" for lo, n in zip(lows, shape))
            raise SimulationError(
                f"{name}{tuple(index)} is not an element of {name}({bounds})"
            )
        elem = 0
        for o, n in zip(offset, shape):
            elem = elem * n + o
        return elem

    def owner_rows(self, name: str, elem: np.ndarray) -> np.ndarray:
        """The owner ranks of the flat elements ``elem`` of ``name``,
        shape ``(k, len(elem))``: row ``c`` holds every element's
        ``c``-th owner, so each column is ascending."""
        return self.owners[name].rows(elem)

    def sources(self, name: str, elem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rank a read of each flat element ``elem`` of ``name`` is
        served from — its lowest-ranked valid owner, else the
        lowest-ranked rank holding a valid copy, -1 when none does —
        and the elements' :meth:`owner_rows`."""
        owners = self.owner_rows(name, elem)
        valid, size = self.flat[name][1:]
        src = np.full(len(elem), -1, dtype=np.int64)
        todo = np.arange(len(elem))
        for row in owners:
            held = valid.take(row[todo] * size + elem[todo])
            src[todo[held]] = row[todo[held]]
            todo = todo[~held]
        if todo.size:
            # no owner holds these: the lowest rank that does (argmax)
            held = self.valid[name].reshape(self.nranks, -1)[:, elem[todo]]
            src[todo] = np.where(held.any(axis=0), held.argmax(axis=0), -1)
        return src, owners

    def source(self, name: str, index: tuple[int, ...]) -> int | None:
        """The rank a read of ``name(index)`` is served from (None: no
        rank holds it) — :meth:`sources` of one element."""
        src, _owners = self.sources(
            name, np.asarray([self.element(name, index)], dtype=np.int64)
        )
        return int(src[0]) if src[0] >= 0 else None

    def holder(self, name: str) -> int | None:
        """The lowest rank holding a valid copy of scalar ``name``."""
        valid = self.scalar_valid[name]
        return valid.index(True) if True in valid else None

    def scalar_keep(self, name: str, ranks) -> None:
        """Invalidate scalar ``name`` on every rank outside ``ranks``."""
        keep = set(ranks)
        valid = self.scalar_valid[name]
        valid[:] = [ok and r in keep for r, ok in enumerate(valid)]


def tabulate_owners(fmt: DimFormat) -> np.ndarray:
    """The owning grid coordinate of every position of ``fmt``, in
    order: ``fmt.owner`` at ``0 .. extent - 1`` as one vectorized block
    or cyclic formula."""
    pos = np.arange(fmt.extent, dtype=np.int64)
    if fmt.kind == "block":
        return pos // fmt.block_size
    return pos // fmt.chunk % fmt.procs


class GridRanks:
    """The one rule turning a coordinate per grid dimension — or None:
    every coordinate — into ranks, ascending.  A rank is row-major over
    the grid coordinates, so it is a sum of one part per grid dimension
    (coordinate x the dimension's rank stride): the given coordinates'
    parts, plus each sum of every coordinate's part over the other
    dimensions — the span — in ascending order."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.strides = tuple(math.prod(shape[g + 1:]) for g in range(len(shape)))
        #: every rank, and a shared one-rank list per rank: a point's
        #: rank list allocates nothing
        self.every = list(range(math.prod(shape)))
        self.singletons = [[r] for r in self.every]

    def ranks(self, coords) -> list[int]:
        part, span = 0, [0]
        for c, extent, stride in zip(coords, self.shape, self.strides):
            if c is None:
                span = [b + k * stride for b in span for k in range(extent)]
            else:
                part += c * stride
        if len(span) == 1:
            return self.singletons[part]
        return [part + b for b in span]


class _Owners:
    """Who owns each element of one array, in tables the size of its
    dimensions, by the :class:`GridRanks` rule: per distributed
    dimension the part the owner of every index along it contributes,
    and the span of the other grid dimensions, added last."""

    def __init__(self, mapping: ArrayMapping, grid: GridRanks):
        symbol = mapping.array
        self.shape = tuple(symbol.extent(d) for d in range(symbol.rank))
        ranks = np.asarray(grid.every, dtype=np.int64)
        #: (array dim, the owner's part per index, every rank's part)
        self.dims: list[tuple[int, np.ndarray, np.ndarray]] = []
        for g, role in enumerate(mapping.roles):
            if role.kind != "dist":
                continue
            # the template position of every index along the dimension
            dim, stride, fmt = role.array_dim, grid.strides[g], role.fmt
            low = symbol.dims[dim][0]
            pos = role.stride * np.arange(low, low + self.shape[dim]) + role.norm_offset
            bad = (pos < 0) | (pos >= fmt.extent)
            if bad.any():
                # raise the canonical MappingError at the first bad position
                fmt.owner(int(pos[int(np.argmax(bad))]))
            owner = tabulate_owners(fmt)[pos] * stride
            self.dims.append((dim, owner, ranks // stride % grid.shape[g] * stride))
        self.span = np.asarray(grid.ranks(
            [0 if role.kind == "dist" else None for role in mapping.roles]
        ), dtype=np.int64)

    def rows(self, elem: np.ndarray) -> np.ndarray:
        """Owner ranks of flat elements, one row per owner ordinal."""
        offs = np.unravel_index(elem, self.shape)
        part = np.zeros(np.shape(elem), dtype=np.int64)
        for dim, owner, _rank_part in self.dims:
            part = part + owner[offs[dim]]
        return np.add.outer(self.span, part)

    def mark(self, valid: np.ndarray) -> None:
        """Make ``valid`` (shape ``(P, *shape)``) hold exactly what each
        rank owns, one distributed dimension at a time."""
        valid[...] = True
        for dim, owner, rank_part in self.dims:
            along = [1] * len(self.shape)
            along[dim] = -1
            valid &= (rank_part[:, None] == owner).reshape(len(rank_part), *along)


def ownership_masks(mapping: ArrayMapping) -> np.ndarray:
    """Every rank's ownership mask of the array at once, shape ``(P,
    *shape)``: ``masks[r]`` is true where rank ``r`` owns the element."""
    owners = _Owners(mapping, GridRanks(mapping.grid.shape))
    masks = np.empty((mapping.grid.size, *owners.shape), dtype=np.bool_)
    owners.mark(masks)
    return masks
