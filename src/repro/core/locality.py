"""Symbolic locality algebra: where does a reference live, and does
fetching it require communication given who executes the statement?

A reference's home is described per grid dimension as a
:class:`DimPosition`:

* ``any``     — available on every processor along the dimension
  (replicated or privatized there, or scalar data the paper treats as
  replicated),
* ``pos``     — a position on a distribution template, as an affine
  form of enclosing loop indices (plus the template's format),
* ``unknown`` — not expressible (non-affine subscript): communication
  must be assumed.

Two ``pos`` entries are *communication-free* when they name the same
template (equal :class:`~repro.mapping.distribution.DimFormat`) and the
same affine position for every iteration. This is how the compiler
knows ``B(i)`` is local to the owner of ``A(i)`` but ``A(i+1)`` is not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import AffineForm, ArrayElemRef
from ..mapping.descriptors import ArrayMapping
from ..mapping.distribution import DimFormat


@dataclass(frozen=True)
class DimPosition:
    kind: str  # "any" | "pos" | "unknown"
    fmt: DimFormat | None = None
    form: AffineForm | None = None

    def __str__(self) -> str:
        if self.kind == "pos":
            return f"pos[{self.form}]"
        return self.kind


ANY = DimPosition(kind="any")
UNKNOWN = DimPosition(kind="unknown")

#: A Position has one DimPosition per grid dimension.
Position = tuple[DimPosition, ...]


def all_any(grid_rank: int) -> Position:
    """The position of fully replicated data (or of an executor set
    meaning 'all processors')."""
    return tuple(ANY for _ in range(grid_rank))


def scale_shift(form: AffineForm, stride: int, offset: int) -> AffineForm:
    """stride * form + offset."""
    return AffineForm(
        coeffs=tuple((s, c * stride) for s, c in form.coeffs),
        const=form.const * stride + offset,
    )


def position_of_array_ref(ref: ArrayElemRef, mapping: ArrayMapping) -> Position:
    """Template position of an array reference, per grid dimension."""
    dims: list[DimPosition] = []
    for role in mapping.roles:
        if role.kind != "dist":
            dims.append(ANY)
            continue
        if role.fmt is not None and role.fmt.procs == 1:
            # A dimension distributed over one processor is trivially
            # local everywhere along it.
            dims.append(ANY)
            continue
        form = ref.forms[role.array_dim]
        if form is None:
            dims.append(DimPosition(kind="unknown", fmt=role.fmt))
            continue
        dims.append(
            DimPosition(
                kind="pos",
                fmt=role.fmt,
                form=scale_shift(form, role.stride, role.norm_offset),
            )
        )
    return tuple(dims)


def forms_equal(a: AffineForm, b: AffineForm) -> bool:
    return a.const == b.const and {
        (s.name, c) for s, c in a.coeffs
    } == {(s.name, c) for s, c in b.coeffs}


def forms_constant_offset(a: AffineForm, b: AffineForm) -> int | None:
    """If a - b is a constant (same coefficients), return it."""
    if {(s.name, c) for s, c in a.coeffs} != {(s.name, c) for s, c in b.coeffs}:
        return None
    return a.const - b.const


def dim_comm_free(data: DimPosition, executor: DimPosition) -> bool:
    """Is the data available wherever the executor runs, along this
    grid dimension?"""
    if data.kind == "any":
        return True
    if executor.kind == "any":
        # Executed by all processors along the dimension, but data lives
        # at one position: everyone else must receive it.
        return False
    if data.kind == "unknown" or executor.kind == "unknown":
        return False
    if data.fmt != executor.fmt:
        return False
    return forms_equal(data.form, executor.form)


def comm_free(data: Position, executor: Position) -> bool:
    return all(dim_comm_free(d, e) for d, e in zip(data, executor))


@dataclass(frozen=True)
class TransferPattern:
    """Communication pattern classification for one reference, used by
    the cost model.

    kind:
      * ``none``      — no communication;
      * ``shift``     — constant template-offset difference in one or
        more grid dims (nearest-neighbour or small-hop collective);
      * ``broadcast`` — data at one position must reach all processors
        along at least one grid dim;
      * ``general``   — anything else (gather / irregular / unknown).
    """

    kind: str
    offsets: tuple[int, ...] = ()  # per shifted grid dim, template delta
    bcast_dims: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "shift":
            return f"shift{self.offsets}"
        if self.kind == "broadcast":
            return f"broadcast(dims={self.bcast_dims})"
        return self.kind


def classify_transfer(data: Position, executor: Position) -> TransferPattern:
    """Classify the communication needed to deliver ``data`` to
    ``executor`` (``none`` when comm-free)."""
    if comm_free(data, executor):
        return TransferPattern(kind="none")
    offsets: list[int] = []
    bcast_dims: list[int] = []
    general = False
    for g, (d, e) in enumerate(zip(data, executor)):
        if dim_comm_free(d, e):
            continue
        if e.kind == "any" and d.kind in ("pos", "unknown"):
            bcast_dims.append(g)
            continue
        if d.kind == "pos" and e.kind == "pos" and d.fmt == e.fmt:
            delta = forms_constant_offset(d.form, e.form)
            if delta is not None:
                offsets.append(delta)
                continue
        general = True
    if general:
        return TransferPattern(kind="general")
    if bcast_dims:
        return TransferPattern(kind="broadcast", bcast_dims=tuple(bcast_dims))
    return TransferPattern(kind="shift", offsets=tuple(offsets))
