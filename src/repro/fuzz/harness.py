"""The differential tier-parity harness.

:func:`check_program` runs one program through every cross-checking
lens the repo has and returns the list of :class:`Divergence` records
it found (empty = the program survives):

* **tier parity** — ``interpreted`` / ``lowered`` / ``slab`` /
  ``tier="auto"`` runs must produce byte-identical clocks, traffic
  stats, canonical stats, per-rank memories, and gathered arrays;
* **sequential validation** — the gathered arrays must match the
  sequential reference (``allclose``: parallel reductions combine in
  tree order, so bitwise equality is not expected), and the reference
  itself — lowered closures plus vectorized loop takeovers — must equal
  the tree-walking interpreter bit for bit, arrays and scalars;
* **DetermineMapping differential** — the paper's ``selected``
  strategy must compute the same values as the replicate-everything
  baseline (mapping decisions move data, never change it);
* **sweep parity** — pool-vs-batched ``run_sweep`` over a small
  procs × machine grid must stitch byte-identical records.

Divergence kinds form the triage taxonomy (see ARCHITECTURE.md):
``compile-crash``, ``tier-crash``, ``tier-error-mismatch``, ``clocks``,
``stats``, ``canonical``, ``memory``, ``gather``, ``sequential``,
``seq-vector`` (the vectorized reference and the tree-walker disagree
— a bug in ``repro.codegen.seqvec`` or the lowering, not in any tier),
``mapping``, ``sweep``, ``invalid`` (the program itself is rejected
everywhere — a generator bug, not a tier bug).
"""

from __future__ import annotations

import dataclasses
import json
import traceback
from dataclasses import dataclass

from ..core.driver import CompilerOptions, compile_source
from ..machine import TIERS
from ..model import SP2

#: the small machine grid of the sweep differential
SWEEP_MACHINES = (
    SP2,
    dataclasses.replace(SP2, name="fuzz-fast", alpha=5e-6, beta=1.0 / 300e6),
    dataclasses.replace(SP2, name="fuzz-slow", flop_time=1.0 / 5e6),
)


@dataclass
class Divergence:
    """One observed disagreement, with enough provenance to reproduce."""

    kind: str
    detail: str
    procs: int | None = None
    tier: str | None = None
    seed: int | None = None
    source: str | None = None

    def describe(self) -> str:
        where = f" procs={self.procs}" if self.procs is not None else ""
        who = f" tier={self.tier}" if self.tier else ""
        return f"[{self.kind}]{where}{who}: {self.detail}"


# ---------------------------------------------------------------------------
# Inputs and payloads
# ---------------------------------------------------------------------------


def make_inputs(source: str, seed: int) -> dict:
    """Deterministic random inputs, drawn in the *untransformed*
    procedure's symbol order exactly like ``Session.run`` (so the
    sequential reference and every tier see one dataset)."""
    from ..codegen.seq import seeded_inputs
    from ..ir.build import parse_and_build

    return seeded_inputs(parse_and_build(source), seed)


def store_mismatch(expected, actual) -> str | None:
    """First bit-level difference between two ``GlobalStore``s — array
    bytes, scalar values and their Python types — or None."""
    for name, want in expected.arrays.items():
        got = actual.arrays[name]
        if want.dtype != got.dtype or want.tobytes() != got.tobytes():
            return f"array {name} differs"
    if set(expected.scalars) != set(actual.scalars):
        return (
            f"scalars defined {sorted(actual.scalars)}, "
            f"expected {sorted(expected.scalars)}"
        )
    for name, want in expected.scalars.items():
        got = actual.scalars[name]
        if type(want) is not type(got) or repr(want) != repr(got):
            return f"scalar {name} is {got!r}, expected {want!r}"
    return None


def tier_payload(sim) -> dict:
    """Everything a tier's run must agree on, in comparable form:
    canonical stats verbatim, per-rank memory and gathered-array
    contents as hex digests (byte-level, order-stable).

    Memory digests cover *every declared array on every rank* — data
    and validity — whether or not the run touched it: every rank holds
    all of them from construction."""
    import hashlib

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    names = sorted(s.name for s in sim.compiled.proc.symbols.arrays())
    memories = []
    for memory in sim.memories:
        record = {}
        for name in names:
            record[name] = (
                digest(memory.arrays[name].tobytes()),
                digest(memory.valid[name].tobytes()),
            )
        record["scalars"] = dict(sorted(memory.scalars.items()))
        record["scalar_valid"] = dict(sorted(memory.scalar_valid.items()))
        memories.append(record)
    gathers = {
        name: digest(sim.gather(name).tobytes()) for name in names
    }
    canonical = sim.canonical_stats()
    # 'tiers' records which engine took each nest — definitionally
    # different across forced tiers, so it is not a parity surface
    canonical.pop("tiers", None)
    return {
        "canonical": canonical,
        "memories": memories,
        "gathers": gathers,
    }


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=repr)


def _trim(exc: BaseException) -> str:
    lines = traceback.format_exception_only(type(exc), exc)
    return lines[-1].strip()


# ---------------------------------------------------------------------------
# Lenses
# ---------------------------------------------------------------------------


def check_tiers(
    source: str,
    procs: int,
    *,
    seed: int = 0,
    options: CompilerOptions | None = None,
) -> tuple[list[Divergence], dict | None]:
    """Tier parity at one processor count.  Returns the divergences
    plus the interpreted tier's payload (the reference for corpus
    pinning), or None when nothing ran."""
    from ..machine.simulator import simulate

    options = options or CompilerOptions(num_procs=procs)
    try:
        compiled = compile_source(source, options)
    except Exception as exc:  # noqa: BLE001 — triage sorts it out
        return (
            [
                Divergence(
                    kind="compile-crash",
                    detail=_trim(exc),
                    procs=procs,
                    source=source,
                )
            ],
            None,
        )
    inputs = make_inputs(source, seed)

    payloads: dict[str, dict] = {}
    errors: dict[str, str] = {}
    for tier in TIERS:
        try:
            sim = simulate(compiled, dict(inputs), tier=tier)
            payloads[tier] = tier_payload(sim)
        except Exception as exc:  # noqa: BLE001 — compared below
            errors[tier] = _trim(exc)

    divergences: list[Divergence] = []
    if errors and len(errors) == len(TIERS):
        # every engine rejects it identically: the program is invalid
        kinds = set(errors.values())
        kind = "invalid" if len(kinds) == 1 else "tier-error-mismatch"
        return (
            [
                Divergence(
                    kind=kind,
                    detail="; ".join(
                        f"{t}: {e}" for t, e in sorted(errors.items())
                    ),
                    procs=procs,
                    source=source,
                )
            ],
            None,
        )
    for tier, error in sorted(errors.items()):
        divergences.append(
            Divergence(
                kind="tier-crash",
                detail=error,
                procs=procs,
                tier=tier,
                source=source,
            )
        )
    reference = payloads.get("interpreted")
    if reference is not None:
        want = _canonical(reference)
        for tier in ("lowered", "slab", "auto"):
            got = payloads.get(tier)
            if got is None or _canonical(got) == want:
                continue
            divergences.append(
                Divergence(
                    kind=_first_difference(reference, got),
                    detail=_diff_detail(reference, got),
                    procs=procs,
                    tier=tier,
                    source=source,
                )
            )
    return divergences, reference


def _first_difference(want: dict, got: dict) -> str:
    if _canonical(want["canonical"]["clocks"]) != _canonical(
        got["canonical"]["clocks"]
    ):
        return "clocks"
    if _canonical(want["canonical"]["stats"]) != _canonical(
        got["canonical"]["stats"]
    ):
        return "stats"
    if _canonical(want["canonical"]) != _canonical(got["canonical"]):
        return "canonical"
    if _canonical(want["memories"]) != _canonical(got["memories"]):
        return "memory"
    if _canonical(want["gathers"]) != _canonical(got["gathers"]):
        return "gather"
    return "canonical"


def _diff_detail(want: dict, got: dict, limit: int = 3) -> str:
    """The first few differing leaves, dotted-path → (want, got)."""

    def walk(a, b, path, out):
        if len(out) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(a.get(key), b.get(key), f"{path}.{key}", out)
            return
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for idx, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{idx}]", out)
            return
        if a != b:
            out.append(f"{path}: {a!r} != {b!r}")

    out: list[str] = []
    walk(want, got, "", out)
    return "; ".join(out) if out else "payloads differ"


def check_sequential(
    source: str, procs: int, *, seed: int = 0
) -> list[Divergence]:
    """The whole parallel machinery against the sequential reference:
    gathered arrays must match within tolerance — and the reference
    against the tree-walking interpreter, bit for bit."""
    import numpy as np

    from ..codegen.seq import run_sequential
    from ..ir.build import parse_and_build
    from ..machine.simulator import simulate

    try:
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        inputs = make_inputs(source, seed)
        sim = simulate(compiled, dict(inputs), tier="auto")
        sequential = run_sequential(parse_and_build(source), inputs)
        oracle = run_sequential(
            parse_and_build(source), inputs, fast_path=False
        )
    except Exception as exc:  # noqa: BLE001 — tier lens already reported
        return [
            Divergence(
                kind="tier-crash",
                detail=_trim(exc),
                procs=procs,
                tier="sequential-check",
                source=source,
            )
        ]
    out: list[Divergence] = []
    mismatch = store_mismatch(oracle, sequential)
    if mismatch is not None:
        out.append(
            Divergence(
                kind="seq-vector",
                detail=f"vectorized reference vs tree-walker: {mismatch}",
                procs=procs,
                source=source,
            )
        )
    for symbol in compiled.proc.symbols.arrays():
        name = symbol.name
        if not np.allclose(sim.gather(name), sequential.get_array(name)):
            out.append(
                Divergence(
                    kind="sequential",
                    detail=f"array {name} deviates from the sequential run",
                    procs=procs,
                    source=source,
                )
            )
    return out


def check_mapping(
    source: str, procs: int, *, seed: int = 0
) -> list[Divergence]:
    """DetermineMapping differential: the selected-strategy run must
    compute the same values as the replicate-everything baseline."""
    import numpy as np

    from ..machine.simulator import simulate

    runs = {}
    for strategy in ("selected", "replication"):
        try:
            compiled = compile_source(
                source,
                CompilerOptions(num_procs=procs, strategy=strategy),
            )
            sim = simulate(compiled, make_inputs(source, seed), tier="auto")
        except Exception as exc:  # noqa: BLE001
            return [
                Divergence(
                    kind="mapping",
                    detail=f"strategy={strategy} failed: {_trim(exc)}",
                    procs=procs,
                    source=source,
                )
            ]
        runs[strategy] = sim
    selected, baseline = runs["selected"], runs["replication"]
    out: list[Divergence] = []
    for symbol in baseline.compiled.proc.symbols.arrays():
        name = symbol.name
        if not np.allclose(selected.gather(name), baseline.gather(name)):
            out.append(
                Divergence(
                    kind="mapping",
                    detail=(
                        f"array {name}: selected mapping deviates from "
                        "the replicate-everything baseline"
                    ),
                    procs=procs,
                    source=source,
                )
            )
    return out


def check_sweep(
    emit,
    *,
    name: str = "fuzz",
    procs: tuple[int, ...] = (1, 2, 4),
    seed: int = 0,
) -> list[Divergence]:
    """Pool-vs-batched sweep parity over a procs × machine grid.
    ``emit`` is a source builder callable (``emit(procs) -> str``) so
    the procs axis re-emits its PROCESSORS directive per point."""
    from ..sweep import SweepSpec, run_sweep
    from ..sweep.spec import SweepResult

    spec = SweepSpec(
        programs={name: emit},
        procs=procs,
        axes={"machine": SWEEP_MACHINES},
        mode="simulate",
        seed=seed,
    )

    def record(result: SweepResult) -> dict:
        return {
            "label": result.label,
            "ok": result.ok,
            "elapsed": result.elapsed,
            "messages": result.messages,
            "fetches": result.fetches,
            "canonical": result.canonical_stats,
        }

    try:
        pool = run_sweep(spec, workers=0, mode="pool")
        batched = run_sweep(spec, workers=0, mode="batched")
    except Exception as exc:  # noqa: BLE001
        return [
            Divergence(kind="sweep", detail=_trim(exc), source=emit(None))
        ]
    out: list[Divergence] = []
    for p_result, b_result in zip(pool, batched):
        if _canonical(record(p_result)) != _canonical(record(b_result)):
            out.append(
                Divergence(
                    kind="sweep",
                    detail=_diff_detail(record(p_result), record(b_result)),
                    procs=p_result.procs,
                    source=emit(p_result.procs),
                )
            )
    return out


# ---------------------------------------------------------------------------
# The full battery
# ---------------------------------------------------------------------------


def check_program(
    program,
    *,
    procs_list: tuple[int, ...] = (1, 3, 4),
    seed: int = 0,
    sweep: bool = False,
    mapping: bool = True,
    sequential: bool = True,
) -> list[Divergence]:
    """Run every lens over ``program`` (a
    :class:`~repro.fuzz.grammar.FuzzProgram` or raw source text).
    ``sweep`` adds the (slower) pool-vs-batched differential."""
    emit = program.emit if hasattr(program, "emit") else None
    gen_seed = getattr(program, "seed", None)
    divergences: list[Divergence] = []
    for procs in procs_list:
        source = emit(procs) if emit is not None else program
        tier_div, _reference = check_tiers(source, procs, seed=seed)
        divergences.extend(tier_div)
        if any(d.kind in ("compile-crash", "invalid") for d in tier_div):
            break  # nothing else can run; one record is enough
        if sequential:
            divergences.extend(check_sequential(source, procs, seed=seed))
        if mapping:
            divergences.extend(check_mapping(source, procs, seed=seed))
    if sweep and emit is not None and not divergences:
        divergences.extend(check_sweep(emit, seed=seed))
    for divergence in divergences:
        divergence.seed = gen_seed
    return divergences
