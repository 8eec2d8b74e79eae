"""SSA construction and use–def machinery for scalar variables.

The paper (Section 2.2): "phpf uses the SSA representation to associate
a separate mapping decision with each assignment to a scalar" and "given
a use of a scalar variable, all reaching definitions are given an
identical mapping". This module provides exactly the queries that
algorithm needs:

* :meth:`SSAInfo.def_of_use` — the (possibly phi) definition a use sees,
* :meth:`SSAInfo.reaching_real_defs` — real definitions reaching a use,
  expanding phi chains,
* :meth:`SSAInfo.reached_uses` — real uses reached by a definition,
  expanding phi chains,
* :meth:`SSAInfo.is_unique_def` — the ``IsUniqueDef`` predicate of paper
  Figure 3,
* phi-path queries used by privatizability analysis (does the value
  flow through a given loop's header phi, i.e. across iterations?).

Array variables are *not* renamed (standard practice); array analysis
lives in :mod:`repro.analysis.dependence`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..ir.cfg import CFG, CFGNode
from ..ir.expr import ScalarRef
from ..ir.stmt import AssignStmt, LoopStmt, Stmt
from ..ir.symbols import Symbol
from .dataflow import LivenessInfo
from .dominance import DominatorInfo, compute_dominance

_def_counter = itertools.count(1)


@dataclass
class SSADef:
    """One SSA definition of a scalar symbol.

    kind:
      * ``entry`` — implicit definition at procedure entry,
      * ``real``  — an assignment statement (``lhs_ref`` is its lhs),
      * ``loop``  — a loop header's definition of its index variable,
      * ``phi``   — a phi node at a join point.
    """

    symbol: Symbol
    kind: str
    node: CFGNode
    lhs_ref: ScalarRef | None = None
    def_id: int = field(default_factory=lambda: next(_def_counter))
    #: phi operands: definition ids, one per predecessor edge (aligned
    #: with node.preds order)
    operands: list[int] = field(default_factory=list)

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    @property
    def stmt(self) -> Stmt | None:
        return self.node.stmt

    def __hash__(self) -> int:
        return self.def_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SSADef) and other.def_id == self.def_id

    def __repr__(self) -> str:  # pragma: no cover
        where = f"n{self.node.index}"
        return f"<def {self.symbol.name}#{self.def_id} {self.kind}@{where}>"


class SSAInfo:
    """SSA form of the scalar variables of one procedure.

    The form is *pruned*: a phi for a symbol is placed at a join node
    only when the symbol is live-in there. Pruning matters for the
    paper's algorithm — a same-iteration temporary like ``x`` in Fig. 1
    must not appear to flow around the loop back edge through a dead
    phi, or it would be wrongly classified as non-privatizable.
    """

    def __init__(
        self,
        cfg: CFG,
        dom: DominatorInfo | None = None,
        liveness: LivenessInfo | None = None,
    ):
        self.cfg = cfg
        self.proc = cfg.proc
        self.dom = dom if dom is not None else compute_dominance(cfg)
        self.liveness = liveness if liveness is not None else LivenessInfo(cfg)
        #: def_id -> SSADef
        self.defs: dict[int, SSADef] = {}
        #: ref_id of a scalar *use* -> def_id it sees
        self.use_def: dict[int, int] = {}
        #: ref_id of a real def's lhs ScalarRef -> def_id
        self.def_of_lhs: dict[int, int] = {}
        #: symbol name -> list of def_ids
        self.defs_of_symbol: dict[str, list[int]] = {}
        #: node index -> list of phi def_ids placed there
        self.phis_at: dict[int, list[int]] = {}
        #: def_id -> list of use ref_ids that directly see it
        self.direct_uses: dict[int, list[int]] = {}
        #: use ref_id -> (ScalarRef, CFGNode) for reverse lookup
        self.use_info: dict[int, tuple[ScalarRef, CFGNode]] = {}

        self._build()

    # -- construction -----------------------------------------------------------

    def _scalar_defs_of_node(self, node: CFGNode) -> list[ScalarRef]:
        if node.stmt is None:
            return []
        return [
            ref
            for ref in node.stmt.defs()
            if isinstance(ref, ScalarRef) and ref.symbol.is_scalar
        ]

    def _scalar_uses_of_node(self, node: CFGNode) -> list[ScalarRef]:
        if node.stmt is None:
            return []
        return [
            ref
            for ref in node.stmt.uses()
            if isinstance(ref, ScalarRef) and ref.symbol.is_scalar
        ]

    def _build(self) -> None:
        reachable = {node.index for node in self.dom.rpo}
        # Collect the set of scalar symbols and their def sites.
        def_sites: dict[str, list[CFGNode]] = {}
        symbols: dict[str, Symbol] = {}
        for node in self.dom.rpo:
            for ref in self._scalar_defs_of_node(node):
                def_sites.setdefault(ref.symbol.name, []).append(node)
                symbols[ref.symbol.name] = ref.symbol
            for ref in self._scalar_uses_of_node(node):
                symbols.setdefault(ref.symbol.name, ref.symbol)

        # Entry definitions (version 0) for every scalar.
        entry_defs: dict[str, SSADef] = {}
        for name, symbol in symbols.items():
            d = SSADef(symbol=symbol, kind="entry", node=self.cfg.entry)
            self.defs[d.def_id] = d
            self.defs_of_symbol.setdefault(name, []).append(d.def_id)
            entry_defs[name] = d

        # Pruned phi placement: iterated dominance frontier of the def
        # sites, restricted to joins where the symbol is live-in.
        phi_nodes: dict[tuple[str, int], SSADef] = {}
        for name, sites in def_sites.items():
            sites_with_entry = sites + [self.cfg.entry]
            for node_index in self.dom.iterated_frontier(sites_with_entry):
                if node_index not in reachable:
                    continue
                if name not in self.liveness.live_in.get(node_index, frozenset()):
                    continue
                node = self.cfg.nodes[node_index]
                phi = SSADef(symbol=symbols[name], kind="phi", node=node)
                self.defs[phi.def_id] = phi
                self.defs_of_symbol.setdefault(name, []).append(phi.def_id)
                self.phis_at.setdefault(node_index, []).append(phi.def_id)
                phi_nodes[(name, node_index)] = phi

        # Renaming via dominator-tree walk.
        stacks: dict[str, list[int]] = {
            name: [entry_defs[name].def_id] for name in symbols
        }

        def current(name: str) -> int:
            return stacks[name][-1]

        def visit(node: CFGNode) -> None:
            pushed: list[str] = []
            # Phis at this node define before anything else.
            for def_id in self.phis_at.get(node.index, ()):
                phi = self.defs[def_id]
                stacks[phi.symbol.name].append(def_id)
                pushed.append(phi.symbol.name)
            # Uses see the current reaching definition.
            for ref in self._scalar_uses_of_node(node):
                def_id = current(ref.symbol.name)
                self.use_def[ref.ref_id] = def_id
                self.direct_uses.setdefault(def_id, []).append(ref.ref_id)
                self.use_info[ref.ref_id] = (ref, node)
            # Real definitions (assignments and loop-index defs).
            for ref in self._scalar_defs_of_node(node):
                kind = "loop" if isinstance(node.stmt, LoopStmt) else "real"
                d = SSADef(symbol=ref.symbol, kind=kind, node=node, lhs_ref=ref)
                self.defs[d.def_id] = d
                self.defs_of_symbol.setdefault(ref.symbol.name, []).append(d.def_id)
                self.def_of_lhs[ref.ref_id] = d.def_id
                stacks[ref.symbol.name].append(d.def_id)
                pushed.append(ref.symbol.name)
            # Fill phi operands of CFG successors.
            for succ in node.succs:
                try:
                    pred_pos = succ.preds.index(node)
                except ValueError:  # pragma: no cover - defensive
                    continue
                for def_id in self.phis_at.get(succ.index, ()):
                    phi = self.defs[def_id]
                    while len(phi.operands) < len(succ.preds):
                        phi.operands.append(0)
                    phi.operands[pred_pos] = current(phi.symbol.name)
            # Recurse into dominator-tree children.
            for child in self.dom.children.get(node.index, ()):
                visit(child)
            for name in reversed(pushed):
                stacks[name].pop()

        visit(self.cfg.entry)
        # Drop unfilled (unreachable-pred) phi operands.
        for d in self.defs.values():
            if d.kind == "phi":
                d.operands = [op for op in d.operands if op != 0]

    # -- queries -----------------------------------------------------------------

    def def_of_use(self, ref: ScalarRef) -> SSADef:
        return self.defs[self.use_def[ref.ref_id]]

    def def_of_assignment(self, stmt: AssignStmt) -> SSADef | None:
        """The SSA definition created by a scalar assignment."""
        if isinstance(stmt.lhs, ScalarRef):
            def_id = self.def_of_lhs.get(stmt.lhs.ref_id)
            return self.defs[def_id] if def_id is not None else None
        return None

    def real_defs(self, symbol_name: str | None = None):
        for d in self.defs.values():
            if d.is_real and (symbol_name is None or d.symbol.name == symbol_name):
                yield d

    def reaching_real_defs(self, ref: ScalarRef) -> set[SSADef]:
        """All non-phi definitions whose value may reach ``ref``,
        expanding phi chains. Entry and loop-index defs are included."""
        start = self.use_def.get(ref.ref_id)
        if start is None:
            return set()
        return self.expand_phis(start)

    def expand_phis(self, def_id: int) -> set[SSADef]:
        result: set[SSADef] = set()
        seen: set[int] = set()
        work = [def_id]
        while work:
            current_id = work.pop()
            if current_id in seen:
                continue
            seen.add(current_id)
            d = self.defs[current_id]
            if d.kind == "phi":
                work.extend(d.operands)
            else:
                result.add(d)
        return result

    def reached_uses(self, d: SSADef) -> list[ScalarRef]:
        """All real uses that may observe the value written by ``d``,
        following phi chains forward."""
        uses: list[ScalarRef] = []
        seen_defs: set[int] = set()
        seen_uses: set[int] = set()
        work = [d.def_id]
        phi_users = self._phi_users()
        while work:
            current_id = work.pop()
            if current_id in seen_defs:
                continue
            seen_defs.add(current_id)
            for ref_id in self.direct_uses.get(current_id, ()):
                if ref_id not in seen_uses:
                    seen_uses.add(ref_id)
                    uses.append(self.use_info[ref_id][0])
            work.extend(phi_users.get(current_id, ()))
        return uses

    def _phi_users(self) -> dict[int, list[int]]:
        if not hasattr(self, "_phi_users_cache"):
            cache: dict[int, list[int]] = {}
            for d in self.defs.values():
                if d.kind == "phi":
                    for op in d.operands:
                        cache.setdefault(op, []).append(d.def_id)
            self._phi_users_cache = cache
        return self._phi_users_cache

    def is_unique_def(self, d: SSADef) -> bool:
        """``IsUniqueDef`` of paper Fig. 3: ``d`` is the only reaching
        definition of every use it reaches."""
        for use in self.reached_uses(d):
            if self.reaching_real_defs(use) != {d}:
                return False
        return True

    # -- phi-path queries (privatizability support) --------------------------------

    def flows_through_phi_at(self, d: SSADef, node: CFGNode) -> bool:
        """Does some value-flow path from ``d`` to a use pass through a
        phi placed at ``node``? For a loop-header node this means the
        value crosses an iteration boundary (or the loop exit merge)."""
        phi_users = self._phi_users()
        seen: set[int] = set()
        work = list(phi_users.get(d.def_id, ()))
        while work:
            current_id = work.pop()
            if current_id in seen:
                continue
            seen.add(current_id)
            phi = self.defs[current_id]
            if phi.node.index == node.index:
                return True
            work.extend(phi_users.get(current_id, ()))
        return False

    def stmt_of_use(self, ref: ScalarRef) -> Stmt:
        return self.use_info[ref.ref_id][1].stmt

    def node_of_use(self, ref: ScalarRef) -> CFGNode:
        return self.use_info[ref.ref_id][1]


def build_ssa(
    cfg: CFG,
    dom: DominatorInfo | None = None,
    liveness: LivenessInfo | None = None,
) -> SSAInfo:
    return SSAInfo(cfg, dom=dom, liveness=liveness)
