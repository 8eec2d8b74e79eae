"""Classic iterative dataflow analyses on the statement-level CFG.

* :class:`LivenessInfo` — backward may-liveness over scalar symbols and
  (coarsely, whole-array) over array symbols. Used to decide whether a
  value is live outside a loop ("privatizable and not live outside the
  current loop", paper Section 2.2) and to validate `NEW` clauses.
* :func:`upward_exposed_uses` — per-loop upward-exposed scalar reads,
  the classical test that every read is preceded by a same-iteration
  write (array privatization legality support).
"""

from __future__ import annotations

from ..ir.cfg import CFG, CFGNode
from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.stmt import LoopStmt


class LivenessInfo:
    """live_in / live_out sets of symbol names per CFG node."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.live_in: dict[int, frozenset[str]] = {}
        self.live_out: dict[int, frozenset[str]] = {}
        self._compute()

    @staticmethod
    def _node_uses(node: CFGNode) -> set[str]:
        if node.stmt is None:
            return set()
        names = set()
        for ref in node.stmt.uses():
            names.add(ref.symbol.name)
        return names

    @staticmethod
    def _node_defs(node: CFGNode) -> set[str]:
        """Definitely-assigned symbols. An array element store is *not*
        a kill of the whole array."""
        if node.stmt is None:
            return set()
        names = set()
        for ref in node.stmt.defs():
            if isinstance(ref, ScalarRef):
                names.add(ref.symbol.name)
        return names

    def _compute(self) -> None:
        order = self.cfg.reverse_postorder()
        use = {n.index: frozenset(self._node_uses(n)) for n in order}
        defs = {n.index: frozenset(self._node_defs(n)) for n in order}
        live_in = {n.index: frozenset() for n in order}
        live_out = {n.index: frozenset() for n in order}
        changed = True
        while changed:
            changed = False
            for node in reversed(order):  # postorder: good for backward flow
                out = frozenset().union(
                    *(live_in.get(s.index, frozenset()) for s in node.succs)
                ) if node.succs else frozenset()
                new_in = use[node.index] | (out - defs[node.index])
                if out != live_out[node.index] or new_in != live_in[node.index]:
                    live_out[node.index] = out
                    live_in[node.index] = new_in
                    changed = True
        self.live_in = live_in
        self.live_out = live_out

    # -- loop-level queries --------------------------------------------------

    def live_after_loop(self, loop: LoopStmt) -> frozenset[str]:
        """Symbols live on the loop's exit edge (header → follow): the
        header's successors that ``loop`` does not enclose."""
        live: set[str] = set()
        for succ in self.cfg.node_of(loop).succs:
            stmt = succ.stmt
            if stmt is None or not self.cfg.proc.encloses(loop, stmt):
                live |= self.live_in.get(succ.index, frozenset())
        return frozenset(live)

    def is_live_out_of_loop(self, name: str, loop: LoopStmt) -> bool:
        return name.upper() in self.live_after_loop(loop)


def upward_exposed_uses(cfg: CFG, loop: LoopStmt) -> set[str]:
    """Scalar symbols with a read in ``loop``'s body not preceded by a
    same-iteration write on some path from the loop header.

    Computed by a forward "definitely assigned since header" analysis
    restricted to the loop body.
    """
    header = cfg.node_of(loop)
    body_nodes = [cfg.node_of(s) for s in loop.walk() if s is not loop]
    body_set = {n.index for n in body_nodes}
    # assigned[n] = set of symbols definitely written on every path
    # from the header to the *entry* of n (within the body).
    universe: set[str] = set()
    for node in body_nodes:
        universe |= LivenessInfo._node_defs(node)
    assigned: dict[int, set[str] | None] = {n.index: None for n in body_nodes}
    exposed: set[str] = set()

    changed = True
    while changed:
        changed = False
        for node in body_nodes:
            ins: set[str] | None = None
            for pred in node.preds:
                if pred.index == header.index:
                    contrib: set[str] = set()
                elif pred.index in body_set:
                    prev = assigned[pred.index]
                    if prev is None:
                        continue
                    contrib = prev | LivenessInfo._node_defs(pred)
                else:
                    continue
                ins = contrib if ins is None else (ins & contrib)
            if ins is None:
                continue
            if assigned[node.index] != ins:
                assigned[node.index] = ins
                changed = True

    for node in body_nodes:
        ins = assigned[node.index]
        if ins is None:
            ins = set()
        for ref in LivenessInfo._node_uses(node):
            symbol = cfg.proc.symbols.lookup(ref)
            if symbol is None or not symbol.is_scalar or ref in ins:
                continue
            if symbol.is_loop_var:
                continue  # loop indices are defined by their headers
            exposed.add(ref)
    return exposed


def array_reads_in(loop: LoopStmt) -> set[str]:
    names: set[str] = set()
    for stmt in loop.walk():
        for ref in stmt.uses():
            if isinstance(ref, ArrayElemRef):
                names.add(ref.symbol.name)
    return names


def array_writes_in(loop: LoopStmt) -> set[str]:
    names: set[str] = set()
    for stmt in loop.walk():
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef):
                names.add(ref.symbol.name)
    return names


def compute_liveness(cfg: CFG) -> LivenessInfo:
    return LivenessInfo(cfg)
