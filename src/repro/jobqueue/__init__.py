"""The work queue under the sweep pool and the sweep service: a
sqlite-backed queue of leased shards (:mod:`.queue`, plumbing in
:mod:`.db`), the one claim loop and the local worker processes that
run it (:mod:`.worker`).  It sits below both users —
:mod:`repro.sweep.engine` (a temporary queue per pooled sweep) and
:mod:`repro.service` (the durable directory) — and imports neither.
"""

from .db import SchemaMismatch
from .queue import ABANDONED, Claim, Event, JobQueue, JobStatus, make_owner
from .worker import FAULT_EXIT_CODE, PROTOCOL_STEPS, LocalWorkers, work
