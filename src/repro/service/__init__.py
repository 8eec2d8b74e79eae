"""Persistent sweep service: durable job queue, artifact catalog, and
claim-loop workers over one service directory.

See :mod:`repro.service.service` for the execution model and
``docs/SERVICE.md`` for the protocol walkthrough.
"""

from ..jobqueue import Event, JobQueue, JobStatus, SchemaMismatch, make_owner
from .catalog import Catalog, canonical_sha, point_key, source_sha
from .service import JobFailed, JobHandle, SweepService, default_service_dir
from .worker import shard_jobs

__all__ = [
    "Catalog",
    "Event",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "SchemaMismatch",
    "SweepService",
    "canonical_sha",
    "default_service_dir",
    "make_owner",
    "point_key",
    "shard_jobs",
    "source_sha",
]
