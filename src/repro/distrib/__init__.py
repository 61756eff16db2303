"""The distributed system (paper §§4-5, App. A-B).

The four control programs (initialization, decomposition, job-submit,
monitoring), the parallel worker program with SIGUSR2-triggered
migration, dump files, the flock-based synchronization algorithm, the
virtual host registry, and a one-call orchestrator.
"""

from .decompose import decompose_problem
from .diagnostics import (
    DEFAULT_VMAX,
    DiagnosticsFailure,
    DiagnosticsLog,
    DiagRecord,
    GlobalDiagnostics,
    fold_partials,
    local_partials,
    serial_diagnostics,
)
from .dumpfile import dump_path, load_dump, load_dumps, save_dump
from .hostdb import (
    IDLE_USER_MINUTES,
    MIGRATE_LOAD_LIMIT,
    SUBMIT_LOAD_LIMIT,
    HostDB,
    HostInfo,
    paper_cluster,
)
from .initprog import initial_fields
from .monitor import Monitor, MonitorError
from .orchestrator import DistributedRun, RunSettings
from .spec import ProblemSpec
from .submit import spawn_worker, submit_all
from .sync import SaveTurns, SyncFiles, SyncFileWarning
from .worker import (
    EXIT_DIAGNOSTIC,
    EXIT_DONE,
    EXIT_MIGRATED,
    EXIT_REBALANCED,
    Worker,
    WorkerConfig,
)

__all__ = [
    "ProblemSpec",
    "initial_fields",
    "decompose_problem",
    "dump_path",
    "save_dump",
    "load_dump",
    "load_dumps",
    "HostDB",
    "HostInfo",
    "paper_cluster",
    "SUBMIT_LOAD_LIMIT",
    "MIGRATE_LOAD_LIMIT",
    "IDLE_USER_MINUTES",
    "Monitor",
    "MonitorError",
    "DistributedRun",
    "RunSettings",
    "spawn_worker",
    "submit_all",
    "SyncFiles",
    "SaveTurns",
    "SyncFileWarning",
    "Worker",
    "WorkerConfig",
    "EXIT_DONE",
    "EXIT_MIGRATED",
    "EXIT_DIAGNOSTIC",
    "EXIT_REBALANCED",
    "DiagRecord",
    "DiagnosticsLog",
    "DiagnosticsFailure",
    "GlobalDiagnostics",
    "DEFAULT_VMAX",
    "local_partials",
    "fold_partials",
    "serial_diagnostics",
]
