"""Tuple-space coordination for replicated-worker computing.

The package has three layers: a transactional tuple space served over TCP
(space, transactions, wire, server, client), a master/worker protocol that
schedules partitioned cases through it (entries, cuts, master, worker), and
the agents that do the actual computing.
"""

from .entries import (
    ConfigurationEntry,
    ResultEntry,
    RowEntry,
    StopEntry,
    TaskEntry,
    Template,
)
from .errors import SpacefarmError
from .client import Session
from .server import SpaceServer

__version__ = "0.1.0"

__all__ = [
    "ConfigurationEntry",
    "ResultEntry",
    "RowEntry",
    "Session",
    "SpaceServer",
    "SpacefarmError",
    "StopEntry",
    "TaskEntry",
    "Template",
    "__version__",
]
