"""migratenet: a deterministic cluster simulator for studying direct versus
home-relay communication between migrated processes, gossip-based location
dissemination, and migration-driven load balancing."""

from importlib import import_module

from .cluster import ClusterState, GPid, MigrationEvent, NodeId, ProcessRecord, Topology
from .errors import (AddressInUseError, BadNodeError, BadSizeError, BadStateError,
                     ConnRefusedError, InvalidScenarioError,
                     MessageTooLargeError, NoConvergenceError, NoSuchProcessError,
                     SimulatorError, TimeTravelError, WouldBlockError)
from .gossip import Bulletin, GossipConfig, RoundReport, gossip_round, make_digest, merge
from .simcore import EventQueue, LatencyModel, Metrics, TransportKind, load_model
from .transport import DeliveryReport, FrameKind, Router, TransportConfig

__version__ = "0.1.0"

# modules no scenario run needs, loaded on first use, and the names they export
_LAZY = {"balancer": ("balance_step", "job_makespan"),
         "socket_api": ("SocketHandle", "SocketStack", "SocketState")}


def __getattr__(name: str):
    """A module of `_LAZY` or one of its names, loaded on first use (PEP 562)."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
