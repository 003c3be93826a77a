"""migratenet: a deterministic cluster simulator for studying direct versus
home-relay communication between migrated processes, gossip-based location
dissemination, and migration-driven load balancing."""

from .balancer import balance_step, job_makespan
from .cluster import ClusterState, GPid, MigrationEvent, NodeId, ProcessRecord, Topology
from .errors import (AddressInUseError, BadNodeError, BadSizeError, BadStateError,
                     ConnRefusedError, InvalidScenarioError,
                     MessageTooLargeError, NoConvergenceError, NoSuchProcessError,
                     SimulatorError, TimeTravelError, WouldBlockError)
from .gossip import Bulletin, GossipConfig, RoundReport, gossip_round, make_digest, merge
from .simcore import EventQueue, LatencyModel, Metrics, TransportKind, load_model
from .socket_api import SocketHandle, SocketStack, SocketState
from .transport import DeliveryReport, FrameKind, Router, TransportConfig

__version__ = "0.1.0"
