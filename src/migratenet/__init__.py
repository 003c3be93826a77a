"""migratenet: a deterministic cluster simulator for studying direct versus
home-relay communication between migrated processes, gossip-based location
dissemination, and migration-driven load balancing."""

from .balancer import BalancePolicy, JobSpec, balance_step, job_makespan
from .cluster import (ClusterState, GPid, MigrationEvent, NodeId, ProcessRecord,
                      Topology, collapse_path)
from .errors import (AddressInUseError, BadNodeError, BadStateError,
                     ConnRefusedError, InvalidScenarioError,
                     MessageTooLargeError, NoConvergenceError, NoSuchProcessError,
                     SimulatorError, TimeTravelError, WouldBlockError)
from .gossip import (Bulletin, GossipConfig, GossipDigest, LoadEntry,
                     LocationEntry, RoundReport, gossip_round, make_digest, merge)
from .simcore import EventQueue, LatencyModel, Metrics, TransportKind, latency_of, load_model
from .socket_api import SocketHandle, SocketStack, SocketState
from .transport import DeliveryReport, FrameKind, Router, TransportConfig

__version__ = "0.1.0"
