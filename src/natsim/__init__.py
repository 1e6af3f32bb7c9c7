"""natsim: a deterministic simulator for grading NAT devices against the
path-MTU identification side channel and off-path TCP reset DoS sweeps."""

__version__ = "0.1.0"

from .wire import (  # noqa: F401
    EchoReply,
    EchoRequest,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpFlag,
    TcpSegment,
    encode,
    fragment,
    reassemble,
)
from .fabric import LinkSpec, MiddleboxFilter, Simulator  # noqa: F401
from .endpoint import Host, PathMtuCache, StackProfile  # noqa: F401
from .natbox import NatBox, NatPolicy  # noqa: F401
from .probe import ProbeConfig, Verdict, VerdictKind, VerdictReason, run_identification  # noqa: F401
from .strike import AttackPlan, AttackReport, run_dos_attack  # noqa: F401
from .scenario import Scenario, load_scenario, default_suite  # noqa: F401
