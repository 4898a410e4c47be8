"""Executable security lab for the consumer remote SIM provisioning protocol.

Models the profile ordering and download flows between operator, download
server, user/LPA and eUICC over an adversary-controlled network, replays
partial-compromise attack scenarios, and checks authentication and secrecy
goals against execution traces.
"""

from .fixture import expected_matrix
from .goals import check_all, check_forward_secrecy, goal_catalog
from .scenarios import ScenarioConfig, build_world, parse_config
from .terms import Knowledge

__all__ = [
    "ScenarioConfig", "build_world", "parse_config", "expected_matrix",
    "goal_catalog", "check_all", "check_forward_secrecy",
    "Knowledge",
]
