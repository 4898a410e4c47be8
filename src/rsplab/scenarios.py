"""
Scenario configurations and world building.

A configuration is approach x scenario x transport-tunnel flag, plus the
hardening-recommendation set and two behavioral switches (strict LPA,
careless user).  Scenario numbering:

  1 honest baseline          7 second, compromised MNO exists
  2 the download server      8 ordering fraud: adversary passes as the user
  3 the user's eUICC key     9 ordering fraud: order names the victim's eUICC
  4 the user's LPA          10 activation code leaks out of band
  5 a second, compromised   11 activation code spoofed on delivery
    server exists
  6 the adversary's own
    eUICC key

Scenario 9 exists only in the default-server approach, 10 and 11 only in
the activation-code approach.  Recommendations: R1 (code carries the server
oid), R2 (LPA stores the default server's oid), R3 (orders register the
eUICC id), R7 (oid inside signed handshake messages), R8 (server compares
the dialed name), R9 (eUICC id inside the signed profile binding).  R10 is
shorthand for the full hardening set of the given approach.

Every world is rooted in the same PKI: one CI, two server identities and
three eUICC identities, issued once per process (see ``pki``).  A world
builds only what differs between scenarios: its roles, its trace and
adversary, the LPA's stored oid under R2, and what the adversary controls:
the scenario's row of ``COMPROMISES``, granted one pair at a time by
``compromise``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import Event
from .pki import issue_pki
from .roles import EuiccDevice, MnoProcess, ServerProcess
from .terms import Atom
from .world import ADVERSARY_USER, UserAgent, World

APPROACHES = ("ds", "ac")
DS_SCENARIOS = tuple(range(1, 10))
AC_SCENARIOS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 11)
ALL_RECS = ("R1", "R2", "R3", "R7", "R8", "R9")

SERVER1 = "smdp1.example"
SERVER2 = "smdp2.example"
VICTIM = "user1"
BYSTANDER = "user2"
VICTIM_EID = "eid-1"
BYSTANDER_EID = "eid-2"
ADV_EID = "eid-adv"
MNO1 = "mno1"
MNO2 = "mno2"

# eUICC owners, in the order of the PKI's eUICC identities
_OWNERS = ((VICTIM_EID, VICTIM), (BYSTANDER_EID, BYSTANDER),
           (ADV_EID, ADVERSARY_USER))
PKI = issue_pki(((SERVER1, "oid-1", "sm-dp-1"), (SERVER2, "oid-2", "sm-dp-2")),
                [eid for eid, _ in _OWNERS], default_server=SERVER1)


class ConfigError(ValueError):
    pass


def expand_recs(recs, approach: str) -> frozenset:
    out = set()
    for r in recs:
        r = r.strip().upper()
        if not r:
            continue
        if r == "R10":
            out |= {"R2", "R7", "R9"} if approach == "ds" else {"R1", "R3", "R7", "R9"}
        elif r in ALL_RECS:
            out.add(r)
        else:
            raise ConfigError(f"unknown recommendation {r!r}")
    return frozenset(out)


@dataclass(frozen=True)
class ScenarioConfig:
    approach: str                 # "ds" | "ac"
    scenario: int
    tls: bool
    recs: frozenset = frozenset()
    lpa_strict: bool = True
    careless_user: bool = False

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise ConfigError(f"approach must be ds or ac, got {self.approach!r}")
        valid = DS_SCENARIOS if self.approach == "ds" else AC_SCENARIOS
        if self.scenario not in valid:
            raise ConfigError(
                f"scenario {self.scenario} is not defined for approach {self.approach}")
        for r in self.recs:
            if r in ("R2",) and self.approach != "ds":
                raise ConfigError("R2 applies to the default-server approach only")
            if r in ("R1", "R3") and self.approach != "ac":
                raise ConfigError(f"{r} applies to the activation-code approach only")

    def describe(self) -> str:
        recs = ",".join(sorted(self.recs)) or "-"
        return (f"approach={self.approach} scenario={self.scenario} "
                f"tls={'on' if self.tls else 'off'} recs={recs}")


def parse_config(text: str) -> ScenarioConfig:
    """key=value per line; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, val = (x.strip() for x in line.split("=", 1))
        values[key] = val
    approach = values.get("approach", "ds").lower()
    approach = {"default_server": "ds", "default-server": "ds",
                "activation_code": "ac", "activation-code": "ac"}.get(approach, approach)
    bools = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}

    def as_bool(key: str, default: bool) -> bool:
        if key not in values:
            return default
        try:
            return bools[values[key].lower()]
        except KeyError:
            raise ConfigError(f"{key} must be a boolean, got {values[key]!r}")

    try:
        scenario = int(values.get("scenario", "1"))
    except ValueError:
        raise ConfigError(f"scenario must be an integer, got {values['scenario']!r}")
    recs = expand_recs(values.get("recs", "").split(","), approach)
    return ScenarioConfig(
        approach=approach, scenario=scenario,
        tls=as_bool("tls", True), recs=recs,
        lpa_strict=as_bool("lpa_strict", True),
        careless_user=as_bool("careless_user", False))


# ---------------------------------------------------------------------------
# World building
# ---------------------------------------------------------------------------

def build_world(cfg: ScenarioConfig) -> World:
    """Two servers, two operators, a victim, an honest bystander, and the
    adversary with a device of its own; compromises applied per scenario."""
    world = World(cfg, PKI)
    for ident in PKI.servers:
        world.servers[ident.domain.label] = ServerProcess(world, ident)
        world.emit(Event("AUTHORIZE", (ident.subject,)))

    world.mnos[MNO1] = MnoProcess(MNO1, Atom(MNO1), SERVER1)
    world.mnos[MNO2] = MnoProcess(MNO2, Atom(MNO2), SERVER1)

    lpa_oid = PKI.servers[0].oid if "R2" in cfg.recs else None
    for ident, (eid, owner) in zip(PKI.euiccs, _OWNERS):
        world.euiccs[eid] = EuiccDevice(world, ident)
        world.users[owner] = UserAgent(Atom(owner), eid, MNO1, lpa_oid)
        world.emit(Event("OWNER", (Atom(owner), ident.eid)))

    for kind, name in COMPROMISES[cfg.scenario]:
        compromise(world, kind, name)
    return world


# what each scenario grants the adversary, as (kind, name) pairs
COMPROMISES = {
    1: (),
    # the intended server falls, and with it any other server identity the
    # same operator of compromised infrastructure can present
    2: (("server", SERVER1), ("server", SERVER2)),
    3: (("euicc", VICTIM_EID),),
    4: (("lpa", VICTIM),),
    5: (("server", SERVER2),),
    6: (("euicc", ADV_EID),),
    7: (("mno", MNO2),),
    8: (("channel", "impersonate-user"),),
    9: (("channel", "order-for-euicc"),),
    10: (("channel", "read-code"),),
    11: (("channel", "spoof-code"),),
}


def compromise(world: World, kind: str, name: str) -> None:
    """Grant the adversary `kind` control of `name` and mark it in the
    trace; goal exclusions are computed from the markers alone.  A "server"
    or "euicc" leaks that identity's private keys (certificates are public
    anyway), and a server its order channel too; an "mno" opens that
    operator's order channel; a "channel" is one mode of fraud on the
    user-to-operator channel; an "lpa" subverts that user's LPA."""
    if kind == "server":
        ident = world.servers[name].identity
        world.adversary.learn(ident.cert_st, ident.cert_sa, ident.cert_sp,
                              ident.sk_tls, ident.sk_sa, ident.sk_sp)
        marker = Event("CompromiseServer", (ident.subject,))
    elif kind == "euicc":
        ident = world.euiccs[name].identity
        world.adversary.learn(ident.sk_u, ident.cert_u)
        marker = Event("CompromiseCert", (ident.eid,))
    else:
        tag = "CompromiseMno" if kind == "mno" else "ChannelFraud"
        marker = Event(tag, (Atom(kind if kind == "lpa" else name),))
    world.grants.add((kind, name))
    world.emit(marker)
