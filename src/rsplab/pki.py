"""
Certificate issuance and verification.

One GSMA-style certificate issuer (CI) roots all trust.  A download server
holds three certificates sharing one subject and one OID: a TLS certificate
for its domain name, an authentication certificate, and a profile-binding
certificate; the latter two differ only in policy.  An eUICC holds a single
certificate issued directly by the CI.

Certificates are plain terms (a CI signature over the field tuple), so they
travel in messages and the adversary can read, store and replay them like
any other term.

Issued identities are immutable, so one ``Pki`` is issued per process and
shared by every world; a compromise (see ``scenarios``) writes only to the
world that suffers it.  Sharing changes no output: terms are interned, and
each world's fresh source continues from the id after the PKI's keys.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional

from .terms import (Atom, FreshSource, NULL, PrivKey, PubKey, Sign, Term,
                    SealError, pairs, pub, seal, unpairs, unseal)

POLICY_TLS = Atom("policy-tls")
POLICY_SERVER_AUTH = Atom("policy-server-auth")
POLICY_PROFILE_BINDING = Atom("policy-profile-binding")
POLICY_EUICC = Atom("policy-euicc")

_CERT_TAG = Atom("cert")


class CertError(ValueError):
    """Certificate did not verify or does not fit the context of use."""


@dataclass(frozen=True)
class Certificate:
    subject: Atom
    subject_key: PubKey
    oid: Term                 # server OID atom, or null for eUICC certs
    policy: Atom
    issuer_ski: Atom


def cert_body(subject: Atom, subject_key: PubKey, oid: Term,
              policy: Atom, issuer_ski: Atom) -> Term:
    return pairs([_CERT_TAG, subject, subject_key, oid, policy, issuer_ski])


def parse_certificate(term: Term) -> tuple[Certificate, Sign]:
    """Split a transported certificate term into fields + signature."""
    if not isinstance(term, Sign):
        raise CertError("certificate is not a signed term")
    try:
        tag, subject, key, oid, policy, ski = unpairs(term.body, 6)
    except SealError as exc:
        raise CertError(f"malformed certificate body: {exc}") from exc
    if tag != _CERT_TAG or not isinstance(subject, Atom) \
            or not isinstance(key, PubKey) or not isinstance(policy, Atom) \
            or not isinstance(ski, Atom):
        raise CertError("malformed certificate fields")
    return Certificate(subject, key, oid, policy, ski), term


@dataclass(frozen=True)
class CiRoot:
    """The single trust root of a world."""
    sk: PrivKey
    ski_label: InitVar[str] = "ski-ci"
    ski: Atom = field(init=False)

    def __post_init__(self, ski_label: str) -> None:
        object.__setattr__(self, "ski", Atom(ski_label))

    @property
    def pk(self) -> PubKey:
        return pub(self.sk)

    def issue(self, subject: Atom, subject_key: PubKey, oid: Term,
              policy: Atom) -> Term:
        return seal("sign", self.sk,
                    cert_body(subject, subject_key, oid, policy, self.ski))


@functools.cache
def verify_cert(cert_term: Term, ci: "CiRoot", policy: Atom) -> Certificate:
    """Deterministic, total check: CI signature, SKI and policy must match.
    Memoized (see the terms module): a failed check raises on every call,
    and a CiRoot is keyed by its key and SKI, all the check reads of it."""
    cert, signed = parse_certificate(cert_term)
    try:
        unseal("sign", ci.pk, signed)
    except SealError as exc:
        raise CertError(f"issuer signature invalid: {exc}") from exc
    if cert.issuer_ski != ci.ski:
        raise CertError("unknown issuer key identifier")
    if cert.policy != policy:
        raise CertError(
            f"certificate policy {cert.policy.label} unfit for context "
            f"{policy.label}")
    return cert


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServerIdentity:
    domain: Atom               # dialable name, subject of the TLS cert
    subject: Atom              # shared subject of the auth/binding certs
    oid: Atom
    sk_tls: PrivKey
    sk_sa: PrivKey
    sk_sp: PrivKey
    cert_st: Term
    cert_sa: Term
    cert_sp: Term


@dataclass(frozen=True)
class EuiccIdentity:
    eid: Atom
    sk_u: PrivKey
    cert_u: Term
    default_server: Optional[Atom] = None      # domain pre-provisioned on-chip


def new_ci(fresh) -> CiRoot:
    return CiRoot(fresh.privkey("sk-ci"))


def issue_server(ci: CiRoot, fresh, domain: str, oid: str,
                 subject: Optional[str] = None) -> ServerIdentity:
    dom = Atom(domain)
    subj = Atom(subject or domain.split(".")[0])
    oid_atom = Atom(oid)
    sk_tls = fresh.privkey(f"sk-tls-{domain}")
    sk_sa = fresh.privkey(f"sk-sa-{domain}")
    sk_sp = fresh.privkey(f"sk-sp-{domain}")
    return ServerIdentity(
        domain=dom, subject=subj, oid=oid_atom,
        sk_tls=sk_tls, sk_sa=sk_sa, sk_sp=sk_sp,
        cert_st=ci.issue(dom, pub(sk_tls), oid_atom, POLICY_TLS),
        cert_sa=ci.issue(subj, pub(sk_sa), oid_atom, POLICY_SERVER_AUTH),
        cert_sp=ci.issue(subj, pub(sk_sp), oid_atom, POLICY_PROFILE_BINDING),
    )


def issue_euicc(ci: CiRoot, fresh, eid: str) -> EuiccIdentity:
    eid_atom = Atom(eid)
    sk_u = fresh.privkey(f"sk-u-{eid}")
    return EuiccIdentity(
        eid=eid_atom, sk_u=sk_u,
        cert_u=ci.issue(eid_atom, pub(sk_u), NULL, POLICY_EUICC),
    )


@dataclass(frozen=True)
class Pki:
    """A CI and the identities it certified, in issue order."""
    ci: CiRoot
    servers: tuple             # ServerIdentity
    euiccs: tuple              # EuiccIdentity
    fresh: FreshSource         # spent on the keys above; worlds fork it


def issue_pki(servers, eids, default_server: str) -> Pki:
    """Issue the CI, then each (domain, oid, subject) server identity, then
    each eUICC identity with `default_server` provisioned on-chip."""
    fresh = FreshSource()
    ci = new_ci(fresh)
    return Pki(
        ci,
        tuple(issue_server(ci, fresh, *spec) for spec in servers),
        tuple(replace(issue_euicc(ci, fresh, eid),
                      default_server=Atom(default_server)) for eid in eids),
        fresh)

