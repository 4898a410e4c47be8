import pytest

from rsplab.pki import (POLICY_EUICC, POLICY_PROFILE_BINDING,
                        POLICY_SERVER_AUTH, POLICY_TLS, CertError,
                        issue_euicc, issue_server, new_ci, parse_certificate,
                        verify_cert)
from rsplab.scenarios import (ADV_EID, SERVER1, VICTIM_EID, ScenarioConfig,
                              build_world)
from rsplab.terms import Atom, FreshSource, Sign, seal


@pytest.fixture
def ci():
    return new_ci(FreshSource())


class TestIssuance:
    def test_server_certs_share_subject_and_oid(self, ci):
        srv = issue_server(ci, FreshSource(), "dl.example", "oid-9")
        sa, _ = parse_certificate(srv.cert_sa)
        sp, _ = parse_certificate(srv.cert_sp)
        assert sa.subject == sp.subject
        assert sa.oid == sp.oid == Atom("oid-9")
        assert sa.policy != sp.policy

    def test_tls_cert_subject_is_the_domain(self, ci):
        srv = issue_server(ci, FreshSource(), "dl.example", "oid-9")
        st, _ = parse_certificate(srv.cert_st)
        assert st.subject == Atom("dl.example")

    def test_two_servers_get_distinct_keys_and_oids(self, ci):
        fresh = FreshSource()
        a = issue_server(ci, fresh, "a.example", "oid-a")
        b = issue_server(ci, fresh, "b.example", "oid-b")
        assert a.oid != b.oid
        assert {a.sk_tls, a.sk_sa, a.sk_sp}.isdisjoint({b.sk_tls, b.sk_sa, b.sk_sp})

    def test_euicc_cert_verifies_with_euicc_policy(self, ci):
        dev = issue_euicc(ci, FreshSource(), "eid-77")
        cert = verify_cert(dev.cert_u, ci, POLICY_EUICC)
        assert cert.subject == Atom("eid-77")


class TestVerification:
    def test_policy_mismatch_rejected(self, ci):
        dev = issue_euicc(ci, FreshSource(), "eid-77")
        with pytest.raises(CertError):
            verify_cert(dev.cert_u, ci, POLICY_SERVER_AUTH)

    def test_foreign_issuer_rejected(self):
        from rsplab.pki import CiRoot
        fresh = FreshSource()
        ci = CiRoot(fresh.privkey("sk-ci"), "ski-ci")
        rogue = CiRoot(fresh.privkey("sk-rogue"), "ski-rogue")
        dev = issue_euicc(rogue, fresh, "eid-66")
        with pytest.raises(CertError):
            verify_cert(dev.cert_u, ci, POLICY_EUICC)

    def test_resigned_body_with_wrong_key_rejected(self, ci):
        fresh = FreshSource()
        dev = issue_euicc(ci, fresh, "eid-55")
        sk_other = fresh.privkey("other")
        forged = seal("sign", sk_other, dev.cert_u.body)
        with pytest.raises(CertError):
            verify_cert(forged, ci, POLICY_EUICC)

    def test_non_signature_rejected(self, ci):
        with pytest.raises(CertError):
            verify_cert(Atom("not-a-cert"), ci, POLICY_TLS)

    def test_a_failed_check_raises_on_every_call(self, ci):
        from rsplab.pki import CiRoot
        fresh = FreshSource()
        dev = issue_euicc(ci, fresh, "eid-44")
        # a foreign root under the same key identifier, and a success under
        # the real one first, so a memo that keyed on less than the term,
        # the root key and the policy would hand that success back
        rogue = CiRoot(fresh.privkey("sk-rogue"))
        assert rogue.ski == ci.ski
        assert verify_cert(dev.cert_u, ci, POLICY_EUICC).subject == Atom("eid-44")
        for _ in range(2):
            with pytest.raises(CertError, match="unfit for context"):
                verify_cert(dev.cert_u, ci, POLICY_SERVER_AUTH)
            with pytest.raises(CertError, match="issuer signature invalid"):
                verify_cert(dev.cert_u, rogue, POLICY_EUICC)
            with pytest.raises(CertError, match="malformed certificate body"):
                verify_cert(seal("sign", ci.sk, Atom("short")), ci, POLICY_EUICC)


class TestCompromise:
    def test_server_compromise_leaks_all_three_keys(self):
        w = build_world(ScenarioConfig("ds", 2, True))
        ident = w.servers[SERVER1].identity
        for key in (ident.sk_tls, ident.sk_sa, ident.sk_sp):
            assert w.adversary.knows(key)
        assert len(w.trace.events_tagged("CompromiseServer")) == 2

    def test_euicc_compromise_emits_marker_and_leaks_key(self):
        w = build_world(ScenarioConfig("ds", 3, True))
        assert w.adversary.knows(w.euiccs[VICTIM_EID].identity.sk_u)
        i, = w.trace.events_tagged("CompromiseCert")
        assert w.trace.entries[i].U == w.euiccs[VICTIM_EID].identity.eid

    def test_second_euicc_scenario_leaves_victim_intact(self):
        w = build_world(ScenarioConfig("ac", 6, True))
        assert w.adversary.knows(w.euiccs[ADV_EID].identity.sk_u)
        assert not w.adversary.knows(w.euiccs[VICTIM_EID].identity.sk_u)

    @pytest.mark.parametrize("approach", ["ds", "ac"])
    @pytest.mark.parametrize("tls", [True, False])
    def test_honest_world_leaks_nothing_private(self, approach, tls):
        from rsplab.attacks import honest_script
        w = build_world(ScenarioConfig(approach, 1, tls))
        honest_script(w)
        for key in w.long_term_private_keys():
            assert not w.adversary.knows(key)

    def test_authorize_precedes_any_handshake_event(self):
        w = build_world(ScenarioConfig("ds", 1, True))
        from rsplab.attacks import honest_script
        honest_script(w)
        first_auth = min(w.trace.events_tagged("AUTHORIZE"))
        first_handshake = min(i for tag in ("S0", "U0")
                              for i in w.trace.events_tagged(tag))
        assert first_auth < first_handshake
