"""Enrollment service: endpoint behavior over real HTTP, request framing,
keep-alive connections, pool rotation, retirement handling, and config
parsing."""

import contextlib
import email.utils
import gc
import http.client
import io
import ipaddress
import logging
import re
import select
import socket
import ssl
import sys
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, rsa
from cryptography.x509.oid import ExtendedKeyUsageOID, ExtensionOID, NameOID
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otcpki.ca import CaIdentity, CaRole, create_subordinate, init_hierarchy
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    CertificationChain,
    DistinguishedName,
    OtcExtension,
    RevocationList,
    SigningRequest,
    build_csr,
    decode,
)
from otcpki.crypto import SUITES, EphemeralKeyPair, digest_document
from otcpki.errors import (
    ConfigError,
    EnrollmentRejectedError,
    EnrollmentUnreachableError,
    OtcError,
)
from otcpki import cli, framing
from otcpki import service as service_module
from otcpki import verifier
from otcpki.service import EnrollmentService, ServiceConfig, load_pool
from otcpki.signer import HttpEnrollmentClient, LocalEnrollmentClient, one_shot_sign
from otcpki.verifier import RecencyPolicy, verify_bundle

from conftest import (
    OFF_MENU_KEYS,
    PADDED_OID_PAYLOAD,
    bound_csr,
    clear_memos,
    count_calls,
    csr_with_extension,
    fresh_policy,
    no_cn_issuer,
    overwritten,
    set_clock_past,
)
from dersurgery import (
    forge_duplicate_extension_csr,
    parse_tree,
    serialize_tree,
    with_empty_rdn,
)
from forge import forge_blank_crl, forge_leaf, with_extension

POLICY = RecencyPolicy(max_age=timedelta(minutes=10))


@pytest.fixture(scope="module")
def stack():
    """A running service over a 2-issuer pool, torn down after the module."""
    hierarchy = init_hierarchy("Service Root", fresh_policy(),
                               issuers_per_intermediate=2)
    service = EnrollmentService(hierarchy.issuers[0])
    url = service.start()
    yield hierarchy, service, url
    service.stop()


@pytest.fixture(scope="module")
def single_issuer_url():
    """A running service over one issuer, so every leaf shares one CRL."""
    hierarchy = init_hierarchy("Single Issuer Root", fresh_policy())
    service = EnrollmentService([hierarchy.first_issuer()])
    yield service.start()
    service.stop()


@pytest.fixture
def short_timeout_stack(monkeypatch):
    """A one-issuer service whose connections time out after 0.2 s."""
    monkeypatch.setattr(service_module, "HANDLER_TIMEOUT_S", 0.2)
    hierarchy = init_hierarchy("Short Timeout Root", fresh_policy())
    service = EnrollmentService([hierarchy.first_issuer()])
    url = service.start()
    yield hierarchy, url
    service.stop()


@pytest.fixture
def counted(monkeypatch):
    """Count HttpEnrollmentClient connects and requests sent; keep each
    connected socket."""
    counts = {"connect": 0, "request": 0}
    sockets = []
    connect = HttpEnrollmentClient._connect
    exchange = HttpEnrollmentClient._exchange

    def counting_connect(self):
        counts["connect"] += 1
        sock = connect(self)
        sockets.append(sock)
        return sock

    def counting_exchange(self, *args, **kwargs):
        counts["request"] += 1
        return exchange(self, *args, **kwargs)

    monkeypatch.setattr(HttpEnrollmentClient, "_connect", counting_connect)
    monkeypatch.setattr(HttpEnrollmentClient, "_exchange", counting_exchange)
    return counts, sockets


def raw_exchange(url, data):
    """Send raw bytes and read until the service closes the connection; a
    service that never closes it fails the test after 5 s."""
    address = urllib.parse.urlsplit(url)
    with socket.create_connection((address.hostname, address.port), timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def fetch(url, path, body=None):
    """The status and body of a 2xx reply. Any other reply raises
    ``HTTPError`` holding its body, with the reply's connection closed."""
    request = urllib.request.Request(url + path, data=body,
                                     method="POST" if body else "GET")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        raise urllib.error.HTTPError(exc.url, exc.code, exc.msg, exc.headers,
                                     io.BytesIO(body)) from None


def make_csr(name="Web Client", payload=b"remote doc"):
    keypair = EphemeralKeyPair.generate()
    csr = build_csr(keypair, DistinguishedName.from_common_name(name),
                    digest_document(payload))
    return keypair, csr


class TestEnrollEndpoint:
    def test_returns_leaf_first_chain(self, stack):
        hierarchy, _, url = stack
        keypair, csr = make_csr()
        status, body = fetch(url, "/enroll", csr.to_pem())
        keypair.destroy()
        assert status == 200
        chain = CertificationChain.from_pem(body)
        assert len(chain) == 4
        assert chain.leaf.binding == csr.binding
        assert chain.root == hierarchy.root.certificate
        assert chain.links_verify()

    def test_response_is_leaf_then_issuer_chain_pem(self, stack):
        """After the leaf come the pool member's chain and its blank CRL,
        each encoded once at startup; two enrollments cover both members,
        and their CRLs are /crl's blocks. A chain read from the reply is the
        chain alone: PEM readers skip the CRL block."""
        hierarchy, service, _ = stack
        pool = hierarchy.issuers[0]
        crls = {}
        for name in ("First Member", "Second Member"):
            keypair, csr = make_csr(name)
            status, body = service.handle_enroll(csr.to_pem())
            keypair.destroy()
            assert status == 200
            chain = CertificationChain.from_pem(body)
            issuer = next(ca for ca in pool if ca.certificate == chain.issuing_ca)
            chain_pem = chain.leaf.to_pem() + issuer.chain_to_root().to_pem()
            assert body.startswith(chain_pem)
            assert chain == CertificationChain.from_pem(chain_pem)
            assert len(x509.load_pem_x509_certificates(body)) == 4
            crl = crls[pool.index(issuer)] = body[len(chain_pem):]
            assert x509.load_pem_x509_crl(crl).issuer == issuer.certificate.raw.subject
        assert service.handle_crl() == (200, crls[0] + crls[1])

    def test_garbage_is_400(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", b"not pem at all")
        assert excinfo.value.code == 400
        assert excinfo.value.read().startswith(b"malformed-encoding:")

    def test_der_request_is_400(self, stack):
        """The body is read as PEM only; a DER request used to be issued a
        certificate."""
        _, _, url = stack
        keypair, csr = make_csr("DER Request")
        keypair.destroy()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", csr.to_der())
        assert excinfo.value.code == 400
        assert excinfo.value.read().startswith(b"malformed-encoding:")

    def test_wrong_kind_is_400(self, stack):
        hierarchy, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", hierarchy.root.certificate.to_pem())
        assert excinfo.value.code == 400
        assert excinfo.value.read().startswith(b"malformed-encoding: cannot parse CSR: ")

    def test_missing_binding_is_422(self, stack):
        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization

        _, _, url = stack
        keypair = EphemeralKeyPair.generate()
        bare = (
            x509.CertificateSigningRequestBuilder()
            .subject_name(DistinguishedName.from_common_name("Bare").name)
            .sign(keypair._signing_key(), hashes.SHA256())
        )
        keypair.destroy()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", bare.public_bytes(serialization.Encoding.PEM))
        assert excinfo.value.code == 422
        assert excinfo.value.read().startswith(b"missing-otc-extension:")

    @pytest.mark.parametrize("oid,value", [
        (OTC_EXTENSION_OID, PADDED_OID_PAYLOAD),
        (x509.oid.ExtensionOID.BASIC_CONSTRAINTS, b"\xff\x00"),  # not DER
    ], ids=["padded-oid-binding", "bad-basic-constraints"])
    def test_undecodable_extension_is_422(self, stack, oid, value):
        _, service, _ = stack
        keypair = EphemeralKeyPair.generate()
        csr = csr_with_extension(keypair, x509.UnrecognizedExtension(oid, value))
        keypair.destroy()
        status, body = service.handle_enroll(csr.to_pem())
        assert status == 422
        assert body.startswith(b"malformed-encoding:")

    @pytest.mark.parametrize("kind", sorted(OFF_MENU_KEYS))
    def test_key_off_the_menu_is_422(self, stack, off_menu_keys, kind):
        """The CA certifies only keys of a suite on the menu. Each of these
        requests proves possession of its key, and each used to get 200."""
        hierarchy, service, _ = stack
        csr = bound_csr(off_menu_keys[kind], digest_document(b"off the menu"))
        status, body = service.handle_enroll(csr.to_pem())
        assert status == 422 and body.startswith(b"unsupported-suite: "), body
        with pytest.raises(EnrollmentRejectedError) as excinfo:
            LocalEnrollmentClient(hierarchy.first_issuer()).enroll(csr)
        assert excinfo.value.ca_code == "unsupported-suite"

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "one-byte-over"])
    def test_body_cap(self, stack, monkeypatch, over):
        """A body over MAX_ENROLL_BODY is refused before it is read, however
        valid the CSR. Up to 1 MiB was read and issued: a 454 KB CSR of 5000
        RDNs got a 456 KB leaf."""
        _, _, url = stack
        issued = []
        issue = CaIdentity.issue_otc
        monkeypatch.setattr(CaIdentity, "issue_otc",
                            lambda ca, csr: issued.append(csr) or issue(ca, csr))
        keypair, csr = make_csr("Padded Request")
        keypair.destroy()
        body = csr.to_pem().ljust(service_module.MAX_ENROLL_BODY + over, b"\n")
        reply = raw_exchange(url, b"POST /enroll HTTP/1.1\r\nContent-Length: %d\r\n"
                                  b"Connection: close\r\n\r\n%s" % (len(body), body))
        assert reply.startswith(b"HTTP/1.1 400 " if over else b"HTTP/1.1 200 ")
        assert len(issued) == (0 if over else 1)

    def test_largest_honest_request_is_served(self, stack):
        """rsa-3072 with 64-character CN, O and OU: the largest honest CSR
        measured, far below MAX_ENROLL_BODY."""
        _, _, url = stack
        keypair = EphemeralKeyPair.generate(SUITES["rsa-3072"])
        name = DistinguishedName.from_string(f"CN={'c' * 64},O={'o' * 64},OU={'u' * 64}")
        csr = build_csr(keypair, name, digest_document(b"largest"))
        keypair.destroy()
        assert len(csr.to_pem()) * 32 < service_module.MAX_ENROLL_BODY
        status, _ = fetch(url, "/enroll", csr.to_pem())
        assert status == 200

    def test_unknown_path_is_404(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/nope")
        assert excinfo.value.code == 404


class TestRequestFraming:
    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"+12", b"1_0", b"9" * 5000],
                             ids=["abc", "-1", "+12", "1_0", "5000-digits"])
    def test_invalid_content_length_is_400(self, stack, capfd, declared):
        """5000 digits used to reach int(), which refuses more than 4300
        with a ValueError: a traceback and no reply."""
        _, _, url = stack
        reply = raw_exchange(url, b"POST /enroll HTTP/1.1\r\nHost: x\r\n"
                                  b"Content-Length: " + declared + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b"\r\n\r\nmalformed-encoding: missing, invalid or"
                              b" oversized Content-Length")
        assert "Traceback" not in capfd.readouterr().err

    def test_unknown_post_path_closes_with_body_unread(self, stack):
        _, _, url = stack
        reply = raw_exchange(url, b"POST /nope HTTP/1.1\r\nContent-Length: 14\r\n\r\n"
                                  b"GET / HTTP/1.1")
        assert reply.startswith(b"HTTP/1.1 404 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_get_body_is_400_not_a_second_request(self, stack):
        _, _, url = stack
        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\nContent-Length: 19\r\n\r\n"
                                  b"GET /x HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize("request_head", [
        b"GET /crl HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"POST /enroll HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n"
        b"\r\n0\r\n\r\n",
    ], ids=["GET", "POST"])
    def test_transfer_encoding_is_400(self, stack, request_head):
        _, _, url = stack
        reply = raw_exchange(url, request_head)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_get_without_body_is_served(self, stack):
        _, _, url = stack
        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n\r\n"
                                  b"GET /chain HTTP/1.1\r\nContent-Length: 0\r\n"
                                  b"Connection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 200 ") == 2

    @pytest.mark.parametrize("request_line", [b"a b c d", b"GET /chain", b"\xff\xfe"],
                             ids=["four-words", "no-version", "not-ascii"])
    def test_request_line_without_version_gets_status_line(self, stack, request_line):
        _, _, url = stack
        reply = raw_exchange(url, request_line + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 ")
        assert b"\r\nContent-Length: " in reply

    @pytest.mark.parametrize("fields", [
        [b"no colon here"],
        [b"Host: x", b" folded: continuation"],
        [b"Host : x"],
        [b"X-Field-%d: y" % i for i in range(101)],
    ], ids=["no-colon", "obs-fold", "space-before-colon", "101-fields"])
    def test_malformed_header_block_is_400(self, stack, fields):
        """RFC 9112 §5: a header line is ``name: value``, obs-fold is refused,
        and at most 100 fields are read. http.server served the first three
        with 200, its email parser dropping those lines, and answered 101
        fields 431."""
        _, _, url = stack
        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n"
                                  + b"".join(f + b"\r\n" for f in fields) + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_hundred_fields_are_served(self, stack):
        """http.server counted the blank line that ends the header, so it
        answered 100 fields 431."""
        _, _, url = stack
        fields = b"".join(b"X-Field-%d: y\r\n" % i for i in range(99))
        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n" + fields
                                  + b"Connection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")

    @pytest.mark.parametrize("method", [b"HEAD", b"PUT"])
    def test_other_methods_are_501(self, stack, method):
        """As with http.server, which also sent 501 and closed."""
        _, _, url = stack
        reply = raw_exchange(url, method + b" /chain HTTP/1.1\r\n\r\n"
                                  b"GET /chain HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize("connection,replies", [(b"", 1), (b"close", 1),
                                                    (b"keep-alive", 2)])
    def test_http_1_0_closes_unless_kept_alive(self, stack, connection, replies):
        """As with http.server, except that the last reply now says
        ``Connection: close``."""
        _, _, url = stack
        fields = b"Connection: %s\r\n" % connection if connection else b""
        request = b"GET /chain HTTP/1.0\r\n" + fields + b"\r\n"
        reply = raw_exchange(url, request + b"GET /chain HTTP/1.1\r\n"
                                            b"Connection: close\r\n\r\n")
        assert reply.count(b"HTTP/1.1 200 ") == replies
        assert reply.count(b"\r\nConnection: close\r\n") == 1

    def test_expect_continue_gets_interim_100(self, stack):
        """As with http.server, which sent 100 Continue too, but held it in
        its write buffer until the final reply."""
        _, _, url = stack
        keypair, csr = make_csr()
        keypair.destroy()
        body = csr.to_pem()
        address = urllib.parse.urlsplit(url)
        with socket.create_connection((address.hostname, address.port), timeout=5) as sock:
            sock.sendall(b"POST /enroll HTTP/1.1\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body))
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert b"".join(chunks).startswith(b"HTTP/1.1 200 ")

    def test_reply_head(self, stack):
        """Status line, then Date as an IMF-fixdate (RFC 9110 §5.6.7),
        Content-Type and Content-Length. http.server also sent Server."""
        _, _, url = stack
        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\nConnection: close\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        status, date, content_type, length, connection = head.split(b"\r\n")
        assert status == b"HTTP/1.1 200 OK"
        sent = email.utils.parsedate_to_datetime(date.removeprefix(b"Date: ").decode())
        assert date == b"Date: " + email.utils.format_datetime(sent, usegmt=True).encode()
        assert abs(time.time() - sent.timestamp()) < 5
        assert content_type == b"Content-Type: application/x-pem-file"
        assert length == b"Content-Length: %d" % len(body)
        assert connection == b"Connection: close"

    def test_one_debug_record_per_request(self, stack, caplog):
        """Client address, method, target and status, formatted only when
        DEBUG is on. http.server formatted its log line for every request."""
        _, _, url = stack
        requests = (b"GET /chain HTTP/1.1\r\n\r\n"
                    b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
        with caplog.at_level(logging.INFO, logger="otcpki.service"):
            raw_exchange(url, requests)
        assert not [r for r in caplog.records if r.name == "otcpki.service"]
        with caplog.at_level(logging.DEBUG, logger="otcpki.service"):
            raw_exchange(url, requests)
        assert [r.getMessage() for r in caplog.records if r.name == "otcpki.service"] == [
            "127.0.0.1 GET /chain 200", "127.0.0.1 GET /nope 404"]

    def test_idle_connection_is_closed(self, short_timeout_stack):
        _, url = short_timeout_stack
        assert raw_exchange(url, b"") == b""

    def test_short_body_times_out_quietly(self, short_timeout_stack, capfd):
        _, url = short_timeout_stack
        reply = raw_exchange(url, b"POST /enroll HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                                  b"-----BEGIN")
        assert reply == b""
        assert "Traceback" not in capfd.readouterr().err


def closed_by_service(sock) -> bool:
    """True once the service has closed a connection that sent no full
    request: a FIN, or a reset if a byte was still unread."""
    try:
        return sock.recv(65536) == b""
    except ConnectionResetError:
        return True


def pipeline_until_unread(sock, request: bytes):
    """Send ``request`` over and over on ``sock`` without reading, until the
    service stops reading too: it is blocked sending replies that the
    client has not read."""
    sock.setblocking(False)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            sock.send(request * 16)
        except BlockingIOError:
            if not select.select([], [sock], [], 0.25)[1]:
                return
    raise AssertionError("the service kept reading for 10 s")


class TestConnectionLimits:
    def test_trickled_request_is_cut_off(self, monkeypatch):
        monkeypatch.setattr(service_module, "HANDLER_TIMEOUT_S", 0.5)
        hierarchy = init_hierarchy("Trickle Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        address = urllib.parse.urlsplit(service.start())
        header = b"X-Trickle: " + b"." * 29  # 40 bytes, 12 s at one per 0.3 s
        sent = 0
        try:
            with socket.create_connection((address.hostname, address.port),
                                          timeout=5) as sock:
                sock.sendall(b"GET /chain HTTP/1.1\r\n")
                for byte in header:
                    if select.select([sock], [], [], 0.3)[0]:
                        break
                    sock.sendall(bytes([byte]))
                    sent += 1
                assert closed_by_service(sock)
        finally:
            service.stop()
        # Every byte arrives within the 0.5 s timeout of the one before; only
        # a deadline on the whole request cuts it off (expected after ~2).
        assert sent <= len(header) // 2

    def test_connection_over_the_cap_gets_503(self, monkeypatch):
        """A connection whose request is being answered keeps its slot, so
        one more is answered 503 while it is."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 1)
        hierarchy = init_hierarchy("Capped Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        answering, release = threading.Event(), threading.Event()

        def held_enroll(body):
            answering.set()
            release.wait(10)
            return 200, b"held"

        monkeypatch.setattr(service, "handle_enroll", held_enroll)
        url = service.start()
        replies = []
        holder = threading.Thread(target=lambda: replies.append(raw_exchange(
            url, b"POST /enroll HTTP/1.1\r\nContent-Length: 1\r\nConnection: close\r\n\r\nx")))
        holder.start()
        try:
            assert answering.wait(5)
            reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 503 ")
            assert b"\r\nConnection: close\r\n" in reply
            assert reply.endswith(b"\r\n\r\nservice-busy: too many open connections")
            release.set()
            holder.join(10)
            assert replies[0].startswith(b"HTTP/1.1 200 ") and replies[0].endswith(b"held")
            # The held connection's handler ends after its reply and frees the slot.
            for _ in range(50):
                reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\nConnection: close\r\n\r\n")
                if not reply.startswith(b"HTTP/1.1 503 "):
                    break
                time.sleep(0.1)
            assert reply.startswith(b"HTTP/1.1 200 ")
        finally:
            release.set()
            service.stop()

    @pytest.mark.parametrize("sent", [b"", b"P"], ids=["silent", "one-byte"])
    def test_waiting_connections_give_way(self, sent):
        """With every slot held by a connection that has not sent a whole
        request, an honest enrollment closes the one that has waited longest
        and takes its slot. Such connections used to get every honest
        request answered 503 for up to HANDLER_TIMEOUT_S."""
        hierarchy = init_hierarchy("Crowded Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        url = service.start()
        address = urllib.parse.urlsplit(url)
        def handlers():
            return sum("process_request_thread" in thread.name
                       for thread in threading.enumerate())

        before = handlers()
        with contextlib.ExitStack() as held:
            try:
                crowd = [held.enter_context(socket.create_connection(
                    (address.hostname, address.port), timeout=5))
                    for _ in range(service_module.MAX_CONNECTIONS)]
                for sock in crowd:
                    sock.sendall(sent)
                for _ in range(50):  # until each has a handler
                    if handlers() >= before + len(crowd):
                        break
                    time.sleep(0.1)
                bundle = one_shot_sign(b"crowded", "Honest Signer",
                                       HttpEnrollmentClient(url, timeout=5))
                assert bundle.chain.root == hierarchy.root.certificate
                assert closed_by_service(crowd[0])
            finally:
                service.stop()

    @pytest.mark.parametrize("pipelined", ["get-chain", "post-enroll"])
    def test_connections_that_stop_reading_give_way(self, monkeypatch, pipelined):
        """With every slot held by a connection that pipelines requests and
        reads none of the replies, an honest enrollment succeeds within 5 s:
        it takes the slot of the connection that has waited longest for its
        client to read. Such connections used to keep their slots for
        HANDLER_TIMEOUT_S, 30 s, and every honest request got 503."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 4)
        hierarchy = init_hierarchy("Unread Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        url = service.start()
        address = urllib.parse.urlsplit(url)
        keypair = EphemeralKeyPair.generate()
        pem = build_csr(keypair, DistinguishedName.from_common_name("Unread"),
                        digest_document(b"unread")).to_pem()
        keypair.destroy()
        request = {"get-chain": b"GET /chain HTTP/1.1\r\n\r\n",
                   "post-enroll": b"POST /enroll HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                                  % (len(pem), pem)}[pipelined]
        client = HttpEnrollmentClient(url, timeout=5)
        with contextlib.ExitStack() as held:
            try:
                for _ in range(service_module.MAX_CONNECTIONS):
                    sock = held.enter_context(socket.socket())
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    sock.connect((address.hostname, address.port))
                    pipeline_until_unread(sock, request)
                started = time.monotonic()
                bundle = one_shot_sign(b"honest", "Honest Signer", client)
                assert time.monotonic() - started < 5
                assert bundle.chain.root == hierarchy.root.certificate
            finally:
                client.close()
                service.stop()

    @pytest.mark.parametrize("cut_by", ["client", "new-connection"])
    def test_enroll_body_cut_short_is_not_answered(self, monkeypatch, cut_by):
        """An /enroll whose body ends early, because the client stopped
        sending or because its connection was closed to free the slot for a
        new one, gets no reply."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 1)
        service = EnrollmentService([init_hierarchy("Cut Root", fresh_policy()).first_issuer()])
        url = service.start()
        address = urllib.parse.urlsplit(url)
        try:
            with socket.create_connection((address.hostname, address.port),
                                          timeout=5) as sock:
                sock.sendall(b"POST /enroll HTTP/1.1\r\nContent-Length: 100\r\n\r\n-----BEGIN")
                if cut_by == "client":
                    sock.shutdown(socket.SHUT_WR)
                else:  # until its handler waits for the body and gives way
                    for _ in range(50):
                        reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n"
                                                  b"Connection: close\r\n\r\n")
                        if not reply.startswith(b"HTTP/1.1 503 "):
                            break
                        time.sleep(0.1)
                    assert reply.startswith(b"HTTP/1.1 200 ")
                assert closed_by_service(sock)
        finally:
            service.stop()

    def test_read_after_the_message_deadline_times_out(self, monkeypatch):
        """A read that starts once the whole message was due raises at once;
        a slow request is otherwise cut off by the socket timeout set from
        the time left."""
        ours, theirs = socket.socketpair()
        with ours, theirs, framing.MessageReader(ours, 30.0) as reader:
            theirs.sendall(b"GET /chain")
            reader.next_message()
            assert reader.readinto(bytearray(3)) == 3  # the first byte sets the deadline
            later = time.monotonic() + 30.0
            monkeypatch.setattr(framing, "time", types.SimpleNamespace(monotonic=lambda: later))
            with pytest.raises(TimeoutError, match="deadline"):
                reader.readinto(bytearray(3))

    def test_interrupt_while_starting_a_handler_propagates(self, shared_issuer, monkeypatch):
        """SIGTERM's KeyboardInterrupt can land in Thread.start after the
        handler thread has served its connection and given its slot back.
        The slot used to be released a second time there, and the
        ValueError that raised went to handle_error with the interrupt, so
        ``otc serve`` kept running."""
        server = service_module._Server(("127.0.0.1", 0),
                                        EnrollmentService([shared_issuer]))
        try:
            socket.create_connection(server.server_address, timeout=5).close()
            request, address = server.socket.accept()
            start = threading.Thread.start

            def start_then_interrupt(thread):
                start(thread)
                thread.join()  # the handler reads EOF and frees its slot
                raise KeyboardInterrupt

            monkeypatch.setattr(threading.Thread, "start", start_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                server.process_request(request, address)
            monkeypatch.undo()
            slots = [server._slots.acquire(blocking=False)
                     for _ in range(service_module.MAX_CONNECTIONS + 1)]
            assert slots.count(True) == service_module.MAX_CONNECTIONS
        finally:
            server.server_close()


@pytest.fixture(scope="module")
def hostile_target():
    """A one-issuer service with a 1 s connection timeout, and the exceptions
    that reach its server's handle_error."""
    escaped = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "HANDLER_TIMEOUT_S", 1.0)
        patch.setattr(service_module._Server, "handle_error",
                      lambda server, request, address: escaped.append(sys.exc_info()[1]))
        hierarchy = init_hierarchy("Hostile Input Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        url = service.start()
        yield url, escaped
        service.stop()


def _build_request(method, target, version, headers, body):
    line = b" ".join(part for part in (method, target, version) if part)
    return line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


http_requests = st.builds(
    _build_request,
    st.sampled_from([b"GET", b"POST", b"HEAD", b"PUT", b"get", b""]),
    st.sampled_from([b"/enroll", b"/crl", b"/chain", b"/", b"*", b"/crl?x=1", b""]),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1", b"HTTP/1.1.1", b""]),
    st.lists(st.sampled_from([
        b"Content-Length: 0", b"Content-Length: 7", b"Content-Length: 64",
        b"Content-Length: abc", b"Content-Length: 99999999", b"Content-Length:",
        b"Transfer-Encoding: chunked", b"Connection: close", b"Connection: keep-alive",
        b"Expect: 100-continue", b"Host: x", b"no colon here", b" folded: line",
    ]), max_size=4),
    st.sampled_from([b"", b"-----BEGIN CERTIFICATE REQUEST-----\n", b"0\r\n\r\n"])
    | st.binary(max_size=64),
)


# Up to three pipelined requests, with a few bytes overwritten.
hostile_requests = st.lists(http_requests, min_size=1, max_size=3).map(b"".join).flatmap(
    overwritten)


_STATUS_LINE = re.compile(rb"HTTP/1\.1 [1-5][0-9][0-9] [^\r\n]*")


def check_responses(data: bytes):
    """Fail unless what a connection received splits into responses, each a
    status line, headers and a body framed by its Content-Length."""
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, f"unterminated response head: {head[:200]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        assert _STATUS_LINE.fullmatch(status_line), status_line
        headers = {}
        for line in header_lines:
            name, colon, value = line.partition(b":")
            assert colon, line
            headers[name.strip().lower()] = value.strip()
        if status_line.startswith(b"HTTP/1.1 1"):  # interim: no body follows
            continue
        if headers.get(b"connection") == b"close":  # the last; a HEAD reply has no body
            assert len(data) in (0, int(headers.get(b"content-length", 0))), head
            return
        length = int(headers[b"content-length"])
        assert len(data) >= length, "body shorter than its Content-Length"
        data = data[length:]


class TestLifecycle:
    def test_stop_after_bind_alone_returns(self, shared_issuer):
        """socketserver's shutdown() waits for a serve_forever loop to end.
        With none running, stop() after bind() used to wait for ever."""
        service = EnrollmentService([shared_issuer])
        service.bind()
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "stop() hung after bind()"
        with pytest.raises(RuntimeError, match="not bound"):
            service.url

    def test_stop_after_start_returns_promptly(self, shared_issuer):
        """``otc serve`` stops its service on SIGTERM. The accept loop used
        to look for stop() every 0.5 s, so stop() took that long."""
        service = EnrollmentService([shared_issuer])
        service.start()
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 0.3


class TestHostileRequests:
    @settings(max_examples=100, deadline=None)
    @given(data=hostile_requests | st.binary(max_size=200))
    def test_any_bytes_get_responses_or_a_clean_close(self, hostile_target, data):
        url, escaped = hostile_target
        address = urllib.parse.urlsplit(url)
        with socket.create_connection((address.hostname, address.port), timeout=10) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):  # a hang fails here after 10 s
                chunks.append(chunk)
        check_responses(b"".join(chunks))
        assert escaped == []


class TestKeepAlive:
    def test_two_signs_one_connection_two_requests(self, single_issuer_url, counted):
        counts, _ = counted
        client = HttpEnrollmentClient(single_issuer_url)
        one_shot_sign(b"first", "First", client)
        one_shot_sign(b"second", "Second", client)
        client.close()
        assert counts == {"connect": 1, "request": 2}  # /enroll twice

    def test_closed_connection_reopened_once(self, short_timeout_stack, counted):
        hierarchy, url = short_timeout_stack
        counts, sockets = counted
        client = HttpEnrollmentClient(url)
        one_shot_sign(b"before", "Before", client)
        # The service closes the idle connection; its FIN makes the socket readable.
        assert select.select(sockets, [], [], 5)[0] == sockets
        bundle = one_shot_sign(b"after", "After", client)
        client.close()
        report = verify_bundle(bundle, b"after", [hierarchy.root.certificate], POLICY)
        assert report.accepted, report.to_text()
        # /enroll, then /enroll on the closed connection and once more.
        assert counts == {"connect": 2, "request": 3}

    def test_second_failure_is_unreachable(self, shared_issuer, counted):
        counts, _ = counted
        chain_pem = shared_issuer.chain_to_root().to_pem()
        replies = [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(chain_pem), chain_pem), b""]
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5)

            def answer_once_then_hang_up():
                for reply in replies:
                    connection, _ = listener.accept()
                    with connection:
                        connection.recv(65536)
                        connection.sendall(reply)

            server = threading.Thread(target=answer_once_then_hang_up)
            server.start()
            client = HttpEnrollmentClient(f"http://127.0.0.1:{listener.getsockname()[1]}",
                                          timeout=5)
            _, csr = make_csr("Hung Up On")
            assert client.enroll(csr) == shared_issuer.chain_to_root()
            with pytest.raises(EnrollmentUnreachableError):
                client.enroll(csr)
            server.join(5)
        assert not server.is_alive()
        assert counts == {"connect": 2, "request": 3}

    def test_one_request_per_signature_across_the_pool(self, counted):
        """Each signature is one /enroll request, whichever pool member
        signs; fetch_crl sends none. The client used to fetch /crl once per
        issuing CA and cache it."""
        counts, _ = counted
        hierarchy = init_hierarchy("One Request Root", fresh_policy(),
                                   issuers_per_intermediate=3)
        service = EnrollmentService(hierarchy.issuers[0])
        client = HttpEnrollmentClient(service.start())
        try:
            bundles = [one_shot_sign(b"pooled", f"Pooled {i}", client) for i in range(6)]
            assert counts["request"] == 6
            chain = client.enroll(make_csr("Last")[1])
            crl = client.fetch_crl(chain)
        finally:
            client.close()
            service.stop()
        assert counts["request"] == 7
        assert len({bundle.chain.issuing_ca for bundle in bundles}) == 3
        assert crl.raw.issuer == chain.issuing_ca.raw.subject
        anchors = [hierarchy.root.certificate]
        for bundle in bundles:
            report = verify_bundle(bundle, b"pooled", anchors, POLICY)
            assert report.accepted, report.to_text()

    def test_connection_closed_when_its_thread_ends(self, single_issuer_url, monkeypatch):
        """Each thread's connection is closed as the thread ends. The
        collector used to close them, warning once for each socket."""
        client = HttpEnrollmentClient(single_issuer_url)
        _, csr = make_csr("Thread End")
        chains, unraisable = [], []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            threads = [threading.Thread(target=lambda: chains.append(client.enroll(csr)))
                       for _ in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            gc.collect()
        assert len(chains) == 32
        assert [hook.exc_value for hook in unraisable] == []


class TestReadEndpoints:
    def test_crl_blank_and_byte_stable(self, stack):
        _, _, url = stack
        status, first = fetch(url, "/crl")
        _, second = fetch(url, "/crl")
        assert status == 200
        assert first == second
        assert first.count(b"-----BEGIN X509 CRL-----") == 2  # one per pool member

    def test_chain_pins_issuer_to_root(self, stack):
        hierarchy, _, url = stack
        status, body = fetch(url, "/chain")
        _, again = fetch(url, "/chain")
        assert status == 200
        assert body == again
        chain = CertificationChain.from_pem(body)
        assert chain.root == hierarchy.root.certificate
        assert chain.leaf == hierarchy.issuers[0][0].certificate


class TestPoolBehavior:
    def test_round_robin_spreads_issuers(self, stack):
        hierarchy, _, url = stack
        client = HttpEnrollmentClient(url)
        issuers_seen = set()
        for i in range(4):
            bundle = one_shot_sign(b"spread", f"Spread {i}", client)
            issuers_seen.add(bundle.chain.issuing_ca.subject_text)
        assert len(issuers_seen) == 2

    def test_bundles_verify_regardless_of_pool_member(self, stack):
        hierarchy, _, url = stack
        client = HttpEnrollmentClient(url)
        anchors = [hierarchy.root.certificate]
        for i in range(4):
            document = f"doc {i}".encode()
            bundle = one_shot_sign(document, f"User {i}", client)
            report = verify_bundle(bundle, document, anchors, POLICY)
            assert report.accepted, report.to_text()

    def test_one_crl_per_member(self, stack, monkeypatch):
        """Every /enroll reply from a member carries its one CRL, so the
        bundles signed under it hold one CRL object between them and leave
        one entry for it in the verifier's memo."""
        hierarchy, _, url = stack
        client = HttpEnrollmentClient(url)
        try:
            bundles = [one_shot_sign(b"counted", f"Counted {i}", client) for i in range(6)]
        finally:
            client.close()
        crls = {bundle.chain.issuing_ca: bundle.crl for bundle in bundles}
        assert len(crls) == len(hierarchy.issuers[0]) == 2
        assert all(bundle.crl is crls[bundle.chain.issuing_ca] for bundle in bundles)
        for issuer in hierarchy.issuers[0]:
            assert crls[issuer.certificate].to_der() == issuer.issue_blank_crl().to_der()
        clear_memos()
        crl_signatures = count_calls(monkeypatch, RevocationList, "is_signed_by")
        for bundle in bundles:
            assert verify_bundle(bundle, b"counted", [hierarchy.root.certificate],
                                 POLICY).accepted
        # One CA path and one CRL for each member.
        assert verifier._remembered_pass.cache_info().currsize == 2 * len(crls)
        assert sorted(map(id, crl_signatures)) == sorted(map(id, crls.values()))

    def test_concurrent_enrollments_distinct_serials(self, stack):
        _, _, url = stack
        client = HttpEnrollmentClient(url)
        serials = []
        errors = []
        lock = threading.Lock()

        def worker(index):
            try:
                bundle = one_shot_sign(b"load", f"Load {index}", client)
                with lock:
                    serials.append(bundle.chain.leaf.serial)
            except Exception as exc:  # surface failures in the main thread
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(set(serials)) == 32

    def test_mixed_pool_roots_refused(self):
        a = init_hierarchy("Root A", fresh_policy())
        b = init_hierarchy("Root B", fresh_policy())
        with pytest.raises(ConfigError):
            EnrollmentService([a.first_issuer(), b.first_issuer()])

    def test_empty_pool_refused(self):
        with pytest.raises(ConfigError):
            EnrollmentService([])


class TestRetirement:
    def test_survives_one_retirement_then_503(self):
        hierarchy = init_hierarchy("Retiring Service Root", fresh_policy(),
                                   issuers_per_intermediate=2)
        service = EnrollmentService(hierarchy.issuers[0])
        url = service.start()
        try:
            client = HttpEnrollmentClient(url)
            hierarchy.issuers[0][0].retire()
            bundle = one_shot_sign(b"still up", "Survivor", client)  # second member serves
            assert bundle.chain.issuing_ca == hierarchy.issuers[0][1].certificate
            hierarchy.issuers[0][1].retire()
            with pytest.raises(EnrollmentRejectedError) as excinfo:
                one_shot_sign(b"down", "Too Late", client)
            assert excinfo.value.ca_code == "issuer-retired"
            with pytest.raises(urllib.error.HTTPError) as crl_err:
                fetch(url, "/crl")
            assert crl_err.value.code == 503
        finally:
            service.stop()


    def test_issuer_retired_after_it_was_picked_is_503(self, monkeypatch):
        """An issuer retired between the pick and its lock answers
        issuer-retired, even with no CN in its name to print."""
        issuer = no_cn_issuer()
        service = EnrollmentService([issuer])
        issuer.retire()
        monkeypatch.setattr(service, "_next_active_issuer", lambda: issuer)
        _, csr = make_csr()
        status, body = service.handle_enroll(csr.to_pem())
        assert (status, body) == (503, b"issuer-retired: O=No CN Issuer is retired")


class TestExpiredChain:
    """Past the chain's expiry, cryptography's builders refuse to build, and
    the service used to drop the connection or fail to start."""

    def test_enrollment_is_503(self, shared_issuer, monkeypatch):
        service = EnrollmentService([shared_issuer])
        set_clock_past(monkeypatch, shared_issuer.not_after)
        _, csr = make_csr()
        status, body = service.handle_enroll(csr.to_pem())
        assert status == 503 and body.startswith(b"issuer-expired: "), body

    def test_startup_is_refused(self, shared_issuer, monkeypatch):
        set_clock_past(monkeypatch, shared_issuer.not_after)
        with pytest.raises(OtcError) as excinfo:
            EnrollmentService([shared_issuer])
        assert excinfo.value.code == "issuer-expired"


class TestHttpClientErrors:
    def test_unreachable_endpoint(self):
        client = HttpEnrollmentClient("http://127.0.0.1:9", timeout=0.5)
        keypair, csr = make_csr()
        keypair.destroy()
        with pytest.raises(EnrollmentUnreachableError):
            client.enroll(csr)


def bounded(call, timeout=10):
    """``call()``'s result or the exception it raised, run on a thread that
    fails the test if it has not finished within ``timeout`` seconds."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return outcome[0]


def enroll_once(url, timeout):
    """``enroll`` of a new request on a new client, bounded as by
    :func:`bounded`; the client is closed in the thread that used it, which
    holds its connection."""
    client = HttpEnrollmentClient(url, timeout=timeout)
    _, csr = make_csr("Scripted Reply")

    def enroll():
        try:
            return client.enroll(csr)
        finally:
            client.close()

    return bounded(enroll)


@contextlib.contextmanager
def scripted_service(answer, wrap=None, host="127.0.0.1"):
    """A listener on ``host`` that takes one connection, reads the request,
    and calls ``answer(connection, request)``; yields its URL. ``wrap`` turns
    the accepted socket into a TLS one. The thread must end within 10 s."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.create_server((host, 0), family=family) as listener:
        listener.settimeout(10)

        def serve():
            try:
                connection, _ = listener.accept()
                if wrap is not None:
                    connection = wrap(connection)
                with connection:
                    answer(connection, connection.recv(65536))
            except OSError:  # the client gave up, or refused the handshake
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        scheme = "http" if wrap is None else "https"
        netloc = f"[{host}]" if family == socket.AF_INET6 else host
        yield f"{scheme}://{netloc}:{listener.getsockname()[1]}"
        thread.join(10)
        assert not thread.is_alive()


def sends(data):
    return lambda connection, request: connection.sendall(data)


def reply_with(body, head=b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"):
    """A reply: ``head`` (formatted with the body's length when it asks for
    it), the blank line, then the body."""
    if b"%d" in head:
        head = head % len(body)
    return head + b"\r\n" + body


# Leaf extensions that cryptography refuses when the signer first reads them:
# a subjectAltName holding an x400Address, and a basicConstraints that is not
# DER.
UNREADABLE_LEAF_EXTENSIONS = {
    "x400-address": x509.UnrecognizedExtension(ExtensionOID.SUBJECT_ALTERNATIVE_NAME,
                                               bytes.fromhex("3004a3023000")),
    "malformed-basic-constraints": x509.UnrecognizedExtension(
        ExtensionOID.BASIC_CONSTRAINTS, b"\xff\x00"),
}


def scripted_issuance(issuer: CaIdentity, extension=None, crl: RevocationList = None):
    """A scripted answer to ``/enroll``: a leaf for the request's key and
    binding, issued by ``issuer`` with ``extension`` added if one is given,
    its chain and ``crl``, by default ``issuer``'s CRL."""
    def answer(connection, request):
        csr = decode(request.partition(b"\r\n\r\n")[2], SigningRequest)
        leaf = forge_leaf(issuer, csr)
        if extension is not None:
            leaf = with_extension(leaf, issuer, extension, critical=False)
        connection.sendall(reply_with(CertificationChain((leaf, *issuer.chain_to_root())).to_pem()
                                      + (crl or issuer.issue_blank_crl()).to_pem()))
    return answer


class TestHostileReplies:
    """The client reads replies under the service's own limits, each within
    its deadline; anything else is EnrollmentUnreachableError."""

    @pytest.fixture(scope="class")
    def chain_pem(self, shared_issuer):
        return shared_issuer.chain_to_root().to_pem()

    def test_trickled_reply_is_cut_off(self, chain_pem):
        """http.client waited up to ``timeout`` for each byte, so a trickle
        never ended; 65 bytes took 19.3 s."""
        reply = reply_with(chain_pem)

        def trickle(connection, request):
            for byte in reply:
                connection.sendall(bytes([byte]))
                time.sleep(0.3)

        with scripted_service(trickle) as url:
            started = time.monotonic()
            outcome = enroll_once(url, timeout=1)
            elapsed = time.monotonic() - started
        assert isinstance(outcome, EnrollmentUnreachableError), outcome
        assert elapsed < 2.5

    @pytest.mark.parametrize("head", [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n",
                                      b"HTTP/1.1 200 OK\r\n"],
                             ids=["content-length", "to-close"])
    def test_body_over_one_mebibyte_is_refused(self, chain_pem, head):
        """A valid chain padded to over 1 MiB; http.client read 3 MiB."""
        with scripted_service(sends(reply_with(chain_pem + b"\n" * (2 << 20), head))) as url:
            outcome = enroll_once(url, timeout=5)
        assert isinstance(outcome, EnrollmentUnreachableError), outcome

    @pytest.mark.parametrize("make_reply", [
        lambda pem: reply_with(b"%x\r\n%s\r\n0\r\n\r\n" % (len(pem), pem),
                               b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               + b"".join(b"X-Field-%d: y\r\n" % i for i in range(100))),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               + b"X-Long: " + b"a" * (framing.MAX_LINE - 9) + b"\r\n"),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: 1%da\r\n"),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               b"Content-Length: %d\r\n" % (len(pem), len(pem))),
        lambda pem: reply_with(pem[:-10], b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               % len(pem)),
        lambda pem: b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n" % len(pem),
        lambda pem: reply_with(pem, b"ICY 200 OK\r\nContent-Length: %d\r\n"),
        lambda pem: reply_with(pem, b"HTTP/1.1 2000 OK\r\nContent-Length: %d\r\n"),
        lambda pem: b"",
    ], ids=["chunked", "101-fields", "line-over-64KiB", "non-digit-length",
            "repeated-length", "cut-body", "cut-head", "not-http", "four-digit-status",
            "no-reply"])
    def test_reply_outside_the_subset_is_unreachable(self, chain_pem, make_reply):
        with scripted_service(sends(make_reply(chain_pem))) as url:
            outcome = enroll_once(url, timeout=5)
        assert isinstance(outcome, EnrollmentUnreachableError), outcome

    @pytest.mark.parametrize("make_reply", [
        lambda pem: (b"HTTP/1.1 100 Continue\r\n\r\n"
                     + reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n")),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               + b"".join(b"X-Field-%d: y\r\n" % i for i in range(99))),
        lambda pem: reply_with(pem, b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                               + b"X-Long: " + b"a" * (framing.MAX_LINE - 10) + b"\r\n"),
        lambda pem: reply_with(pem, b"HTTP/1.0 200 OK\r\n"),
    ], ids=["100-continue-first", "100-fields", "line-of-64KiB", "http-1.0-to-close"])
    def test_reply_inside_the_subset_is_read(self, chain_pem, make_reply):
        with scripted_service(sends(make_reply(chain_pem))) as url:
            outcome = enroll_once(url, timeout=5)
        assert outcome == CertificationChain.from_pem(chain_pem)

    @pytest.mark.parametrize("fault", UNREADABLE_LEAF_EXTENSIONS)
    def test_unreadable_leaf_is_refused(self, shared_issuer, key_ledger, fault):
        """A leaf that names the signer's key but cannot be read. The signer
        raised UnsupportedGeneralNameType or a bare ValueError, which `otc
        sign` printed as a traceback."""
        answer = scripted_issuance(shared_issuer, UNREADABLE_LEAF_EXTENSIONS[fault])
        with scripted_service(answer) as url:
            client = HttpEnrollmentClient(url, timeout=5)
            try:
                with pytest.raises(EnrollmentRejectedError, match="cannot be read") as excinfo:
                    one_shot_sign(b"unreadable leaf", "Unreadable Leaf", client)
            finally:
                client.close()
        assert excinfo.value.ca_code == "leaf-mismatch"
        assert key_ledger.keypairs and key_ledger.live() == []

    @pytest.mark.parametrize("fault", UNREADABLE_LEAF_EXTENSIONS)
    def test_unreadable_leaf_exits_1(self, shared_issuer, tmp_path, capsys, fault):
        document = tmp_path / "doc.txt"
        document.write_bytes(b"unreadable leaf")
        answer = scripted_issuance(shared_issuer, UNREADABLE_LEAF_EXTENSIONS[fault])
        with scripted_service(answer) as url:
            status = cli.main(["sign", "--doc", str(document), "--subject", "Unreadable Leaf",
                               "--enroll", url, "--out", str(tmp_path / "out.otcb")])
        assert status == 1
        assert "enrollment failed: issued certificate cannot be read" in capsys.readouterr().err
        assert not (tmp_path / "out.otcb").exists()

    def test_crl_with_an_empty_rdn_exits_1(self, shared_issuer, tmp_path, capsys):
        """The signer raised a bare ValueError as it read the issuer name of
        the reply's CRL, and `otc sign` exited 2."""
        document = tmp_path / "doc.txt"
        document.write_bytes(b"empty rdn")
        crl = with_empty_rdn(shared_issuer.issue_blank_crl())
        with scripted_service(scripted_issuance(shared_issuer, crl=crl)) as url:
            status = cli.main(["sign", "--doc", str(document), "--subject", "Empty RDN",
                               "--enroll", url, "--out", str(tmp_path / "out.otcb")])
        assert status == 1
        assert ("enrollment failed: no CRL published for issuer"
                f" {shared_issuer.certificate.subject_text}") in capsys.readouterr().err
        assert not (tmp_path / "out.otcb").exists()

    def test_rejection_carries_the_service_code(self):
        reply = reply_with(b"issuer-retired: no active issuer in the pool",
                           b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: %d\r\n")
        with scripted_service(sends(reply)) as url:
            outcome = enroll_once(url, timeout=5)
        assert isinstance(outcome, EnrollmentRejectedError)
        assert outcome.ca_code == "issuer-retired"
        assert str(outcome) == "no active issuer in the pool"

    def test_request_bytes(self):
        """Line, Host, Content-Type, Content-Length and body, as one message."""
        received = []

        def record(connection, request):
            received.append(request)
            connection.sendall(reply_with(b"bad-request: no", b"HTTP/1.1 400 Bad Request\r\n"
                                                              b"Content-Length: %d\r\n"))

        def enroll(url):
            client = HttpEnrollmentClient(url + "/ca", timeout=5)
            try:
                return client.enroll(csr)
            finally:
                client.close()

        keypair, csr = make_csr()
        keypair.destroy()
        with scripted_service(record) as url:
            outcome = bounded(lambda: enroll(url))
        assert isinstance(outcome, EnrollmentRejectedError)
        body = csr.to_pem()
        assert received == [b"POST /ca/enroll HTTP/1.1\r\nHost: %s\r\n"
                            b"Content-Type: application/x-pem-file\r\n"
                            b"Content-Length: %d\r\n\r\n%s"
                            % (urllib.parse.urlsplit(url).netloc.encode(), len(body), body)]

    def test_host_of_an_ipv6_literal_is_bracketed(self):
        """RFC 9110 §7.2: the Host field of an IPv6-literal URL keeps its
        brackets and port."""
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("no ::1 on this host")
        received = []

        def record(connection, request):
            received.append(request)
            connection.sendall(reply_with(b"bad-request: no", b"HTTP/1.1 400 Bad Request\r\n"
                                                              b"Content-Length: %d\r\n"))

        with scripted_service(record, host="::1") as url:
            outcome = enroll_once(url, timeout=5)
        assert isinstance(outcome, EnrollmentRejectedError), outcome
        port = urllib.parse.urlsplit(url).port
        assert received[0].split(b"\r\n")[1] == b"Host: [::1]:%d" % port

    @pytest.mark.parametrize("crl", ["another-issuers-crl", "no-crl", "same-named-issuers-crl",
                                     "unreadable-crl", "empty-rdn-crl", "empty-rdn-issuing-ca"])
    def test_reply_without_its_issuers_crl(self, shared_issuer, monkeypatch, crl):
        """An /enroll reply whose CRL another CA issued, or that carries
        none, as one from a service that served CRLs only at /crl. The other
        CA may share the issuing CA's name, as two issuers under one parent
        can; its CRL used to be taken, and the bundle then failed to verify.
        The issuing CA is named even when it has no CN, and the key dies.
        The issuing CA's own CRL with an x400Address in its issuerAltName,
        which cryptography cannot read, made the signer raise
        UnsupportedGeneralNameType; with an empty RDN in its issuer name, a
        bare ValueError, as did an issuing CA with one in its subject."""
        if crl == "same-named-issuers-crl":
            intermediate = init_hierarchy("Twin Root", fresh_policy()).intermediates[0]
            issuer, other = (create_subordinate(intermediate, "Twin Issuer", CaRole.ISSUER)
                             for _ in range(2))
            named = "CN=Twin Issuer"
        else:
            issuer, other = no_cn_issuer(), shared_issuer if crl == "another-issuers-crl" else None
            named = "O=No CN Issuer"
        keypair, csr = make_csr()
        chain = LocalEnrollmentClient(issuer).enroll(csr)
        body = chain.to_pem() + (b"" if other is None else other.issue_blank_crl().to_pem())
        if crl == "unreadable-crl":
            certificate = issuer.certificate
            body += forge_blank_crl(issuer, certificate.not_before, certificate.not_after, [
                issuer._key_identifier, x509.UnrecognizedExtension(
                    ExtensionOID.ISSUER_ALTERNATIVE_NAME, bytes.fromhex("3004a3023000"))]).to_pem()
        if crl == "empty-rdn-crl":
            body += with_empty_rdn(issuer.issue_blank_crl()).to_pem()
        if crl == "empty-rdn-issuing-ca":
            certificates = list(chain)
            certificates[1] = with_empty_rdn(certificates[1], name_index=1)
            body = CertificationChain(certificates).to_pem() + issuer.issue_blank_crl().to_pem()
            named = "whose name cannot be read"
        # one_shot_sign gets this key, so the scripted leaf is for its key and digest.
        monkeypatch.setattr(EphemeralKeyPair, "generate", lambda *args: keypair)

        def sign(url):
            client = HttpEnrollmentClient(url, timeout=5)
            try:
                return one_shot_sign(b"remote doc", "Web Client", client)
            finally:
                client.close()

        with scripted_service(sends(reply_with(body))) as url:
            outcome = bounded(lambda: sign(url))
        assert isinstance(outcome, EnrollmentRejectedError), outcome
        assert outcome.ca_code == "no-matching-crl"
        assert str(outcome) == f"no CRL published for issuer {named}"
        assert not keypair.is_live

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/", "http://", "http://h:99999",
                                     "http://h/a b", "http://h/é"])
    def test_unusable_url_is_config_error(self, url):
        with pytest.raises(ConfigError):
            HttpEnrollmentClient(url)

    @pytest.mark.parametrize("url", ["http://h:1/p?x=1", "http://h:1/p#f", "http://u:pw@h:1/p"],
                             ids=["query", "fragment", "userinfo"])
    def test_url_part_that_is_not_sent_is_config_error(self, url):
        """A request carries only the URL's path. The client used to send to
        /p/enroll and drop the query, fragment or user name unsaid."""
        with pytest.raises(ConfigError, match="user name, query or fragment"):
            HttpEnrollmentClient(url)


def _build_reply(status_line, headers, body):
    return status_line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


http_replies = st.builds(
    _build_reply,
    st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 100 Continue",
                     b"HTTP/1.1 422 Unprocessable", b"HTTP/1.1 200", b"HTTP/2 200 OK",
                     b"HTTP/1.1 2x0 OK", b""]),
    st.lists(st.sampled_from([
        b"Content-Length: 0", b"Content-Length: 7", b"Content-Length: 99999999",
        b"Content-Length: abc", b"Content-Length:", b"Transfer-Encoding: chunked",
        b"Connection: close", b"Connection: keep-alive", b"no colon here",
        b" folded: line",
    ]), max_size=4),
    st.sampled_from([b"", b"-----BEGIN CERTIFICATE-----\n", b"0\r\n\r\n"])
    | st.binary(max_size=64),
)


class TestHostileReplyBytes:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.lists(http_replies, min_size=1, max_size=3).map(b"".join).flatmap(overwritten)
           | st.binary(max_size=200))
    def test_any_reply_returns_or_raises_otc_error(self, data):
        with scripted_service(sends(data)) as url:
            outcome = enroll_once(url, timeout=2)
        assert isinstance(outcome, (CertificationChain, OtcError)), repr(outcome)


def _tls_certificate(subject, issuer_key, issuer_name, key, *, ca, host=None):
    now = datetime.now(timezone.utc)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, subject)])
    builder = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(issuer_name or name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - timedelta(minutes=5))
        .not_valid_after(now + timedelta(days=1))
        .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()),
                       critical=False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(
            issuer_key.public_key()), critical=False)
    )
    if ca:
        builder = builder.add_extension(x509.KeyUsage(
            digital_signature=False, content_commitment=False, key_encipherment=False,
            data_encipherment=False, key_agreement=False, key_cert_sign=True,
            crl_sign=True, encipher_only=False, decipher_only=False), critical=True)
    else:
        builder = (builder
                   .add_extension(x509.SubjectAlternativeName([host]), critical=False)
                   .add_extension(x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]),
                                  critical=False))
    return builder.sign(issuer_key, hashes.SHA256())


@pytest.fixture(scope="module")
def tls_material(tmp_path_factory):
    """Two TLS CAs, each a PEM file, and server certificate files signed by
    the first: one for 127.0.0.1 and one for another host."""
    directory = tmp_path_factory.mktemp("tls")
    files = {}
    ca_keys = {}
    for label in ("trusted-ca", "other-ca"):
        key = ec.generate_private_key(ec.SECP256R1())
        certificate = _tls_certificate(f"Test TLS {label}", key, None, key, ca=True)
        ca_keys[label] = (key, certificate)
        files[label] = directory / f"{label}.pem"
        files[label].write_bytes(certificate.public_bytes(serialization.Encoding.PEM))
    ca_key, ca_certificate = ca_keys["trusted-ca"]
    for label, host in (("right-host", x509.IPAddress(ipaddress.ip_address("127.0.0.1"))),
                        ("wrong-host", x509.DNSName("otc.invalid"))):
        key = ec.generate_private_key(ec.SECP256R1())
        certificate = _tls_certificate("Test TLS server", ca_key, ca_certificate.subject, key,
                                       ca=False, host=host)
        files[label] = directory / f"{label}.pem"
        files[label].write_bytes(
            certificate.public_bytes(serialization.Encoding.PEM)
            + key.private_bytes(serialization.Encoding.PEM,
                                serialization.PrivateFormat.PKCS8,
                                serialization.NoEncryption()))
    return files


class TestHttps:
    """An https:// URL gets a TLS connection that checks the service's
    certificate against the default trust store and the URL's host."""

    @staticmethod
    def _tls_wrap(certificate_file):
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(certificate_file)

        def wrap(connection):
            connection.settimeout(10)
            return context.wrap_socket(connection, server_side=True)

        return wrap

    @pytest.mark.parametrize("trust,certificate,accepted", [
        ("trusted-ca", "right-host", True),
        ("other-ca", "right-host", False),
        ("trusted-ca", "wrong-host", False),
    ], ids=["trusted", "untrusted", "wrong-host"])
    def test_certificate_is_verified(self, tls_material, shared_issuer, monkeypatch,
                                     trust, certificate, accepted):
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_material[trust]))
        chain = shared_issuer.chain_to_root()
        reply = reply_with(chain.to_pem())
        with scripted_service(sends(reply), self._tls_wrap(tls_material[certificate])) as url:
            outcome = enroll_once(url, timeout=5)
        if accepted:
            assert outcome == chain
        else:
            assert isinstance(outcome, EnrollmentUnreachableError), outcome


@pytest.fixture(scope="module")
def csr_keys(keypair_pool):
    """Private keys of several types, for requests the CA has not seen."""
    return [keypair_pool[0]._signing_key(), ec.generate_private_key(ec.SECP384R1()),
            ec.generate_private_key(ec.SECP256K1()), ed25519.Ed25519PrivateKey.generate(),
            rsa.generate_private_key(public_exponent=65537, key_size=1024)]


# Attributes whose values are UTF8String, and those encoded as
# PrintableString or IA5String, which take a narrower alphabet.
_attributes = st.one_of(
    st.builds(x509.NameAttribute,
              st.sampled_from([NameOID.COMMON_NAME, NameOID.ORGANIZATION_NAME,
                               x509.ObjectIdentifier("1.2.3.4.5")]),
              st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)),
    st.builds(x509.NameAttribute,
              st.sampled_from([NameOID.SERIAL_NUMBER, NameOID.EMAIL_ADDRESS,
                               NameOID.DOMAIN_COMPONENT]),
              st.text("AZaz09 -.:", min_size=1, max_size=12)),
)
_names = st.lists(
    st.lists(_attributes, min_size=1, max_size=2,
             unique_by=lambda attribute: (attribute.oid, attribute.value))
    .map(x509.RelativeDistinguishedName),
    max_size=3).map(x509.Name)
_VALID_BINDING = OtcExtension(digest_document(b"binding")).payload()
_extension_values = st.one_of(
    st.just(_VALID_BINDING).flatmap(overwritten).map(
        lambda payload: x509.UnrecognizedExtension(OTC_EXTENSION_OID, payload)),
    st.builds(x509.UnrecognizedExtension,
              st.sampled_from([OTC_EXTENSION_OID, ExtensionOID.BASIC_CONSTRAINTS,
                               ExtensionOID.KEY_USAGE, ExtensionOID.SUBJECT_ALTERNATIVE_NAME,
                               ExtensionOID.EXTENDED_KEY_USAGE, ExtensionOID.NAME_CONSTRAINTS,
                               x509.ObjectIdentifier("1.2.3.4.6")]),
              st.binary(max_size=40)),
    st.sampled_from([x509.BasicConstraints(ca=True, path_length=0),
                     x509.SubjectAlternativeName([x509.DNSName("otc.invalid")]),
                     x509.ExtendedKeyUsage([ExtendedKeyUsageOID.CODE_SIGNING])]),
)


class TestHostileCsrs:
    @settings(max_examples=60, deadline=None)
    @given(key_index=st.integers(0, 4), name=_names,
           extensions=st.lists(st.tuples(_extension_values, st.booleans()), max_size=3,
                               unique_by=lambda pair: pair[0].oid))
    def test_pop_valid_request_gets_an_answer(self, stack, csr_keys, key_index, name,
                                              extensions):
        """Correctly self-signed requests with any names, extensions and key
        types get 200, 400 or 422 and never an exception."""
        _, service, _ = stack
        key = csr_keys[key_index]
        builder = x509.CertificateSigningRequestBuilder().subject_name(name)
        for value, critical in extensions:
            builder = builder.add_extension(value, critical=critical)
        algorithm = None if isinstance(key, ed25519.Ed25519PrivateKey) else hashes.SHA256()
        request = builder.sign(key, algorithm)
        status, body = service.handle_enroll(request.public_bytes(serialization.Encoding.PEM))
        assert status in (200, 400, 422), body
        if status == 200:
            leaf = CertificationChain.from_pem(body).leaf
            assert leaf.raw.public_key() == request.public_key()


    def test_empty_rdn_in_subject_is_malformed(self, stack):
        """cryptography's Name refuses an empty RDN, so the strategies above
        cannot draw one; it is spliced into a valid request, which is then
        signed again. issue_otc used to raise a bare ValueError reading the
        subject, and the service closed the connection with no reply."""
        hierarchy, service, url = stack
        keypair = EphemeralKeyPair.generate()
        csr = build_csr(keypair, DistinguishedName.from_common_name("Empty RDN"),
                        digest_document(b"empty rdn"))
        (_, (info, algorithm, _)), _ = parse_tree(csr.to_der())
        _, subject_rdns = info[1][1]
        subject_rdns.append((0x31, []))
        body = serialize_tree(info)
        signature = keypair._signing_key().sign(body, ec.ECDSA(hashes.SHA256()))
        keypair.destroy()
        forged = SigningRequest(x509.load_der_x509_csr(
            serialize_tree((0x30, [info, algorithm, (0x03, b"\x00" + signature)]))))
        status, reply = service.handle_enroll(forged.to_pem())
        assert (status, reply.split(b":")[0]) == (422, b"malformed-encoding"), reply
        client = HttpEnrollmentClient(url)
        with pytest.raises(EnrollmentRejectedError) as excinfo:
            client.enroll(forged)
        client.close()
        assert excinfo.value.ca_code == "malformed-encoding"

    @pytest.mark.parametrize("fault", ["x400-address", "repeated-subject-alt-name"])
    def test_unreadable_extension_beside_the_binding_is_malformed(self, stack, fault):
        """A request that proves possession and carries the binding once,
        with a subjectAltName that holds an x400Address or is present twice.
        The first made handle_enroll raise UnsupportedGeneralNameType; the
        second was answered duplicate-otc-extension, a code meant for the
        binding alone."""
        _, service, _ = stack
        keypair = EphemeralKeyPair.generate()
        san = (x509.UnrecognizedExtension(ExtensionOID.SUBJECT_ALTERNATIVE_NAME,
                                          bytes.fromhex("3004a3023000"))
               if fault == "x400-address" else
               x509.SubjectAlternativeName([x509.DNSName("otc.invalid")]))
        csr = SigningRequest(keypair.sign_builder(
            x509.CertificateSigningRequestBuilder()
            .subject_name(DistinguishedName.from_common_name("Odd Names").name)
            .add_extension(OtcExtension(digest_document(b"odd names")).to_x509(), critical=False)
            .add_extension(san, critical=False)))
        if fault == "repeated-subject-alt-name":
            csr = forge_duplicate_extension_csr(csr, keypair,
                                                ExtensionOID.SUBJECT_ALTERNATIVE_NAME)
        keypair.destroy()
        status, reply = service.handle_enroll(csr.to_pem())
        assert (status, reply.split(b":")[0]) == (422, b"malformed-encoding"), reply


class TestLoadPool:
    """The refusals of ``load_pool``, each before any key is read."""

    def test_ca_dir_that_is_not_a_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(ConfigError, match="^ca-dir .*/file is not a directory$"):
            load_pool(tmp_path / "file")

    def test_no_issuer_directories(self, tmp_path):
        (tmp_path / "int-01").mkdir()
        with pytest.raises(ConfigError, match="^no issuer directories under "):
            load_pool(tmp_path)

    def test_pool_size_over_the_issuer_count(self, tmp_path):
        for issuer in ("int-01/iss-01", "int-01/iss-02"):
            (tmp_path / issuer).mkdir(parents=True)
        with pytest.raises(ConfigError, match="^pool-size 3 exceeds the 2 issuers under "):
            load_pool(tmp_path, 3)


class TestServiceConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "svc.conf"
        path.write_text(
            "# enrollment front end\n"
            "listen = 0.0.0.0:9443\n"
            "ca-dir = /var/lib/otc\n"
            "pool-size = 4\n"
        )
        config = ServiceConfig.parse(path)
        assert config.listen_host == "0.0.0.0"
        assert config.listen_port == 9443
        assert str(config.ca_dir) == "/var/lib/otc"
        assert config.pool_size == 4

    def test_defaults(self):
        config = ServiceConfig.parse_text("ca-dir = /tmp/pki\n")
        assert (config.listen_host, config.listen_port) == ("127.0.0.1", 8440)
        assert config.pool_size is None

    @pytest.mark.parametrize("text", [
        "listen = 127.0.0.1:8440\n",              # no ca-dir
        "ca-dir = /x\nlisten = nocolon\n",        # bad listen
        "ca-dir = /x\nlisten = :9000\n",          # empty host
        "ca-dir = /x\nlisten = 127.0.0.1:99999\n",
        "ca-dir = /x\npool-size = zero\n",
        "ca-dir = /x\npool-size = 0\n",
        "ca-dir = /x\nmystery = 1\n",
        "ca-dir /x\n",
    ])
    def test_rejected_configs(self, text):
        with pytest.raises(ConfigError):
            ServiceConfig.parse_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceConfig.parse(tmp_path / "absent.conf")

    @pytest.mark.parametrize("character", ["\u2028", "\x85", "\x1c", "\x1d", "\x1e"],
                             ids=["U+2028", "U+0085", "x1c", "x1d", "x1e"])
    def test_ca_dir_with_a_unicode_line_break(self, character):
        """str.splitlines breaks at each of these, so the path was cut in
        two and its second half refused as a line without =."""
        config = ServiceConfig.parse_text(f"ca-dir = /srv/a{character}b\npool-size = 1\n")
        assert config.ca_dir == Path(f"/srv/a{character}b")
        assert config.pool_size == 1

    @pytest.mark.parametrize("end", ["leading", "trailing"])
    @pytest.mark.parametrize("character", ["\xa0", "\u2028", "\x85", "\x1c", "\u3000"],
                             ids=["U+00A0", "U+2028", "U+0085", "x1c", "U+3000"])
    def test_ca_dir_keeps_unicode_whitespace_at_its_ends(self, character, end):
        """str.strip() dropped each of these from either end of a value, so
        the service read another directory."""
        path = f"{character}/srv/a" if end == "leading" else f"/srv/a{character}"
        config = ServiceConfig.parse_text(f"ca-dir = {path}\npool-size = 1\n")
        assert config.ca_dir == Path(path)

    @pytest.mark.parametrize("line", [
        "listen = 127.0.0.1:8_440", "listen = 127.0.0.1:+80", "listen = 127.0.0.1:\uff18\uff10",
        "listen = 127.0.0.1: 80", "pool-size = 1_0", "pool-size = +1", "pool-size = \uff11",
    ], ids=["port-underscore", "port-plus", "port-full-width", "port-space",
            "pool-underscore", "pool-plus", "pool-full-width"])
    def test_numbers_are_ascii_digits_only(self, line):
        """int() read each of these as a number."""
        with pytest.raises(ConfigError, match="is not a number"):
            ServiceConfig.parse_text(f"ca-dir = /x\n{line}\n")

    def test_ca_dir_with_a_carriage_return_in_a_file(self, tmp_path):
        """Reading the file in text mode turned the \\r into a line end."""
        path = tmp_path / "svc.conf"
        path.write_bytes(b"ca-dir = /srv/a\rb\r\npool-size = 1\r\n")
        config = ServiceConfig.parse(path)
        assert config.ca_dir == Path("/srv/a\rb")
        assert config.pool_size == 1

    @pytest.mark.parametrize("host", ["a\0b", "a\x1fb", "a\x7fb", "a\x85b"],
                             ids=["NUL", "x1f", "DEL", "U+0085"])
    def test_control_character_in_listen_host(self, host):
        """A NUL made bind() raise TypeError, which escaped ``otc serve``."""
        with pytest.raises(ConfigError, match="^unprintable character in listen host"):
            ServiceConfig.parse_text(f"ca-dir = /x\nlisten = {host}:0\n")

    def test_repeated_key_refused(self):
        with pytest.raises(ConfigError, match="^line 3: ca-dir is set twice$"):
            ServiceConfig.parse_text("ca-dir = /a\n# the second wins nothing\nca-dir = /b\n")
