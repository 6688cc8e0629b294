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
import urllib.error
import urllib.parse
import urllib.request
import warnings
from datetime import datetime, timedelta, timezone

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, rsa
from cryptography.x509.oid import ExtendedKeyUsageOID, ExtensionOID, NameOID
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otcpki.ca import init_hierarchy
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    CertificationChain,
    DistinguishedName,
    OtcExtension,
    SigningRequest,
    build_csr,
    decode,
)
from otcpki.crypto import EphemeralKeyPair, digest_document
from otcpki.errors import (
    ConfigError,
    EnrollmentRejectedError,
    EnrollmentUnreachableError,
    OtcError,
)
from otcpki import certmodel, framing
from otcpki import service as service_module
from otcpki.service import EnrollmentService, ServiceConfig
from otcpki.signer import HttpEnrollmentClient, LocalEnrollmentClient, one_shot_sign
from otcpki.verifier import RecencyPolicy, verify_bundle

from conftest import (
    OFF_MENU_KEYS,
    PADDED_OID_PAYLOAD,
    bound_csr,
    csr_with_extension,
    fresh_policy,
    no_cn_issuer,
    overwritten,
    set_clock_past,
)
from dersurgery import parse_tree, serialize_tree

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
        """The chain after the leaf is each pool member's PEM, encoded once
        at startup; two enrollments cover both members."""
        _, service, _ = stack
        for name in ("First Member", "Second Member"):
            keypair, csr = make_csr(name)
            status, body = service.handle_enroll(csr.to_pem())
            keypair.destroy()
            assert status == 200
            leaf, issuing_ca = CertificationChain.from_pem(body)[:2]
            issuer = next(ca for ca in service.issuers if ca.certificate == issuing_ca)
            assert body == leaf.to_pem() + issuer.chain_to_root().to_pem()

    def test_garbage_is_400(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", b"not pem at all")
        assert excinfo.value.code == 400
        assert excinfo.value.read().startswith(b"malformed-encoding:")

    def test_wrong_kind_is_400(self, stack):
        hierarchy, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/enroll", hierarchy.root.certificate.to_pem())
        assert excinfo.value.code == 400

    def test_missing_binding_is_422(self, stack):
        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization

        _, _, url = stack
        keypair = EphemeralKeyPair.generate()
        bare = (
            x509.CertificateSigningRequestBuilder()
            .subject_name(DistinguishedName.from_common_name("Bare").to_x509())
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
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 1)
        hierarchy = init_hierarchy("Capped Root", fresh_policy())
        service = EnrollmentService([hierarchy.first_issuer()])
        url = service.start()
        address = urllib.parse.urlsplit(url)
        try:
            held = http.client.HTTPConnection(address.hostname, address.port, timeout=5)
            held.request("GET", "/chain")
            assert held.getresponse().read()  # served, and kept open
            reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 503 ")
            assert b"\r\nConnection: close\r\n" in reply
            assert reply.endswith(b"\r\n\r\nservice-busy: too many open connections")
            held.close()
            # The held connection's handler ends on its EOF and frees the slot.
            for _ in range(50):
                reply = raw_exchange(url, b"GET /chain HTTP/1.1\r\nConnection: close\r\n\r\n")
                if not reply.startswith(b"HTTP/1.1 503 "):
                    break
                time.sleep(0.1)
            assert reply.startswith(b"HTTP/1.1 200 ")
        finally:
            service.stop()

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

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_stop_ends_a_serve_forever_loop_in_another_thread(self, shared_issuer):
        """Both ends used to close the server they found on the service, so
        the one that came second raised AttributeError on None."""
        service = EnrollmentService([shared_issuer])
        service.bind()
        loop = threading.Thread(target=service.serve_forever, daemon=True)
        loop.start()
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        loop.join(timeout=5)
        assert not stopper.is_alive() and not loop.is_alive()


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
    def test_two_signs_one_connection_three_requests(self, single_issuer_url, counted):
        counts, _ = counted
        client = HttpEnrollmentClient(single_issuer_url)
        one_shot_sign(b"first", "First", client)
        one_shot_sign(b"second", "Second", client)
        client.close()
        assert counts == {"connect": 1, "request": 3}  # /enroll twice, /crl once

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
        # /enroll, /crl, then /enroll on the closed connection and once more.
        assert counts == {"connect": 2, "request": 4}

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
            assert client.fetch_chain() == shared_issuer.chain_to_root()
            with pytest.raises(EnrollmentUnreachableError):
                client.fetch_chain()
            server.join(5)
        assert not server.is_alive()
        assert counts == {"connect": 2, "request": 3}

    def test_crl_cache_holds_at_most_memo_limit_issuers(self, monkeypatch, counted):
        """A service that names one issuing CA more than the cache holds
        drops the oldest CRL; the client fetches it again when asked."""
        counts, _ = counted
        monkeypatch.setattr(certmodel, "MEMO_LIMIT", 2)
        hierarchy = init_hierarchy("CRL Cache Root", fresh_policy(),
                                   issuers_per_intermediate=3)
        service = EnrollmentService(hierarchy.issuers[0])
        client = HttpEnrollmentClient(service.start())
        try:
            chains = [client.enroll(make_csr(f"Cached {i}")[1]) for i in range(3)]
            assert len({chain.issuing_ca for chain in chains}) == 3
            for chain in chains:
                client.fetch_crl(chain)
            assert len(client._crls) == 2
            assert client.fetch_crl(chains[2]).issuer == chains[2].issuing_ca.subject
            assert client.fetch_crl(chains[0]).issuer == chains[0].issuing_ca.subject
        finally:
            client.close()
            service.stop()
        assert counts["request"] == 3 + 3 + 1  # /enroll x3, /crl x3, chains[0]'s again

    def test_connection_closed_when_its_thread_ends(self, single_issuer_url, monkeypatch):
        """Each thread's connection is closed as the thread ends. The
        collector used to close them, warning once for each socket."""
        client = HttpEnrollmentClient(single_issuer_url)
        chains, unraisable = [], []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            threads = [threading.Thread(target=lambda: chains.append(client.fetch_chain()))
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
            issuers_seen.add(str(bundle.chain.issuing_ca.subject))
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
            assert bundle.chain.issuing_ca.subject == hierarchy.issuers[0][1].name
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


def fetch_chain_once(url, timeout):
    """``fetch_chain`` on a new client, bounded as by :func:`bounded`; the
    client is closed in the thread that used it, which holds its connection."""
    client = HttpEnrollmentClient(url, timeout=timeout)

    def fetch():
        try:
            return client.fetch_chain()
        finally:
            client.close()

    return bounded(fetch)


@contextlib.contextmanager
def scripted_service(answer, wrap=None):
    """A listener that takes one connection, reads the request, and calls
    ``answer(connection, request)``; yields its URL. ``wrap`` turns the
    accepted socket into a TLS one. The thread must end within 10 s."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
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
        yield f"{scheme}://127.0.0.1:{listener.getsockname()[1]}"
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
            outcome = fetch_chain_once(url, timeout=1)
            elapsed = time.monotonic() - started
        assert isinstance(outcome, EnrollmentUnreachableError), outcome
        assert elapsed < 2.5

    @pytest.mark.parametrize("head", [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n",
                                      b"HTTP/1.1 200 OK\r\n"],
                             ids=["content-length", "to-close"])
    def test_body_over_one_mebibyte_is_refused(self, chain_pem, head):
        """A valid chain padded to over 1 MiB; http.client read 3 MiB."""
        with scripted_service(sends(reply_with(chain_pem + b"\n" * (2 << 20), head))) as url:
            outcome = fetch_chain_once(url, timeout=5)
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
            outcome = fetch_chain_once(url, timeout=5)
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
            outcome = fetch_chain_once(url, timeout=5)
        assert outcome == CertificationChain.from_pem(chain_pem)

    def test_rejection_carries_the_service_code(self):
        reply = reply_with(b"issuer-retired: no active issuer in the pool",
                           b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: %d\r\n")
        with scripted_service(sends(reply)) as url:
            outcome = fetch_chain_once(url, timeout=5)
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

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/", "http://", "http://h:99999",
                                     "http://h/a b", "http://h/é"])
    def test_unusable_url_is_config_error(self, url):
        with pytest.raises(ConfigError):
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
            outcome = fetch_chain_once(url, timeout=2)
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
            outcome = fetch_chain_once(url, timeout=5)
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
        forged = decode(serialize_tree((0x30, [info, algorithm, (0x03, b"\x00" + signature)])),
                        SigningRequest)
        status, reply = service.handle_enroll(forged.to_pem())
        assert (status, reply.split(b":")[0]) == (422, b"malformed-encoding"), reply
        client = HttpEnrollmentClient(url)
        with pytest.raises(EnrollmentRejectedError) as excinfo:
            client.enroll(forged)
        client.close()
        assert excinfo.value.ca_code == "malformed-encoding"


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
