"""Enrollment service: endpoint behavior over real HTTP, request framing,
keep-alive connections, pool rotation, retirement handling, and config
parsing."""

import http.client
import select
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from datetime import timedelta

import pytest

from otcpki.ca import init_hierarchy
from otcpki.certmodel import (
    CertificationChain,
    DistinguishedName,
    build_csr,
)
from otcpki.crypto import EphemeralKeyPair, digest_document
from otcpki.errors import ConfigError, EnrollmentRejectedError, EnrollmentUnreachableError
from otcpki import service as service_module
from otcpki.service import EnrollmentService, ServiceConfig
from otcpki.signer import HttpEnrollmentClient, one_shot_sign
from otcpki.verifier import RecencyPolicy, verify_bundle

from conftest import fresh_policy

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
    """Count HTTPConnection connects and requests; keep each connected socket."""
    counts = {"connect": 0, "request": 0}
    sockets = []
    connect = http.client.HTTPConnection.connect
    request = http.client.HTTPConnection.request

    def counting_connect(self):
        counts["connect"] += 1
        connect(self)
        sockets.append(self.sock)

    def counting_request(self, *args, **kwargs):
        counts["request"] += 1
        return request(self, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    monkeypatch.setattr(http.client.HTTPConnection, "request", counting_request)
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
    request = urllib.request.Request(url + path, data=body,
                                     method="POST" if body else "GET")
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, response.read()


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

    def test_unknown_path_is_404(self, stack):
        _, _, url = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(url, "/nope")
        assert excinfo.value.code == 404


class TestRequestFraming:
    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"+12", b"1_0"])
    def test_invalid_content_length_is_400(self, stack, capfd, declared):
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

    def test_idle_connection_is_closed(self, short_timeout_stack):
        _, url = short_timeout_stack
        assert raw_exchange(url, b"") == b""

    def test_short_body_times_out_quietly(self, short_timeout_stack, capfd):
        _, url = short_timeout_stack
        reply = raw_exchange(url, b"POST /enroll HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                                  b"-----BEGIN")
        assert reply == b""
        assert "Traceback" not in capfd.readouterr().err


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


class TestHttpClientErrors:
    def test_unreachable_endpoint(self):
        client = HttpEnrollmentClient("http://127.0.0.1:9", timeout=0.5)
        keypair, csr = make_csr()
        keypair.destroy()
        with pytest.raises(EnrollmentUnreachableError):
            client.enroll(csr)


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
