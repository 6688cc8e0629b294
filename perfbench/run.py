"""Sign, enroll and verify benchmark for otcpki.

Run from the repository root:

    python3 perfbench/run.py --workload sign-http --seed 1 --seconds 10 --trace 0

Workloads (closed loops: a client sends its next request only after the
previous one completed; see NOTES.md for why each was chosen):

  sign-http         1 thread calls signer.one_shot_sign through
                    HttpEnrollmentClient against an ``otc serve`` process
  enroll-keepalive  2 persistent HTTP/1.1 connections POST pre-built CSRs
                    to /enroll on an ``otc serve`` process
  verify-mixed      1 thread loads .otcb bundles from a pre-built corpus and
                    runs verifier.verify_bundle on them

Every input (documents, subjects, CSRs, the verify corpus and its labels)
comes from ``--seed``. Outputs are checked after the timed window; a failed
operation or a failed check counts as failed. With ``--trace 0`` the result
carries the end-to-end metrics; ``--trace 1`` installs timing wrappers
(tracer.py, serve_traced.py) and carries the per-layer metrics instead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from pathlib import Path

from tracer import DURATION, NAME, PARENT, RAISED, SELF, START, Tracer, client_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Temporary files stay inside the checkout; removed on every exit.
TMP_PARENT = ROOT / ".perfbench_tmp"

SUITE = "ecdsa-p256"
PASSPHRASE = "perfbench"
WARMUP_S = 1.0
SETUP_REPEATS = 5
# Never more client threads than cores. sign-http keeps a single client, so
# that at any moment only the client or the service has work (see pin_run).
HTTP_CLIENTS = min(2, len(os.sched_getaffinity(0)))
SIGN_CLIENTS = 1
SIGN_DOCS = 512             # sign-http documents, 1-64 KiB
KEEPALIVE_CSRS = 4096       # pre-built CSRs; reused in order once exhausted
CORPUS = 1024               # verify-mixed bundles, 1-256 KiB documents
CORPUS_ROOTS = 16           # trusted roots, 2 issuers each
REJECT_SHARE = 0.2          # split evenly over the three reject kinds
REJECT_KINDS = ("binding-mismatch", "untrusted-chain", "bad-signature")
SERVICE_START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30
HTTP_TIMEOUT_S = 10
# Each wake of the sampling thread takes the GIL from the client threads and
# delays the operation in flight. Once a second delays well under 1% of the
# operations, so it stays out of p95; RSS moves slowly enough for this rate.
RSS_SAMPLE_S = 1.0
# The tail is p95, not p99: on the reference VM the host stalls ~2% of
# millisecond operations, so a p99 reads the host's load (see NOTES.md).
TAIL_CHUNK = 200

END_TO_END = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def documents(rng: random.Random, count: int, smallest: int, largest: int) -> list:
    """``count`` seeded documents, each a slice of one shared random buffer,
    so a large corpus costs the buffer's memory and not the sum of sizes."""
    view = memoryview(rng.randbytes(2 * largest))
    docs = []
    for _ in range(count):
        size = rng.randint(smallest, largest)
        offset = rng.randrange(len(view) - size + 1)
        docs.append(view[offset:offset + size])
    return docs


def subjects(rng: random.Random, count: int) -> list:
    return [f"CN=Bench Signer {rng.randrange(10 ** 6):06d},O=perfbench"
            for _ in range(count)]


# ---------------------------------------------------------------------------
# The enrollment service as a child process
# ---------------------------------------------------------------------------

class Service:
    """``otc serve`` on 127.0.0.1:0 over a fresh ``otc pki-init`` hierarchy.

    Untraced it runs ``python -m otcpki serve``; traced it runs
    serve_traced.py, which wraps the same CLI entry point.
    """

    def __init__(self, workdir: Path, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OTC_CA_PASSPHRASE=PASSPHRASE)
        self.process = None
        self.url = ""
        self.root = None
        self.spans: list = []

    def start(self):
        from otcpki.certmodel import load_certificates

        pki = self.workdir / "pki"
        subprocess.run(
            [sys.executable, "-m", "otcpki", "pki-init", "--suite", SUITE,
             "--intermediates", "1", "--issuers-per-intermediate", "2",
             "--out", str(pki)],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        self.root = load_certificates((pki / "root" / "cert.pem").read_bytes())[0]
        config = self.workdir / "serve.conf"
        config.write_text(f"listen = 127.0.0.1:0\nca-dir = {pki}\npool-size = 2\n")
        serve = ["serve", "--config", str(config)]
        if self.trace:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.workdir / "spans.json"), *serve]
        else:
            command = [sys.executable, "-m", "otcpki", *serve]
        self.log = open(self.workdir / "serve.log", "wb")
        self.process = subprocess.Popen(command, env=self.env, stdout=subprocess.PIPE,
                                        stderr=self.log)
        ready, _, _ = select.select([self.process.stdout], [], [], SERVICE_START_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        match = re.search(r"listening on (http://\S+)", line)
        if not match:
            raise RuntimeError(f"service did not start: {line!r}; see {self.log.name}")
        self.url = match.group(1)
        deadline = time.monotonic() + SERVICE_START_TIMEOUT_S
        while True:
            try:  # urlopen returns only on a 2xx answer
                with urllib.request.urlopen(f"{self.url}/chain", timeout=HTTP_TIMEOUT_S) as r:
                    r.read()
                return
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM, then wait; traced services write their spans on the way out."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self.log.close()
        spans = self.workdir / "spans.json"
        if self.trace and spans.exists():
            self.spans = [span and tuple(span) for span in json.loads(spans.read_text())]


def rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmRSS for process {pid}")


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Workloads: each has setup, per-client operations, and an output check
# ---------------------------------------------------------------------------

class SignHttp:
    clients = SIGN_CLIENTS
    uses_service = True

    def __init__(self, seed: int, workdir: Path, service: Service):
        rng = random.Random(seed)
        self.service = service
        self.docs = documents(rng, SIGN_DOCS, 1 << 10, 64 << 10)
        self.subjects = subjects(rng, SIGN_DOCS)

    def operation(self, k: int):
        from otcpki import signer

        client = signer.HttpEnrollmentClient(self.service.url, timeout=HTTP_TIMEOUT_S)

        def sign(i: int):
            j = (i * self.clients + k) % len(self.docs)
            return j, signer.one_shot_sign(self.docs[j], self.subjects[j], client)

        return sign

    def check(self, outputs) -> int:
        """Every bundle passes verify_bundle against the root, for its own
        document."""
        from otcpki import verifier

        policy = verifier.RecencyPolicy(max_age=timedelta(days=1))
        anchors = [self.service.root]
        return sum(
            not verifier.verify_bundle(bundle, self.docs[j], anchors, policy).accepted
            for j, bundle in outputs
        )

    def close(self):
        pass


class EnrollKeepalive:
    clients = HTTP_CLIENTS
    uses_service = True

    def __init__(self, seed: int, workdir: Path, service: Service):
        from otcpki.certmodel import DistinguishedName, build_csr
        from otcpki.crypto import SUITES, EphemeralKeyPair, digest_document

        rng = random.Random(seed)
        self.service = service
        docs = documents(rng, SIGN_DOCS, 1 << 10, 64 << 10)
        names = subjects(rng, KEEPALIVE_CSRS)
        self.csrs = []
        for i, name in enumerate(names):
            keypair = EphemeralKeyPair.generate(SUITES[SUITE])
            self.csrs.append(build_csr(keypair, DistinguishedName.from_string(name),
                                       digest_document(docs[i % len(docs)])))
            keypair.destroy()
        self.pems = [csr.to_pem() for csr in self.csrs]
        self.connections = []

    def operation(self, k: int):
        url = urllib.parse.urlsplit(self.service.url)
        connection = http.client.HTTPConnection(url.hostname, url.port,
                                                timeout=HTTP_TIMEOUT_S)
        self.connections.append(connection)
        headers = {"Content-Type": "application/x-pem-file"}

        def enroll(i: int):
            j = (i * self.clients + k) % len(self.pems)
            try:
                connection.request("POST", "/enroll", self.pems[j], headers)
                response = connection.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                connection.close()  # the next request reconnects
                raise
            if response.status != 200:
                raise RuntimeError(f"/enroll answered {response.status}: {body[:200]!r}")
            return j, body

        return enroll

    def check(self, outputs) -> int:
        """Every returned chain names the CSR's key, binds the CSR's digest
        and chains to the root."""
        from cryptography.hazmat.primitives import serialization

        from otcpki.certmodel import CertificationChain
        from otcpki.errors import OtcError

        spki = (serialization.Encoding.DER,
                serialization.PublicFormat.SubjectPublicKeyInfo)
        verified_ca_chains = {}  # the pool has two CA chains; check each once
        failures = 0
        for j, body in outputs:
            csr = self.csrs[j]
            try:
                chain = CertificationChain.from_pem(body)
            except OtcError:
                failures += 1
                continue
            leaf, ca_chain = chain.leaf, CertificationChain(chain.certificates[1:])
            key = tuple(cert.to_der() for cert in ca_chain)
            if key not in verified_ca_chains:
                verified_ca_chains[key] = (ca_chain.root == self.service.root
                                           and ca_chain.links_verify())
            binding = leaf.binding
            ok = (leaf.public_key.public_bytes(*spki) == csr.public_key.public_bytes(*spki)
                  and binding is not None and binding.digest == csr.binding.digest
                  and leaf.verify_signed_by(ca_chain.leaf)
                  and verified_ca_chains[key])
            failures += not ok
        return failures

    def close(self):
        for connection in self.connections:
            connection.close()


class VerifyMixed:
    clients = 1
    uses_service = False

    def __init__(self, seed: int, workdir: Path, service=None):
        from otcpki import ca, signer, verifier

        rng = random.Random(seed)
        policy = ca.CaPolicy(chain_not_after=datetime.now(timezone.utc) + timedelta(days=30))
        trusted = [ca.init_hierarchy(f"Bench Root {r:02d}", policy, 1, 2)
                   for r in range(CORPUS_ROOTS)]
        stranger = ca.init_hierarchy("Bench Untrusted Root", policy, 1, 2)
        issuers = [signer.LocalEnrollmentClient(issuer)
                   for hierarchy in trusted for issuer in hierarchy.issuers[0]]
        untrusted = [signer.LocalEnrollmentClient(issuer) for issuer in stranger.issuers[0]]
        self.anchors = [hierarchy.root.certificate for hierarchy in trusted]
        self.policy = verifier.RecencyPolicy(max_age=timedelta(days=1))
        docs = documents(rng, CORPUS, 1 << 10, 256 << 10)
        names = subjects(rng, CORPUS)
        corpus = workdir / "corpus"
        corpus.mkdir(parents=True)
        self.entries = []  # (bundle path, document presented, (accepted, codes))
        previous_signature = None
        for i in range(CORPUS):
            kind = "accepted"
            if i and rng.random() < REJECT_SHARE:
                kind = rng.choice(REJECT_KINDS)
            if kind == "untrusted-chain":
                client = rng.choice(untrusted)
            else:
                client = issuers[i % len(issuers)]
            bundle = signer.one_shot_sign(docs[i], names[i], client)
            if kind == "bad-signature":
                bundle = dataclasses.replace(bundle, signature=previous_signature)
            previous_signature = bundle.signature
            path = corpus / f"{i:04d}.otcb"
            bundle.save(path)
            presented = docs[i][:-1] if kind == "binding-mismatch" else docs[i]
            label = (True, ()) if kind == "accepted" else (False, (kind,))
            self.entries.append((path, presented, label))
        self.order = list(range(CORPUS))
        rng.shuffle(self.order)

    def corrupt_labels(self, count: int):
        """Flip the labels of the first ``count`` bundles visited, to show
        that the output check catches a wrong verdict."""
        for j in self.order[:count]:
            path, presented, (accepted, codes) = self.entries[j]
            self.entries[j] = (path, presented, (not accepted, codes))

    def operation(self, k: int):
        from otcpki import signer, verifier

        def verify(i: int):
            j = self.order[(i * self.clients + k) % len(self.order)]
            path, presented, _ = self.entries[j]
            bundle = signer.SignedDocumentBundle.load(path)
            report = verifier.verify_bundle(bundle, presented, self.anchors, self.policy)
            return j, (report.accepted, report.failure_codes)

        return verify

    def check(self, outputs) -> int:
        """Every verdict and failure-code tuple equals its label."""
        return sum(verdict != self.entries[j][2] for j, verdict in outputs)

    def close(self):
        pass


WORKLOADS = {
    "sign-http": SignHttp,
    "enroll-keepalive": EnrollKeepalive,
    "verify-mixed": VerifyMixed,
}


# ---------------------------------------------------------------------------
# The timed window
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Window:
    warm: float             # load starts
    start: float            # timed window
    end: float
    log: list               # (start, end, ok, output) for every operation
    cpu_s: float            # load process plus service, over the window
    load_cpu_s: float       # the load process's part of it
    peak_rss_mb: float

    def timed(self) -> list:
        return [entry for entry in self.log if self.start <= entry[1] < self.end]


def closed_loop(workload, seconds: float, service, tracer) -> Window:
    """Run every client until ``seconds`` after the warm-up. The CPU of
    this process and of ``service`` (if any) is charged to the run, and the
    RSS of the service, or else of this process, is sampled. With a
    tracer, each operation is also a ``client.op`` span."""
    rss_pid = service.process.pid if service is not None else os.getpid()

    def cpu_now():
        return own_cpu_s(), service.cpu_s() if service is not None else 0.0

    operations = [workload.operation(k) for k in range(workload.clients)]
    if tracer:
        operations = [tracer.wrap("client.op", operation) for operation in operations]
    logs = [[] for _ in operations]
    stop = threading.Event()

    def client(k: int):
        operation, log = operations[k], logs[k]
        while not stop.is_set():
            started = time.monotonic()
            try:
                output, ok = operation(len(log)), True
            except Exception as exc:  # a failed operation is counted, never fatal
                output, ok = repr(exc), False
            log.append((started, time.monotonic(), ok, output))

    threads = [threading.Thread(target=client, args=(k,), name=f"client-{k}")
               for k in range(len(operations))]
    warm = time.monotonic()
    for thread in threads:
        thread.start()
    try:
        time.sleep(WARMUP_S)
        start, cpu_start = time.monotonic(), cpu_now()
        end = start + seconds
        peak = 0.0
        while (now := time.monotonic()) < end:
            peak = max(peak, rss_mb(rss_pid))
            time.sleep(min(RSS_SAMPLE_S, end - now))
        end, cpu_end = time.monotonic(), cpu_now()
        load_cpu_s, service_cpu_s = (b - a for a, b in zip(cpu_start, cpu_end))
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    log = sorted((entry for entries in logs for entry in entries), key=lambda entry: entry[0])
    return Window(warm, start, end, log, load_cpu_s + service_cpu_s, load_cpu_s, peak)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def p95(latencies: list) -> float:
    """Median of the p95s of consecutive chunks of at least TAIL_CHUNK
    samples, so each chunk has ten samples beyond its p95 and a burst of
    machine noise moves a few chunks, not the result. With fewer than two
    chunks' worth, the plain p95 of all samples."""
    if len(latencies) < 2:
        return latencies[0]
    count = max(1, len(latencies) // TAIL_CHUNK)
    size = len(latencies) // count
    chunks = [latencies[i * size:(i + 1) * size if i < count - 1 else None]
              for i in range(count)]
    return statistics.median(statistics.quantiles(chunk, n=100, method="inclusive")[94]
                             for chunk in chunks)


def end_to_end(window: Window, setup_times: list) -> dict:
    timed = window.timed()
    if not timed:
        raise RuntimeError("no operation completed inside the timed window")
    latencies = [(end - start) * 1000 for start, end, _, _ in timed]
    return {
        "ops_per_s": len(timed) / (window.end - window.start),
        "lat_p50_ms": statistics.median(latencies),
        "lat_p95_ms": p95(latencies),
        "cpu_ms_per_op": window.cpu_s * 1000 / len(timed),
        "peak_rss_mb": window.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


PER_LAYER_UNITS = {
    "crypto.keygen_ms": "ms",
    "crypto.sign_digest_ms": "ms",
    "certmodel.build_csr_ms": "ms",
    "signer.enroll_rtt_ms": "ms",
    "signer.fetch_crl_rtt_ms": "ms",
    "signer.requests_per_sign": "count/op",
    "signer.one_shot_sign_self_ms": "ms",
    "service.handle_enroll_ms": "ms",
    "service.handle_crl_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.connections_per_op": "count/op",
    "ca.issue_otc_ms": "ms",
    "ca.issue_otc_fail_ratio": "ratio",
    "certmodel.decode_ms": "ms",
    "certmodel.csr_pop_ms": "ms",
    "verifier.verify_bundle_ms": "ms",
    "verifier.verify_bundle_self_ms": "ms",
    "verifier.pubkey_ops_per_verify": "count/op",
    "certmodel.verify_signed_by_ms": "ms",
    "certmodel.crl_is_signed_by_ms": "ms",
    "crypto.verify_signature_ms": "ms",
    "crypto.digest_ms": "ms",
    "signer.bundle_load_ms": "ms",
    "fail_ratio": "ratio",
    "traced_ops_per_s": "1/s",
}


def root_starts(spans: list) -> list:
    """For each span, the start of the outermost span it runs under (None
    for a span not finished, or under one not finished)."""
    starts = []
    for span in spans:
        if span is None:
            starts.append(None)
        else:
            starts.append(span[START] if span[PARENT] < 0 else starts[span[PARENT]])
    return starts


def per_layer(window: Window, span_lists: list, attempted: int, failed: int) -> dict:
    """Layer metrics from the spans of operations that started inside the
    timed window, so per-operation counts are exact. A layer that does not
    run on the workload reads 0."""
    spans_by_name = defaultdict(list)
    connections = 0
    for spans in span_lists:
        for span, root_start in zip(spans, root_starts(spans)):
            if root_start is None:
                continue
            if window.start <= root_start < window.end:
                spans_by_name[span[NAME]].append(span)
            if span[NAME] == "service.connection" and window.warm <= root_start < window.end:
                connections += 1

    def ms(name: str, field: int = DURATION) -> float:
        values = [span[field] for span in spans_by_name[name]]
        return statistics.median(values) * 1000 if values else 0.0

    def per(names, denominator: str) -> float:
        count = len(spans_by_name[denominator])
        return sum(len(spans_by_name[name]) for name in names) / count if count else 0.0

    issued = spans_by_name["ca.issue_otc"]
    # The client's view of one enrollment: HttpEnrollmentClient.enroll on
    # sign-http, the whole keep-alive POST on enroll-keepalive.
    enroll_rtt = ms("signer.enroll_rtt") or ms("client.op")
    handle_enroll = ms("service.handle_enroll")
    ops_since_warm = sum(window.warm <= entry[1] < window.end for entry in window.log)
    timed = len(window.timed())
    return {
        "crypto.keygen_ms": ms("crypto.keygen"),
        "crypto.sign_digest_ms": ms("crypto.sign_digest"),
        "certmodel.build_csr_ms": ms("certmodel.build_csr"),
        "signer.enroll_rtt_ms": ms("signer.enroll_rtt"),
        "signer.fetch_crl_rtt_ms": ms("signer.fetch_crl_rtt"),
        "signer.requests_per_sign": per(["http.request"], "signer.one_shot_sign"),
        "signer.one_shot_sign_self_ms": ms("signer.one_shot_sign", SELF),
        "service.handle_enroll_ms": handle_enroll,
        "service.handle_crl_ms": ms("service.handle_crl"),
        "service.http_overhead_ms": enroll_rtt - handle_enroll if handle_enroll else 0.0,
        "service.connections_per_op": connections / ops_since_warm
        if spans_by_name["service.handle_enroll"] else 0.0,
        "ca.issue_otc_ms": ms("ca.issue_otc"),
        "ca.issue_otc_fail_ratio": sum(span[RAISED] for span in issued) / len(issued)
        if issued else 0.0,
        "certmodel.decode_ms": ms("certmodel.decode"),
        "certmodel.csr_pop_ms": ms("certmodel.csr_pop"),
        "verifier.verify_bundle_ms": ms("verifier.verify_bundle"),
        "verifier.verify_bundle_self_ms": ms("verifier.verify_bundle", SELF),
        "verifier.pubkey_ops_per_verify": per(
            ["certmodel.verify_signed_by", "certmodel.crl_is_signed_by",
             "crypto.verify_signature"], "verifier.verify_bundle"),
        "certmodel.verify_signed_by_ms": ms("certmodel.verify_signed_by"),
        "certmodel.crl_is_signed_by_ms": ms("certmodel.crl_is_signed_by"),
        "crypto.verify_signature_ms": ms("crypto.verify_signature"),
        "crypto.digest_ms": ms("crypto.digest"),
        "signer.bundle_load_ms": ms("signer.bundle_load"),
        "fail_ratio": failed / attempted,
        "traced_ops_per_s": timed / (window.end - window.start),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    import cryptography

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "suite": SUITE,
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-labels", type=int, default=0, metavar="N",
                        help="verify-mixed only: flip N labels so the output"
                             " check must fail (used by smoke.py)")
    args = parser.parse_args(argv)
    if args.corrupt_labels and args.workload != "verify-mixed":
        parser.error("--corrupt-labels applies to verify-mixed only")
    return args


def pin_run() -> int:
    """Keep this process, and the children it starts, on one core: the
    highest-numbered one it may use.

    In a closed loop the client and the service take turns: each waits for
    the other's answer. On one core a hand-over is a context switch. Across
    two cores it wakes an idle virtual CPU, and how long that takes is up to
    the host. On a 2-vCPU VM, sign-http ran at 146-225 signs/s with a p99 of
    11-21 ms across cores, and at 244-288 signs/s with a p99 of 5-6 ms on one.
    On the same VM core 0 ran a fixed loop 12% slower than core 1, and in a
    tenth of half-second slices at under 40% of its median speed; core 1
    never dropped below 78%.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otcpki" / "__init__.py").is_file():
        print(f"perfbench: no otcpki sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT))
    kind = WORKLOADS[args.workload]
    service = workload = None
    env = environment(args)
    env["pinned_cpu"] = pin_run()
    print("perfbench env", json.dumps(env), flush=True)
    try:
        setup_times = []
        for n in range(SETUP_REPEATS):
            if service is not None:
                service.stop()
            started = time.monotonic()
            workdir = tmp / f"setup-{n}"
            workdir.mkdir()
            if kind.uses_service:
                service = Service(workdir, bool(args.trace))
                service.start()
            workload = kind(args.seed, workdir, service)
            setup_times.append(time.monotonic() - started)
        if args.corrupt_labels:
            workload.corrupt_labels(args.corrupt_labels)

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(client_targets())
        window = closed_loop(workload, args.seconds, service, tracer)
        workload.close()
        if service is not None:
            service.stop()

        outputs = [entry[3] for entry in window.log if entry[2]]
        failed = sum(not entry[2] for entry in window.log) + workload.check(outputs)
        attempted = len(window.log)
        if tracer:
            span_lists = [tracer.spans] + ([service.spans] if service is not None else [])
            values = per_layer(window, span_lists, attempted, failed)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(window, setup_times)
            units = END_TO_END
        print("perfbench detail", json.dumps({
            "lat_samples": len(window.timed()),
            "setup_s_each": setup_times,
            "window_s": window.end - window.start,
            "load_cpu_s": window.load_cpu_s,
            "cpu_s": window.cpu_s,
        }), flush=True)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }), flush=True)
        return 0
    finally:
        if workload is not None:
            workload.close()
        if service is not None:
            service.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
