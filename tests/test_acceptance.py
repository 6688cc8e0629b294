"""Acceptance gate: the nine behaviors that define whether this package
does its job. Each test prints exactly one [criterion N] PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from otcpki.analysis import CostModel, deployment_cost, run_local_bench
from otcpki.ca import (
    CaPolicy,
    CaRole,
    PASSPHRASE_ENV,
    create_subordinate,
    init_hierarchy,
)
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    CertificationChain,
    DistinguishedName,
    build_csr,
)
from otcpki.crypto import (
    SUITES,
    DigestAlgorithm,
    EphemeralKeyPair,
    digest_document,
)
from otcpki.errors import (
    EnrollmentRejectedError,
    EnrollmentUnreachableError,
    KeyDestroyedError,
)
from otcpki.service import EnrollmentService
from otcpki.signer import (
    HttpEnrollmentClient,
    LocalEnrollmentClient,
    one_shot_sign,
    resign_with_existing_key,
)
from otcpki.verifier import RecencyPolicy, verify_bundle

from forge import (
    break_certificate_signature,
    forge_leaf,
    forge_nonblank_crl,
    with_chain,
    with_crl,
)

DOC = b"acceptance corpus: the quick brown fox signs exactly one document\n"
POLICY = RecencyPolicy(max_age=timedelta(hours=1))

# The reference series totals and overheads, frozen independently before the
# table code existed. Zero tolerance.
REFERENCE_ROWS = {
    "RSA-1024": ("0.17", 1600),
    "RSA-2240": ("7.62", 4980),
    "RSA-3072": ("10.01", 4667),
    "RSA-7680": ("135.43", 8752),
    "RSA-15360": ("688.26", 7381),
    "ECDSA-163": ("0.23", 53),
    "ECDSA-233": ("0.52", 53),
    "ECDSA-283": ("0.86", 46),
    "ECDSA-409": ("1.82", 54),
    "ECDSA-571": ("4.51", 47),
}

ROW_RE = re.compile(r"^(\S+)\s+\S+\s+\S+\s+(\S+)\s+(\d+)%$", re.MULTILINE)


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def stack():
    """One hierarchy, a live two-issuer enrollment service, and honest
    bundles to mutate."""
    policy = CaPolicy(
        chain_not_after=datetime.now(timezone.utc) + timedelta(days=365),
        suite=SUITES["ecdsa-p256"],
    )
    hierarchy = init_hierarchy(
        "Acceptance Root", policy, intermediates=1, issuers_per_intermediate=2
    )
    issuer = hierarchy.first_issuer()
    client = LocalEnrollmentClient(issuer)
    service = EnrollmentService(hierarchy.issuers[0], host="127.0.0.1", port=0)
    url = service.bind()
    service.start()
    bundle, keypair = one_shot_sign(
        DOC, "Acceptance Signer", client, keep_key=True
    )
    second = one_shot_sign(DOC, "Second Signer", client)
    yield SimpleNamespace(
        hierarchy=hierarchy,
        issuer=issuer,
        client=client,
        service=service,
        url=url,
        anchors=(hierarchy.root.certificate,),
        bundle=bundle,
        keypair=keypair,
        second=second,
    )
    service.stop()


def test_1_reference_overhead_tables_exact():
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "otcpki", "bench", "--paper"],
        capture_output=True, text=True, timeout=30,
    )
    elapsed = time.perf_counter() - begin
    rows = {m.group(1): (m.group(2), int(m.group(3)))
            for m in ROW_RE.finditer(proc.stdout)}
    exact = sum(rows.get(label) == expected
                for label, expected in REFERENCE_ROWS.items())
    ok = proc.returncode == 0 and exact == 10 and elapsed < 1.0
    _verdict(1, "reference overhead tables exact",
             ok, f"{exact}/10 rows exact, {elapsed:.2f}s wall")


def test_2_cost_model_hundred_million_users():
    comparison = deployment_cost(
        CostModel(shared_cost=0, per_user_cost=1, user_count=100_000_000)
    )
    ok = (comparison.traditional_total == 100_000_000
          and comparison.otc_total == 0)
    _verdict(2, "per-user cost model at n=10^8", ok,
             f"traditional={comparison.traditional_total:,.0f}"
             f" otc={comparison.otc_total:,.0f}")


def test_3_cli_roundtrip_under_five_seconds(tmp_path):
    env = dict(os.environ, **{PASSPHRASE_ENV: "acceptance-pass"})
    doc = tmp_path / "doc.txt"
    doc.write_bytes(DOC)
    bundle = tmp_path / "doc.otcb"
    config = tmp_path / "service.conf"
    serve = None
    begin = time.perf_counter()
    try:
        init = subprocess.run(
            [sys.executable, "-m", "otcpki", "pki-init", "--lifetime", "30d",
             "--suite", "ecdsa-p256", "--out", str(tmp_path / "pki")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert init.returncode == 0, init.stderr
        config.write_text(
            f"listen = 127.0.0.1:0\nca-dir = {tmp_path / 'pki'}\npool-size = 1\n"
        )
        serve = subprocess.Popen(
            [sys.executable, "-m", "otcpki", "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        banner = serve.stdout.readline()
        url = re.search(r"listening on (http://\S+)", banner).group(1)
        sign = subprocess.run(
            [sys.executable, "-m", "otcpki", "sign", "--doc", str(doc),
             "--subject", "Roundtrip Signer", "--enroll", url,
             "--out", str(bundle)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert sign.returncode == 0, sign.stderr
        verify = subprocess.run(
            [sys.executable, "-m", "otcpki", "verify", "--doc", str(doc),
             "--bundle", str(bundle),
             "--trust", str(tmp_path / "pki" / "root" / "cert.pem"),
             "--max-age", "24h"],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - begin
    finally:
        if serve is not None:
            serve.send_signal(signal.SIGTERM)
            serve.wait(timeout=10)
            serve.stdout.close()
    accepted = (verify.returncode == 0
                and verify.stdout.startswith("verdict: accepted"))
    ok = accepted and elapsed < 5.0
    _verdict(3, "pki-init/serve/sign/verify roundtrip", ok,
             f"accepted={accepted}, {elapsed:.2f}s wall")


def test_4_mutation_suite_seven_distinct_rejections(stack):
    bundle, issuer = stack.bundle, stack.issuer

    # A leaf with no digest binding at all, for the stripped-extension case.
    bare_key = EphemeralKeyPair.generate()
    bare_csr = build_csr(bare_key, DistinguishedName.from_common_name("Bare"),
                         digest_document(DOC))
    bare_leaf = forge_leaf(issuer, bare_csr, include_binding=False)
    bare_bundle = replace(
        bundle,
        signature=bare_key.sign_digest(digest_document(DOC)),
        chain=CertificationChain((bare_leaf, *issuer.chain_to_root())),
    )
    bare_key.destroy()

    # A compromised kept key signing a different document under its old
    # certificate, with no new enrollment.
    other_doc = DOC + b"but now it says something else\n"
    other_digest = digest_document(other_doc)
    reused = replace(
        bundle,
        document_digest=other_digest,
        signature=stack.keypair.sign_digest(other_digest),
    )

    broken_chain = CertificationChain((
        bundle.chain.certificates[0],
        break_certificate_signature(bundle.chain.certificates[1]),
        *bundle.chain.certificates[2:],
    ))

    stale_at = (bundle.chain.leaf.not_before + POLICY.max_age
                + POLICY.clock_skew_allowance + timedelta(minutes=1))

    mutations = [
        ("flip one document byte",
         bundle, DOC[:-2] + bytes([DOC[-2] ^ 0x01]) + DOC[-1:], None,
         "binding-mismatch"),
        ("strip the digest-binding extension",
         bare_bundle, DOC, None, "missing-binding"),
        ("swap leaf for another one-time certificate",
         with_chain(bundle, CertificationChain(
             (stack.second.chain.certificates[0], *bundle.chain.certificates[1:])
         )), DOC, None, "bad-signature"),
        ("reuse a kept key without re-enrollment",
         reused, other_doc, None, "binding-mismatch"),
        ("present a bundle older than max-age",
         bundle, DOC, stale_at, "stale"),
        ("replace the CRL with a non-empty one",
         with_crl(bundle, forge_nonblank_crl(issuer, 12345)), DOC, None,
         "bad-crl"),
        ("break a chain signature",
         with_chain(bundle, broken_chain), DOC, None, "untrusted-chain"),
    ]

    outcomes = []
    for name, mutated, document, at_time, expected in mutations:
        report = verify_bundle(mutated, document, stack.anchors, POLICY, at_time)
        hit = not report.accepted and set(report.failure_codes) == {expected}
        outcomes.append((name, expected, hit, report.failure_codes))
    rejected = sum(hit for _, _, hit, _ in outcomes)
    detail = f"{rejected}/7 rejected with their expected codes"
    misses = [f"{name}: wanted {expected}, got {codes}"
              for name, expected, hit, codes in outcomes if not hit]
    if misses:
        detail += "; " + "; ".join(misses)
    _verdict(4, "mutation suite", rejected == 7, detail)


def test_5_uniform_validity_over_random_hierarchies():
    rng = Random(0x20260814)
    uniform = 0
    trials = 100
    for _ in range(trials):
        policy = CaPolicy(
            chain_not_after=(datetime.now(timezone.utc)
                             + timedelta(days=rng.randint(30, 3650))),
            suite=SUITES["ecdsa-p256"],
        )
        hierarchy = init_hierarchy(
            "Shape Root", policy,
            intermediates=rng.randint(1, 3),
            issuers_per_intermediate=rng.randint(1, 5),
        )
        chains_ok = True
        for pool in hierarchy.issuers:
            for issuer in pool:
                keypair = EphemeralKeyPair.generate()
                leaf = issuer.issue_otc(build_csr(
                    keypair, DistinguishedName.from_common_name("Leaf"),
                    digest_document(DOC),
                ))
                keypair.destroy()
                chain = CertificationChain((leaf, *issuer.chain_to_root()))
                chains_ok = chains_ok and chain.has_uniform_not_after()
        expiries = {ca.not_after for ca in hierarchy.all_cas()}
        if chains_ok and len(expiries) == 1:
            uniform += 1
    _verdict(5, "uniform validity across random hierarchies",
             uniform == trials, f"{uniform}/{trials} hierarchies uniform")


def test_6_serial_uniqueness_under_concurrency(stack):
    client = HttpEnrollmentClient(stack.url)
    total, workers = 1000, 8

    def enroll(i):
        return one_shot_sign(DOC, f"Concurrent Client {i:04d}", client)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        bundles = list(pool.map(enroll, range(total)))
    serials = {bundle.chain.leaf.serial for bundle in bundles}
    verified = sum(
        verify_bundle(b, DOC, stack.anchors, POLICY).accepted for b in bundles
    )
    ok = len(serials) == total and verified == total
    _verdict(6, "serial uniqueness under concurrent enrollment", ok,
             f"{len(serials)}/{total} distinct serials across {workers}"
             f" clients, {verified}/{total} bundles verified")


def test_7_key_lifecycle_and_leak_scan(stack, key_ledger):
    doomed = create_subordinate(
        stack.hierarchy.intermediates[0], "Doomed Issuer", CaRole.ISSUER
    )
    doomed.retire()
    baseline = len(key_ledger.keypairs)

    class Unreachable:
        def enroll(self, csr):
            raise EnrollmentUnreachableError("nobody home")

        def fetch_crl(self, chain):
            raise EnrollmentUnreachableError("nobody home")

    class CrlFails:
        def enroll(self, csr):
            return stack.client.enroll(csr)

        def fetch_crl(self, chain):
            raise EnrollmentUnreachableError("crl endpoint down")

    class RogueChain:
        def enroll(self, csr):
            return stack.bundle.chain  # somebody else's certificate

        def fetch_crl(self, chain):
            return stack.client.fetch_crl(chain)

    problems = []

    bundle = one_shot_sign(DOC, "Lifecycle Signer", LocalEnrollmentClient(stack.issuer))
    if not verify_bundle(bundle, DOC, stack.anchors, POLICY).accepted:
        problems.append("honest bundle not accepted")
    used_key = key_ledger.keypairs[baseline]
    for attempt in (
        lambda: used_key.sign_digest(bundle.document_digest),
        lambda: used_key.export_private_pem(b"pw"),
        lambda: resign_with_existing_key(
            used_key, DOC, "Again", LocalEnrollmentClient(stack.issuer)),
    ):
        try:
            attempt()
            problems.append("a second use of the destroyed key succeeded")
        except KeyDestroyedError:
            pass

    error_paths = [
        ("rejected enrollment", EnrollmentRejectedError,
         LocalEnrollmentClient(doomed)),
        ("unreachable service", EnrollmentUnreachableError, Unreachable()),
        ("crl fetch failure", EnrollmentUnreachableError, CrlFails()),
        ("rogue chain", EnrollmentRejectedError, RogueChain()),
    ]
    for name, exc_type, client in error_paths:
        with pytest.raises(exc_type):
            one_shot_sign(DOC, "Doomed Signer", client)
        leaked = [kp for kp in key_ledger.keypairs[baseline:] if kp.is_live]
        if leaked:
            problems.append(f"{name} leaked {len(leaked)} live key(s)")

    generated = len(key_ledger.keypairs) - baseline
    _verdict(7, "key lifecycle and leak scan", not problems,
             f"{generated} keys generated, 0 live after 1 success +"
             f" {len(error_paths)} error paths" if not problems
             else "; ".join(problems))


def test_8_openssl_interop(stack, tmp_path):
    openssl = shutil.which("openssl")
    assert openssl, "openssl binary is required for the interop criterion"
    certs = stack.bundle.chain.certificates
    leaf = tmp_path / "leaf.pem"
    leaf.write_bytes(certs[0].to_pem())
    untrusted = tmp_path / "untrusted.pem"
    untrusted.write_bytes(b"".join(c.to_pem() for c in certs[1:-1]))
    root = tmp_path / "root.pem"
    root.write_bytes(certs[-1].to_pem())
    crl = tmp_path / "crl.pem"
    crl.write_bytes(stack.bundle.crl.to_pem())

    def run(*args):
        return subprocess.run([openssl, *args], capture_output=True,
                              text=True, timeout=30)

    parse = run("x509", "-in", str(leaf), "-noout", "-text")
    chain_ok = run("verify", "-CAfile", str(root),
                   "-untrusted", str(untrusted), str(leaf))
    crl_text = run("crl", "-in", str(crl), "-noout", "-text")
    crl_check = run("verify", "-crl_check", "-CRLfile", str(crl),
                    "-CAfile", str(root), "-untrusted", str(untrusted),
                    str(leaf))
    checks = {
        "leaf parses": (parse.returncode == 0
                        and OTC_EXTENSION_OID.dotted_string in parse.stdout),
        "chain validates": (chain_ok.returncode == 0
                            and ": OK" in chain_ok.stdout),
        "blank crl": (crl_text.returncode == 0
                      and "No Revoked Certificates" in crl_text.stdout),
        "crl-checked validation": (crl_check.returncode == 0
                                   and ": OK" in crl_check.stdout),
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(8, "independent x509 toolchain interop", not failed,
             f"{len(checks) - len(failed)}/{len(checks)} openssl checks"
             + (f"; failed: {', '.join(failed)}" if failed else " passed"))


def test_9_local_overhead_ordering():
    rsa, ecdsa = run_local_bench(
        [SUITES["rsa-3072"], SUITES["ecdsa-p256"]], iterations=3
    )
    ok = rsa.overhead_pct > 100 > ecdsa.overhead_pct
    _verdict(9, "measured overhead ordering", ok,
             f"rsa-3072 {rsa.overhead_pct}% > 100% > ecdsa-p256"
             f" {ecdsa.overhead_pct}%")
