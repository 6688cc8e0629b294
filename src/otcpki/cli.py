"""Command-line surface.

Commands are thin adapters over the library: parse arguments, do file I/O,
call one API, print. Exit codes are scripting contract: 0 success (for
``verify``: accepted), 1 operational failure (enrollment refused, bundle
rejected), 2 unusable arguments or malformed input.

Heavyweight imports happen inside command handlers so that startup stays
snappy for the cheap commands.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main", "parse_duration", "parse_timestamp"]

KEY_PASSPHRASE_ENV = "OTC_KEY_PASSPHRASE"

_DURATION_RE = re.compile(r"^(\d+)\s*([smhd])$")
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_duration(text: str) -> timedelta:
    """Parse ``30s``, ``15m``, ``24h``, or ``7d``."""
    match = _DURATION_RE.match(text.strip())
    if not match:
        raise ValueError(f"bad duration {text!r} (use 30s, 15m, 24h or 7d)")
    return timedelta(seconds=int(match.group(1)) * _DURATION_UNITS[match.group(2)])


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; a trailing Z or no zone means UTC."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        moment = datetime.fromisoformat(cleaned)
    except ValueError:
        raise ValueError(f"bad timestamp {text!r} (use ISO-8601, e.g."
                         " 2030-01-01T00:00:00Z)") from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_pki_init(args: argparse.Namespace) -> int:
    from .ca import CaPolicy, init_hierarchy, passphrase_from_env, save_ca
    from .crypto import AlgorithmSuite
    from .errors import OtcError

    try:
        suite = AlgorithmSuite.from_label(args.suite)
        if args.not_after:
            not_after = parse_timestamp(args.not_after)
        else:
            not_after = datetime.now(timezone.utc) + parse_duration(args.lifetime)
        passphrase = passphrase_from_env()
        policy = CaPolicy(chain_not_after=not_after, suite=suite)
        policy.check_usable()
        if args.intermediates < 1 or args.issuers_per_intermediate < 1:
            raise ValueError("need at least one intermediate and one issuer")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        hierarchy = init_hierarchy(
            args.root_name, policy,
            intermediates=args.intermediates,
            issuers_per_intermediate=args.issuers_per_intermediate,
        )
        rows = [(hierarchy.root, out / "root")]
        for i, intermediate in enumerate(hierarchy.intermediates, 1):
            int_dir = out / f"int-{i:02d}"
            rows.append((intermediate, int_dir))
            for j, issuer in enumerate(hierarchy.issuers[i - 1], 1):
                rows.append((issuer, int_dir / f"iss-{j:02d}"))
        for ca, directory in rows:
            save_ca(ca, directory, passphrase)
    except (OtcError, ValueError, OSError) as exc:
        return _fail(str(exc))
    for ca, directory in rows:
        expiry = ca.not_after.strftime("%Y-%m-%dT%H:%M:%SZ")
        print(f"{ca.role.value:<13} {ca.name.common_name:<40} expires {expiry}  [{directory}]")
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    from .errors import (
        EnrollmentRejectedError,
        EnrollmentUnreachableError,
        OtcError,
    )
    from .crypto import AlgorithmSuite
    from .signer import HttpEnrollmentClient, one_shot_sign

    doc_path = Path(args.doc)
    if not doc_path.is_file():
        return _fail(f"document {doc_path} does not exist")
    try:
        suite = AlgorithmSuite.from_label(args.suite)
        passphrase = b""
        if args.keep_key:
            passphrase = os.environ.get(KEY_PASSPHRASE_ENV, "").encode()
            if not passphrase:
                return _fail(f"--keep-key requires {KEY_PASSPHRASE_ENV} to be set")
        client = HttpEnrollmentClient(args.enroll)
        try:
            with open(doc_path, "rb") as document:
                result = one_shot_sign(
                    document, args.subject, client,
                    suite=suite, keep_key=args.keep_key,
                    document_locator=str(doc_path),
                )
        finally:
            client.close()
    except (EnrollmentRejectedError, EnrollmentUnreachableError) as exc:
        return _fail(f"enrollment failed: {exc}", code=1)
    except (OtcError, ValueError, OSError) as exc:
        return _fail(str(exc))
    if args.keep_key:
        bundle, keypair = result
        key_path = Path(str(args.out) + ".key.pem")
        key_path.write_bytes(keypair.export_private_pem(passphrase))
        key_path.chmod(0o600)
        print(
            f"warning: private key kept at {key_path}; every extra signature it"
            " makes needs a fresh certificate, and the key should be destroyed"
            " as soon as you no longer need it",
            file=sys.stderr,
        )
    else:
        bundle = result
    bundle.save(args.out)
    print(f"signed {doc_path} as {bundle.subject}: bundle written to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .certmodel import load_certificates
    from .errors import OtcError
    from .signer import SignedDocumentBundle
    from .verifier import RecencyPolicy, verify_bundle

    try:
        max_age = parse_duration(args.max_age)
        skew = parse_duration(args.skew)
        at_time = parse_timestamp(args.at) if args.at else None
        policy = RecencyPolicy(max_age=max_age, clock_skew_allowance=skew)
        bundle = SignedDocumentBundle.load(args.bundle)
        anchors = load_certificates(Path(args.trust).read_bytes())
        with open(args.doc, "rb") as document:
            report = verify_bundle(
                bundle, document, anchors, policy, at_time, legacy=args.legacy
            )
    except (OtcError, ValueError, OSError) as exc:
        return _fail(str(exc))
    print(report.to_text())
    return 0 if report.accepted else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from . import analysis
    from .crypto import AlgorithmSuite
    from .errors import OtcError

    if args.paper:
        rsa_rows, ecdsa_rows = analysis.reference_timings()
        print(analysis.format_table(rsa_rows, title="RSA"))
        print()
        print(analysis.format_table(ecdsa_rows, title="ECDSA"))
        return 0
    try:
        suites = [AlgorithmSuite.from_label(label.strip())
                  for label in args.suites.split(",") if label.strip()]
        if not suites:
            raise ValueError("--suites is empty")
        records = analysis.run_local_bench(suites, iterations=args.iters)
    except (OtcError, ValueError) as exc:
        return _fail(str(exc))
    print(analysis.to_csv(records))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .errors import OtcError
    from .service import EnrollmentService, ServiceConfig, load_pool

    try:
        config = ServiceConfig.parse(args.config)
        pool = load_pool(config.ca_dir, config.pool_size)
        service = EnrollmentService(
            pool, host=config.listen_host, port=config.listen_port
        )
        url = service.bind()
    except (OtcError, OSError) as exc:
        return _fail(str(exc))
    print(f"enrollment service listening on {url} "
          f"({len(pool)} issuer{'s' if len(pool) != 1 else ''})", flush=True)

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otc",
        description="Issue, serve, and verify one-time document-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("pki-init", help="bootstrap a CA hierarchy on disk")
    init.add_argument("--root-name", default="OTC Root CA",
                      help="root CA common name (default: %(default)s)")
    init.add_argument("--not-after",
                      help="shared expiry for the whole hierarchy, ISO-8601"
                           " (default: now + --lifetime)")
    init.add_argument("--lifetime", default="9125d",
                      help="shared lifetime when --not-after is absent"
                           " (default: %(default)s)")
    init.add_argument("--intermediates", type=int, default=1, metavar="N",
                      help="intermediate CAs under the root (default: 1)")
    init.add_argument("--issuers-per-intermediate", type=int, default=1, metavar="M",
                      help="issuer CAs under each intermediate (default: 1)")
    init.add_argument("--suite", default="ecdsa-p256",
                      help="algorithm suite (default: %(default)s)")
    init.add_argument("--out", required=True, metavar="DIR",
                      help="directory to write the hierarchy into")
    init.set_defaults(handler=cmd_pki_init)

    sign = sub.add_parser("sign", help="sign one document under a fresh one-time certificate")
    sign.add_argument("--doc", required=True, metavar="FILE", help="document to sign")
    sign.add_argument("--subject", required=True,
                      help="signer name: a bare common name or an RFC 4514 DN")
    sign.add_argument("--enroll", required=True, metavar="URL",
                      help="enrollment service base URL")
    sign.add_argument("--suite", default="ecdsa-p256",
                      help="algorithm suite (default: %(default)s)")
    sign.add_argument("--keep-key", action="store_true",
                      help="keep the private key (encrypted with"
                           f" ${KEY_PASSPHRASE_ENV}) instead of destroying it")
    sign.add_argument("--out", required=True, metavar="BUNDLE",
                      help="where to write the .otcb bundle")
    sign.set_defaults(handler=cmd_sign)

    verify = sub.add_parser("verify", help="verify a signed-document bundle")
    verify.add_argument("--doc", required=True, metavar="FILE",
                        help="the document the bundle claims to sign")
    verify.add_argument("--bundle", required=True, metavar="BUNDLE", help=".otcb file")
    verify.add_argument("--trust", required=True, metavar="ROOT.pem",
                        help="PEM file with the trusted root certificate(s)")
    verify.add_argument("--max-age", required=True, metavar="DURATION",
                        help="oldest certificate this acceptor honors (e.g. 24h)")
    verify.add_argument("--skew", default="300s", metavar="DURATION",
                        help="clock-skew allowance (default: %(default)s)")
    verify.add_argument("--at", metavar="TIMESTAMP",
                        help="verify as of this ISO-8601 instant (default: now)")
    verify.add_argument("--legacy", action="store_true",
                        help="pretend to be a validator that ignores one-time"
                             " semantics (no binding, uniform-expiry or recency checks)")
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="timing overhead tables")
    mode = bench.add_mutually_exclusive_group(required=True)
    mode.add_argument("--paper", action="store_true",
                      help="print the built-in reference overhead tables")
    mode.add_argument("--local", action="store_true",
                      help="measure keygen/sign on this machine, CSV output")
    bench.add_argument("--suites", default="ecdsa-p256",
                       help="comma-separated suite labels for --local"
                            " (default: %(default)s)")
    bench.add_argument("--iters", type=int, default=5,
                       help="timed iterations per suite for --local (default: 5)")
    bench.set_defaults(handler=cmd_bench)

    serve = sub.add_parser("serve", help="run the enrollment service")
    serve.add_argument("--config", required=True, metavar="FILE",
                       help="key = value config: listen, ca-dir, pool-size")
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
