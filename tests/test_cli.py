"""End-to-end checks of the ``otc`` command line.

Most tests drive ``main()`` in-process so the suite stays fast; ``serve``
and the module entry point get real subprocesses because signals and
startup behavior only mean something there.
"""

import os
import re
import signal
import stat
import subprocess
import sys
import time
import urllib.request
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from otcpki.ca import PASSPHRASE_ENV, load_ca
from otcpki.cli import KEY_PASSPHRASE_ENV, main, parse_duration, parse_timestamp
from otcpki.service import EnrollmentService, load_pool

from conftest import modes_at_write, patch_central_entry, set_clock_past

EXPIRES_RE = re.compile(r"expires (\S+)")


class TestParseDuration:
    @pytest.mark.parametrize("text,seconds", [
        ("30s", 30),
        ("15m", 900),
        ("24h", 86400),
        ("7d", 604800),
        ("0s", 0),
        (" 45 m ", 2700),
    ])
    def test_units(self, text, seconds):
        assert parse_duration(text) == timedelta(seconds=seconds)

    @pytest.mark.parametrize("text", ["", "10", "5w", "-3s", "3 weeks", "h", "1.5h"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)


class TestParseTimestamp:
    def test_zulu_suffix(self):
        moment = parse_timestamp("2030-01-02T03:04:05Z")
        assert moment == datetime(2030, 1, 2, 3, 4, 5, tzinfo=timezone.utc)

    def test_offset_normalized_to_utc(self):
        moment = parse_timestamp("2030-01-02T05:04:05+02:00")
        assert moment == datetime(2030, 1, 2, 3, 4, 5, tzinfo=timezone.utc)

    def test_naive_means_utc(self):
        moment = parse_timestamp("2030-01-02T03:04:05")
        assert moment.tzinfo == timezone.utc

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_timestamp("next tuesday")


class TestPkiInit:
    def test_defaults_build_three_tiers_with_one_expiry(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(PASSPHRASE_ENV, "init-pass")
        out = tmp_path / "pki"
        assert main(["pki-init", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert (out / "root" / "cert.pem").is_file()
        assert (out / "int-01" / "iss-01" / "key.pem").is_file()
        expiries = EXPIRES_RE.findall(captured.out)
        assert len(expiries) == 3
        assert len(set(expiries)) == 1

    def test_issuer_fan_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PASSPHRASE_ENV, "init-pass")
        out = tmp_path / "pki"
        rc = main([
            "pki-init", "--issuers-per-intermediate", "3",
            "--lifetime", "30d", "--out", str(out),
        ])
        assert rc == 0
        issuer_dirs = sorted(p.name for p in (out / "int-01").glob("iss-*"))
        assert issuer_dirs == ["iss-01", "iss-02", "iss-03"]

    def test_expiry_in_the_past_is_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(PASSPHRASE_ENV, "init-pass")
        rc = main([
            "pki-init", "--not-after", "2001-01-01T00:00:00Z",
            "--out", str(tmp_path / "pki"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "pki" / "root").exists()

    def test_missing_passphrase_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(PASSPHRASE_ENV, raising=False)
        rc = main(["pki-init", "--out", str(tmp_path / "pki")])
        assert rc == 2
        assert PASSPHRASE_ENV in capsys.readouterr().err


class TestBench:
    def test_reference_tables(self, capsys):
        assert main(["bench", "--paper"]) == 0
        out = capsys.readouterr().out
        for label in ("RSA-1024", "RSA-15360", "ECDSA-163", "ECDSA-571"):
            assert label in out
        assert "688.26" in out and "7381%" in out
        assert "0.23" in out and "53%" in out

    def test_local_produces_csv(self, capsys):
        rc = main(["bench", "--local", "--suites", "ecdsa-p256", "--iters", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "suite,keygen_s,sign_s,total_s,overhead_pct"
        assert len(lines) == 2

    def test_local_too_few_iters(self, capsys):
        rc = main(["bench", "--local", "--iters", "1"])
        assert rc == 2
        assert "3" in capsys.readouterr().err

    def test_local_unknown_suite(self, capsys):
        rc = main(["bench", "--local", "--suites", "dsa-1024", "--iters", "3"])
        assert rc == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "otcpki", "bench", "--paper"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
        assert "ECDSA-409" in proc.stdout


@pytest.fixture(scope="module")
def cli_stack(tmp_path_factory):
    """A hierarchy on disk, a live enrollment service, and one signed bundle."""
    base = tmp_path_factory.mktemp("cli")
    os.environ[PASSPHRASE_ENV] = "cli-stack-pass"
    service = None
    try:
        rc = main([
            "pki-init", "--root-name", "CLI Test Root",
            "--lifetime", "30d", "--out", str(base / "pki"),
        ])
        assert rc == 0
        pool = load_pool(base / "pki", 1)
        service = EnrollmentService(pool, host="127.0.0.1", port=0)
        url = service.bind()
        service.start()

        trust = base / "root.pem"
        trust.write_bytes((base / "pki" / "root" / "cert.pem").read_bytes())
        doc = base / "contract.txt"
        doc.write_bytes(b"the undersigned agrees to nothing in particular\n")
        bundle = base / "contract.otcb"
        rc = main([
            "sign", "--doc", str(doc), "--subject", "Pat Example",
            "--enroll", url, "--out", str(bundle),
        ])
        assert rc == 0
        yield SimpleNamespace(
            base=base, url=url, trust=trust, doc=doc, bundle=bundle
        )
    finally:
        if service is not None:
            service.stop()
        os.environ.pop(PASSPHRASE_ENV, None)


class TestSignAndVerify:
    def test_sign_missing_document(self, cli_stack, capsys):
        rc = main([
            "sign", "--doc", str(cli_stack.base / "absent.txt"),
            "--subject", "X", "--enroll", cli_stack.url,
            "--out", str(cli_stack.base / "absent.otcb"),
        ])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_sign_unreachable_service(self, cli_stack, capsys):
        rc = main([
            "sign", "--doc", str(cli_stack.doc), "--subject", "X",
            "--enroll", "http://127.0.0.1:9",
            "--out", str(cli_stack.base / "unreach.otcb"),
        ])
        assert rc == 1
        assert "enrollment failed" in capsys.readouterr().err

    def test_honest_bundle_accepted(self, cli_stack, capsys):
        rc = main([
            "verify", "--doc", str(cli_stack.doc),
            "--bundle", str(cli_stack.bundle),
            "--trust", str(cli_stack.trust), "--max-age", "24h",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("verdict: accepted")

    def test_tampered_document_rejected(self, cli_stack, capsys):
        edited = cli_stack.base / "edited.txt"
        edited.write_bytes(cli_stack.doc.read_bytes() + b"!")
        rc = main([
            "verify", "--doc", str(edited),
            "--bundle", str(cli_stack.bundle),
            "--trust", str(cli_stack.trust), "--max-age", "24h",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("verdict: rejected")
        assert "binding-mismatch" in out

    @pytest.mark.parametrize("field_offset,value", [(8, 0x0001), (10, 99)],
                             ids=["encrypted-flag", "compression-method-99"])
    def test_unreadable_bundle_is_usage_error(self, cli_stack, capsys, field_offset, value):
        unreadable = cli_stack.base / "unreadable.otcb"
        unreadable.write_bytes(patch_central_entry(cli_stack.bundle.read_bytes(),
                                                   b"meta.txt", field_offset, value))
        rc = main([
            "verify", "--doc", str(cli_stack.doc),
            "--bundle", str(unreadable),
            "--trust", str(cli_stack.trust), "--max-age", "24h",
        ])
        assert rc == 2
        assert "not a bundle archive" in capsys.readouterr().err

    def test_zero_tolerance_recency_goes_stale(self, cli_stack, capsys):
        later = (datetime.now(timezone.utc) + timedelta(seconds=30)).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
        rc = main([
            "verify", "--doc", str(cli_stack.doc),
            "--bundle", str(cli_stack.bundle),
            "--trust", str(cli_stack.trust),
            "--max-age", "0s", "--skew", "0s", "--at", later,
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale" in out

    def test_legacy_mode_rejects_tampering(self, cli_stack, capsys):
        edited = cli_stack.base / "edited2.txt"
        edited.write_bytes(cli_stack.doc.read_bytes() + b"??")
        rc = main([
            "verify", "--doc", str(edited),
            "--bundle", str(cli_stack.bundle),
            "--trust", str(cli_stack.trust), "--max-age", "24h", "--legacy",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("verdict: rejected")
        assert "signature: FAIL [bad-signature]" in out

    def test_bad_duration_is_usage_error(self, cli_stack, capsys):
        rc = main([
            "verify", "--doc", str(cli_stack.doc),
            "--bundle", str(cli_stack.bundle),
            "--trust", str(cli_stack.trust), "--max-age", "soonish",
        ])
        assert rc == 2
        assert "bad duration" in capsys.readouterr().err

    def test_keep_key_needs_passphrase_env(self, cli_stack, monkeypatch, capsys):
        monkeypatch.delenv(KEY_PASSPHRASE_ENV, raising=False)
        rc = main([
            "sign", "--doc", str(cli_stack.doc), "--subject", "X",
            "--enroll", cli_stack.url, "--keep-key",
            "--out", str(cli_stack.base / "kk.otcb"),
        ])
        assert rc == 2
        assert KEY_PASSPHRASE_ENV in capsys.readouterr().err

    def test_sign_to_unwritable_out_is_usage_error(self, cli_stack, capsys):
        rc = main([
            "sign", "--doc", str(cli_stack.doc), "--subject", "X",
            "--enroll", cli_stack.url,
            "--out", str(cli_stack.base / "no-such-dir" / "x.otcb"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_kept_key_not_written_without_its_bundle(self, cli_stack, monkeypatch, capsys):
        monkeypatch.setenv(KEY_PASSPHRASE_ENV, "kept-key-pass")
        out = cli_stack.base / "a-directory.otcb"
        out.mkdir()
        rc = main([
            "sign", "--doc", str(cli_stack.doc), "--subject", "Keeper",
            "--enroll", cli_stack.url, "--keep-key", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (cli_stack.base / "a-directory.otcb.key.pem").exists()

    def test_keep_key_writes_encrypted_key(self, cli_stack, monkeypatch, capsys):
        monkeypatch.setenv(KEY_PASSPHRASE_ENV, "kept-key-pass")
        out = cli_stack.base / "kept.otcb"
        rc = main([
            "sign", "--doc", str(cli_stack.doc), "--subject", "Keeper",
            "--enroll", cli_stack.url, "--keep-key", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        key_path = cli_stack.base / "kept.otcb.key.pem"
        assert key_path.is_file()
        assert stat.S_IMODE(key_path.stat().st_mode) == 0o600
        assert b"ENCRYPTED PRIVATE KEY" in key_path.read_bytes()
        assert "warning: private key kept" in captured.err

    def test_kept_key_is_private_when_written(self, cli_stack, monkeypatch):
        monkeypatch.setenv(KEY_PASSPHRASE_ENV, "kept-key-pass")
        out = cli_stack.base / "private.otcb"
        with modes_at_write(cli_stack.base / "private.otcb.key.pem") as modes:
            rc = main([
                "sign", "--doc", str(cli_stack.doc), "--subject", "Keeper",
                "--enroll", cli_stack.url, "--keep-key", "--out", str(out),
            ])
        assert rc == 0
        assert modes and set(modes) == {0o600}


class TestServe:
    def _write_config(self, tmp_path, ca_dir):
        config = tmp_path / "service.conf"
        config.write_text(
            f"listen = 127.0.0.1:0\nca-dir = {ca_dir}\npool-size = 1\n"
        )
        return config

    def test_serves_and_stops_cleanly(self, cli_stack, tmp_path):
        config = self._write_config(tmp_path, cli_stack.base / "pki")
        env = dict(os.environ, **{PASSPHRASE_ENV: "cli-stack-pass"})
        proc = subprocess.Popen(
            [sys.executable, "-m", "otcpki", "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on (http://\S+)", banner)
            assert match, banner
            with urllib.request.urlopen(match.group(1) + "/crl", timeout=5) as reply:
                assert reply.status == 200
                assert b"BEGIN X509 CRL" in reply.read()
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert "shutting down" in err

    def test_bad_ca_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "nothing-here"
        empty.mkdir()
        config = self._write_config(tmp_path, empty)
        proc = subprocess.run(
            [sys.executable, "-m", "otcpki", "serve", "--config", str(config)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_expired_hierarchy_is_usage_error(self, cli_stack, tmp_path, monkeypatch, capsys):
        """It used to exit with a traceback from cryptography's CRL builder."""
        pki = cli_stack.base / "pki"
        root = load_ca(pki / "root", os.environ[PASSPHRASE_ENV].encode())
        set_clock_past(monkeypatch, root.not_after)
        assert main(["serve", "--config", str(self._write_config(tmp_path, pki))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expired at" in err

    def test_missing_config_file(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "otcpki", "serve",
             "--config", str(tmp_path / "no.conf")],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
