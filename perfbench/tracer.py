"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around calls
into otcpki's public functions, so the program itself carries no tracing
code. Each span keeps its name, start (``time.monotonic``, which is one
clock for every process on the host), duration, self time (duration minus
the time its direct child spans cover), the index of its parent span, and
whether the call raised.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

# One span: (name, start, duration, self_time, parent_index or -1, raised).
# A call still in flight holds None in its slot.
NAME, START, DURATION, SELF, PARENT, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserve the slot so children can name it
            frame = [index, 0.0]  # [span index, time covered by direct children]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            raised = True
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                duration = time.monotonic() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, duration, duration - frame[1],
                                       parent, raised)

        return traced

    def install(self, targets):
        """Replace each ``(owner, attribute, span name)`` with a traced
        wrapper; classmethods stay classmethods."""
        for owner, attribute, name in targets:
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attribute, self.wrap(name, raw))


def server_targets():
    """Entry points traced inside the enrollment service process.

    ``service`` and ``ca`` import ``decode`` and ``verify_csr_pop`` by name,
    so the wrappers go on those module attributes. Each accepted connection
    passes through ``process_request``.
    """
    from otcpki import ca, service

    return [
        (service.EnrollmentService, "handle_enroll", "service.handle_enroll"),
        (service.EnrollmentService, "handle_crl", "service.handle_crl"),
        (service._Server, "process_request", "service.connection"),
        (service, "decode", "certmodel.decode"),
        (ca.CaIdentity, "issue_otc", "ca.issue_otc"),
        (ca, "verify_csr_pop", "certmodel.csr_pop"),
    ]


def client_targets():
    """Entry points traced inside the load-generating process.

    ``signer`` and ``verifier`` look up ``digest_document``,
    ``build_csr`` and ``verify_signature`` by name in their own modules,
    so the wrappers go there. ``HTTPConnection.request`` is where every
    HTTP request leaves the client, whichever transport sends it.
    """
    import http.client

    from otcpki import certmodel, crypto, signer, verifier

    return [
        (signer, "one_shot_sign", "signer.one_shot_sign"),
        (signer, "digest_document", "crypto.digest"),
        (signer, "build_csr", "certmodel.build_csr"),
        (signer.HttpEnrollmentClient, "enroll", "signer.enroll_rtt"),
        (signer.HttpEnrollmentClient, "fetch_crl", "signer.fetch_crl_rtt"),
        (signer.SignedDocumentBundle, "load", "signer.bundle_load"),
        (crypto.EphemeralKeyPair, "generate", "crypto.keygen"),
        (crypto.EphemeralKeyPair, "sign_digest", "crypto.sign_digest"),
        (verifier, "verify_bundle", "verifier.verify_bundle"),
        (verifier, "digest_document", "crypto.digest"),
        (verifier, "verify_signature", "crypto.verify_signature"),
        (certmodel.Certificate, "verify_signed_by", "certmodel.verify_signed_by"),
        (certmodel.RevocationList, "is_signed_by", "certmodel.crl_is_signed_by"),
        (http.client.HTTPConnection, "request", "http.request"),
    ]
