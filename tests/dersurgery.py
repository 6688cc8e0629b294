"""DER splicing helpers for forging inputs the library refuses to build.

The x509 builders reject duplicate extension OIDs, so to exercise the CA's
duplicate-extension handling we take a legitimate CSR apart, duplicate an
extension node, reassemble, and re-sign the modified body with the same key
so proof of possession still holds.
"""

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa

from otcpki.certmodel import OTC_EXTENSION_OID, Certificate, RevocationList, SigningRequest


def parse_tree(data, pos=0):
    """Parse DER into (tag, children_or_bytes) trees; constructed tags
    recurse, primitives stay as leaves."""
    tag = data[pos]
    i = pos + 1
    first = data[i]
    i += 1
    if first < 0x80:
        length = first
    else:
        count = first & 0x7F
        length = int.from_bytes(data[i : i + count], "big")
        i += count
    content = data[i : i + length]
    end = i + length
    if tag & 0x20:
        children = []
        j = 0
        while j < len(content):
            node, j = parse_tree(content, j)
            children.append(node)
        return (tag, children), end
    return (tag, content), end


def serialize_tree(node) -> bytes:
    tag, body = node
    if isinstance(body, list):
        content = b"".join(serialize_tree(child) for child in body)
    else:
        content = body
    if len(content) < 0x80:
        return bytes([tag, len(content)]) + content
    length_bytes = len(content).to_bytes((len(content).bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(length_bytes)]) + length_bytes + content


def _oid_der(oid: x509.ObjectIdentifier) -> bytes:
    """The DER of an OBJECT IDENTIFIER (X.690 §8.19): tag, length, arcs."""
    first, second, *rest = (int(arc) for arc in oid.dotted_string.split("."))
    body = b""
    for arc in (40 * first + second, *rest):
        octets = [arc & 0x7F]
        while arc > 0x7F:
            arc >>= 7
            octets.insert(0, 0x80 | arc & 0x7F)
        body += bytes(octets)
    return bytes([0x06, len(body)]) + body


def _duplicate_extension_node(node, oid: bytes) -> bool:
    tag, body = node
    if not isinstance(body, list):
        return False
    for index, child in enumerate(body):
        child_tag, child_body = child
        if (
            child_tag == 0x30
            and isinstance(child_body, list)
            and child_body
            and serialize_tree(child_body[0]) == oid
        ):
            body.insert(index, child)
            return True
        if _duplicate_extension_node(child, oid):
            return True
    return False


def forge_duplicate_extension_csr(csr: SigningRequest, keypair,
                                  oid: x509.ObjectIdentifier = OTC_EXTENSION_OID
                                  ) -> SigningRequest:
    """A CSR identical to ``csr`` but with its extension ``oid``, by default
    the binding, present twice, re-signed so POP still verifies."""
    tree, _ = parse_tree(csr.to_der())
    info, algid, _signature = tree[1]
    assert _duplicate_extension_node(info, _oid_der(oid)), f"extension {oid} not found"
    new_info = serialize_tree(info)
    key = keypair._signing_key()
    if isinstance(key, rsa.RSAPrivateKey):
        signature = key.sign(new_info, padding.PKCS1v15(), hashes.SHA256())
    else:
        signature = key.sign(new_info, ec.ECDSA(hashes.SHA256()))
    rebuilt = (0x30, [
        (info[0], info[1]),
        algid,
        (0x03, b"\x00" + signature),
    ])
    return SigningRequest(x509.load_der_x509_csr(serialize_tree(rebuilt)))


def with_empty_rdn(signed, name_index: int = 0):
    """``signed``, a certificate or CRL, with an empty RDN appended to name
    ``name_index`` of its TBS (0: the issuer, 1: a certificate's subject).
    cryptography parses it, and raises ValueError when that name is read;
    the signature no longer verifies."""
    tree, _ = parse_tree(signed.to_der())
    # A name is a SEQUENCE of SETs; nothing else in a TBS opens with a SET.
    names = [node for node in tree[1][0][1]
             if node[0] == 0x30 and node[1] and node[1][0][0] == 0x31]
    names[name_index][1].append((0x31, []))
    load = {Certificate: x509.load_der_x509_certificate,
            RevocationList: x509.load_der_x509_crl}[type(signed)]
    return type(signed)(load(serialize_tree(tree)))
