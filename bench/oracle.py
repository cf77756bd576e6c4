"""Independent checks of selenc's command outputs against a stream's truth.

Every check is per NAL unit (plus one for the encryption sidecar), so
``fail_share`` is failed checks over checks attempted. Expected ciphertext
comes from the ``cryptography`` package's AES-128-CTR, never from selenc:
an XOR round trip alone would pass a wrong keystream. Without that package
the checks that need it are skipped and the rest still run.
"""

from __future__ import annotations

import struct

from streams import Stream, escape, split

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
except ImportError:  # the oracle is optional; report its checks as skipped
    Cipher = None


def _kdf(passphrase: str, iterations: int) -> bytes:
    """selenc's documented passphrase stretch, on the reference AES:
    h <- E_k(h) XOR h over each padded passphrase block k, iterated."""
    data = passphrase.encode("utf-8") + b"\x80"
    data += bytes(-len(data) % 16)
    blocks = [Cipher(algorithms.AES(data[i : i + 16]), modes.ECB()).encryptor()
              for i in range(0, len(data), 16)]
    h = bytes(16)
    for _ in range(iterations):
        for enc in blocks:
            h = (int.from_bytes(enc.update(h), "big") ^ int.from_bytes(h, "big")).to_bytes(16, "big")
    return h


def _key(stream: Stream) -> bytes:
    if stream.key_hex is not None:
        return bytes.fromhex(stream.key_hex)
    return _kdf(stream.passphrase, stream.workload.kdf_iterations)


def _ctr(key: bytes, nonce: bytes, ordinal: int, data: bytes) -> bytes:
    """data XOR AES-128-CTR keystream with initial counter nonce||ordinal||0."""
    iv = nonce + ordinal.to_bytes(4, "big") + bytes(4)
    return Cipher(algorithms.AES(key), modes.CTR(iv)).encryptor().update(data)


def _sidecar(stream: Stream, key: bytes) -> bytes:
    """The SEH1 version-1 sidecar the encryption must write."""
    key_check = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(bytes(16))[:4]
    ordinals = stream.selected_ordinals
    return (
        b"SEH1"
        + bytes((1, 1 if stream.workload.policy == "all-i" else 0))
        + key_check
        + stream.nonce
        + struct.pack(f">I{len(ordinals)}I", len(ordinals), *ordinals)
    )


class Checker:
    """Checks for one stream; each method returns (attempted, failed)."""

    def __init__(self, stream: Stream):
        self.stream = stream
        self.plain = [(n.start_code_len, n.header, n.ebsp) for n in stream.nals]
        self.oracle = Cipher is not None
        if self.oracle:
            key = _key(stream)
            self.cipher = [
                (n.start_code_len, n.header, escape(_ctr(key, stream.nonce, n.ordinal, n.rbsp)))
                if n.selected else u
                for n, u in zip(stream.nals, self.plain)
            ]
            self.sidecar = _sidecar(stream, key)
        n = len(stream.nals)
        self.owned = {"encrypt": n + self.oracle, "decrypt": n, "inspect": n}

    @staticmethod
    def _units(expected, data: bytes) -> "tuple[int, int]":
        got = split(data)
        failed = sum(1 for i, u in enumerate(expected) if i >= len(got) or got[i] != u)
        return len(expected), failed

    def encrypt(self, data: bytes, sidecar: bytes) -> "tuple[int, int]":
        """Ordinal, start-code length and header kept per NAL; ciphered
        payloads equal the reference CTR; the sidecar matches."""
        if self.oracle:
            attempted, failed = self._units(self.cipher, data)
            return attempted + 1, failed + (sidecar != self.sidecar)
        got = split(data)
        layout = [
            i >= len(got) or got[i][:2] != u[:2] or (not n.selected and got[i] != u)
            for i, (n, u) in enumerate(zip(self.stream.nals, self.plain))
        ]
        return len(layout), sum(layout)

    def decrypt(self, data: bytes) -> "tuple[int, int]":
        """Every NAL unit restored byte for byte."""
        if data == self.stream.data:
            return len(self.plain), 0
        return self._units(self.plain, data)

    def inspect(self, report) -> "tuple[int, int]":
        """One report row per NAL matching the truth, and the policy's
        selected ordinals."""
        chosen = set(report.selected_ordinals)
        rows = list(report.rows)
        failed = 0
        for n in self.stream.nals:
            r = rows[n.ordinal] if n.ordinal < len(rows) else None
            ok = (
                r is not None
                and r.ordinal == n.ordinal
                and r.nal_type == n.nal_type
                and r.size == len(n.ebsp)
                and r.rbsp_size == len(n.rbsp)
                and (r.slice_info.slice_type if r.slice_info else None) == n.slice_type
                and not r.unparsed
                and not r.forbidden_bit
                and (n.ordinal in chosen) == n.selected
            )
            failed += not ok
        return len(self.stream.nals), failed
