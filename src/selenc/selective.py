"""Policy-driven encryption of key-frame NAL payloads.

Only the escaped payload bytes of selected NAL units change. Start codes,
header bytes and every non-selected NAL survive byte-for-byte, so an
encrypted stream still scans as ordinary Annex B with the same NAL layout.

The keystream is applied to the unescaped (RBSP) payload and the result is
re-escaped, so keystream alignment never depends on where emulation
prevention bytes happen to sit. A sidecar CipherHeader records which
ordinals were touched; nothing is signaled in-band.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .aes import _CHUNK_BLOCKS, BLOCK_SIZE, KeySchedule, ctr_keystream, encrypt_block, xor_bytes
from .bitstream import (
    NAL_IDR,
    NAL_NON_IDR,
    NalUnit,
    check_escaping,
    ebsp_to_rbsp,
    rbsp_to_ebsp,
)
from .errors import BadMagic, BadVersion, MalformedEscape, MalformedHeader, OrdinalOutOfRange, WrongKey

SIDECAR_MAGIC = b"SEH1"
SIDECAR_VERSION = 1
# Sidecar head: magic, version, policy byte, key check, nonce, ordinal count;
# the big-endian u32 ordinals follow it.
_HEAD = struct.Struct(">4sBB4s8sI")


class EncryptionPolicy(Enum):
    """Which NAL units get ciphered. The value is the sidecar wire byte."""

    IDR_ONLY = 0
    ALL_INTRA = 1


@dataclass(frozen=True)
class SelectionResult:
    """The ordinals a policy picks from a stream, and the slices it left in
    the clear because their header did not parse, whatever their payload
    holds: the CLI warns about those rather than leave them to a row flag."""

    policy: EncryptionPolicy
    selected_ordinals: "tuple[int, ...]"
    unparsed_ordinals: "tuple[int, ...]" = ()


def select(nals: Iterable[NalUnit], policy: EncryptionPolicy) -> SelectionResult:
    """Pick the ordinals the policy covers: every IDR slice, by its header
    byte, and under ALL_INTRA each non-IDR slice whose slice_info is intra,
    or to unparsed_ordinals if it is None. No other NAL is read past its
    header byte, and no payload is judged: check_cipherable judges each pick."""
    all_intra = policy is EncryptionPolicy.ALL_INTRA
    picked, unparsed = [], []
    for n in nals:
        t = -1 if n.header is None else n.header.nal_unit_type
        if t == NAL_IDR:
            picked.append(n.ordinal)
        elif all_intra and t == NAL_NON_IDR:
            info = n.slice_info
            if info is None:
                unparsed.append(n.ordinal)
            elif info.is_intra:
                picked.append(n.ordinal)
    return SelectionResult(policy, tuple(picked), tuple(unparsed))


def encrypt_nal(nal: NalUnit, rbsp: bytes, mask: bytes) -> NalUnit:
    """Cipher one payload: XOR its keystream ``mask`` into its RBSP ``rbsp``, re-escape.

    The header byte stays in the clear; ordinal and start-code length are
    untouched. The escaped length may grow or shrink when the ciphered bytes
    trigger different emulation prevention, but the RBSP length is preserved,
    so the new unit is given it as its rbsp_size.
    """
    ebsp = rbsp_to_ebsp(xor_bytes(rbsp, mask))
    return NalUnit(nal.ordinal, nal.start_code_len, nal.header, ebsp, rbsp_size=len(rbsp))


def decrypt_nal(nal: NalUnit, rbsp: bytes, mask: bytes) -> NalUnit:
    """Invert encrypt_nal. The counter-mode XOR is symmetric, so the same
    XOR/re-escape pass restores the original payload byte-exactly."""
    return encrypt_nal(nal, rbsp, mask)


def check_cipherable(nals: Sequence[NalUnit], ordinals: Iterable[int]) -> None:
    """Refuse the first listed ordinal whose NAL could not be ciphered and read
    back: past the stream or not at its position (OrdinalOutOfRange), a run
    7.4.1 forbids (check_escaping on that NAL alone), or a 00 00 03 tail
    (MalformedEscape). It unescapes nothing, so it can run before key work."""
    for o in ordinals:
        if not 0 <= o < len(nals):
            raise OrdinalOutOfRange(f"NAL {o} is listed but the stream has {len(nals)}")
        if nals[o].ordinal != o:
            raise OrdinalOutOfRange(f"NAL {o} is listed but position {o} holds NAL {nals[o].ordinal}")
        check_escaping((nals[o],))
        # Unescaping drops the 03 of a 00 00 03 tail, and re-escaping adds none back.
        if nals[o].ebsp[-3:] == b"\x00\x00\x03":
            raise MalformedEscape(f"NAL {o}: 00 00 03 at payload end would not round-trip")


def _cipher_nals(nals, ks, nonce, ordinals, transform) -> "list[NalUnit]":
    """Apply ``transform`` to nals[o] for each listed ordinal o, each with
    its unescaped payload and its cut of the keystream, after check_cipherable.

    check_cipherable has read each listed NAL's escape verdict, so the
    unescape is handed that verdict and only strips. The listed NALs are
    taken in stream order, in groups that end once they reach two
    _CHUNK_BLOCKS chunks of counter blocks: each group is unescaped, keyed by
    one ctr_keystream call and ciphered before the next is unescaped, so one
    group's payloads and keystream are held at a time. Two chunks give
    ctr_keystream one to hand to its helper process while it runs the other.
    ``ordinals`` come from a CipherHeader, strictly increasing, so no two
    groups share one.
    """
    check_cipherable(nals, ordinals)
    out, group, blocks = list(nals), [], 0
    for k, o in enumerate(ordinals, 1):
        rbsp = ebsp_to_rbsp(nals[o].ebsp, nals[o].escape_violation)
        group.append((o, rbsp))
        blocks += -(-len(rbsp) // BLOCK_SIZE)
        if blocks < 2 * _CHUNK_BLOCKS and k < len(ordinals):
            continue
        keystream, pos = ctr_keystream(ks, nonce, [(g, len(r)) for g, r in group]), 0
        for g, r in group:
            out[g] = transform(nals[g], r, keystream[pos : pos + len(r)])
            pos += len(r)
        group, blocks = [], 0
    return out


def key_check_value(ks: KeySchedule) -> bytes:
    """First four bytes of the zero-block ciphertext; rejects wrong keys early."""
    return encrypt_block(b"\x00" * 16, ks)[:4]


@dataclass(frozen=True)
class CipherHeader:
    """Sidecar metadata the decryptor needs: nonce, policy, key check and
    the ordinals that were encrypted (strictly increasing)."""

    policy: EncryptionPolicy
    key_check: bytes
    nonce: bytes
    ordinals: "tuple[int, ...]"

    def __post_init__(self) -> None:
        if len(self.key_check) != 4:
            raise ValueError("key_check must be 4 bytes")
        if len(self.nonce) != 8:
            raise ValueError("nonce must be 8 bytes")
        if any(b <= a for a, b in zip(self.ordinals, self.ordinals[1:])):
            raise ValueError("ordinals must be strictly increasing")
        if any(not 0 <= o < 1 << 32 for o in self.ordinals):
            raise ValueError("ordinals must fit in 32 bits")

    def to_bytes(self) -> bytes:
        count = len(self.ordinals)
        head = (SIDECAR_MAGIC, SIDECAR_VERSION, self.policy.value, self.key_check, self.nonce, count)
        return _HEAD.pack(*head) + struct.pack(f">{count}I", *self.ordinals)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherHeader":
        if len(data) < _HEAD.size:
            raise MalformedHeader(f"sidecar truncated: {len(data)} bytes, need at least {_HEAD.size}")
        magic, version, policy, key_check, nonce, count = _HEAD.unpack_from(data)
        if magic != SIDECAR_MAGIC:
            raise BadMagic(f"sidecar magic {magic!r} is not {SIDECAR_MAGIC!r}")
        if version != SIDECAR_VERSION:
            raise BadVersion(f"sidecar version {version} is not {SIDECAR_VERSION}")
        if policy not in (p.value for p in EncryptionPolicy):
            raise MalformedHeader(f"unknown policy byte {policy:#04x}")
        ordinals_format = f">{count}I"
        if len(data) != _HEAD.size + struct.calcsize(ordinals_format):
            raise MalformedHeader(f"sidecar length {len(data)} does not match ordinal count {count}")
        ordinals = struct.unpack_from(ordinals_format, data, _HEAD.size)
        try:
            return cls(EncryptionPolicy(policy), key_check, nonce, ordinals)
        except ValueError as exc:
            raise MalformedHeader(str(exc)) from exc


def encrypt_stream(
    nals: Sequence[NalUnit], ks: KeySchedule, selection: SelectionResult, nonce: bytes
) -> "tuple[list[NalUnit], CipherHeader]":
    """Encrypt the selected ordinals in one keystream pass, leaving the rest untouched."""
    header = CipherHeader(selection.policy, key_check_value(ks), nonce, selection.selected_ordinals)
    return _cipher_nals(nals, ks, nonce, header.ordinals, encrypt_nal), header


def decrypt_stream(
    nals: Sequence[NalUnit], ks: KeySchedule, header: CipherHeader
) -> "list[NalUnit]":
    """Decrypt exactly the ordinals the sidecar lists.

    The key check runs before any payload is touched; a mismatched key fails
    here with WrongKey (false-accept probability 2^-32).
    """
    if header.key_check != key_check_value(ks):
        raise WrongKey("sidecar key check does not match the supplied key")
    return _cipher_nals(nals, ks, header.nonce, header.ordinals, decrypt_nal)
