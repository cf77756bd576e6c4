"""The benchmark's own seeded H.264 Annex B streams and their truth tables.

Deliberately independent of ``selenc``: emulation prevention, Exp-Golomb
coding, slice headers and start codes are written here, so a change to the
library's own test-stream generator never shifts a workload, and the truth
table can check the library's parser rather than echo it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

NAL_NON_IDR = 1
NAL_IDR = 5
SLICE_P = 5  # P slice, every slice of the picture is P
SLICE_I = 7  # I slice, every slice of the picture is I
MBS_PER_PICTURE = 396  # CIF, 22 x 18 macroblocks

DEFAULT_KDF_ITERATIONS = 10_000

# Insert 0x03 after every two zero bytes that precede a byte <= 0x03. The
# match does not overlap the following byte, so 00 00 00 00 becomes
# 00 00 03 00 00, exactly as a left-to-right escaper that resets its zero
# count after each inserted byte.
_EPB_INSERT = re.compile(b"\x00\x00(?=[\x00-\x03])")


def escape(rbsp: bytes) -> bytes:
    """RBSP to EBSP: insert emulation-prevention bytes (H.264 7.4.1)."""
    return _EPB_INSERT.sub(b"\x00\x00\x03", rbsp)


@dataclass(frozen=True)
class Workload:
    """Shape of one benchmark stream and how it is keyed."""

    name: str
    pictures: int
    slices_per_picture: int
    slice_rbsp_bytes: int
    idr_period: int  # an IDR picture every this many pictures
    i_period: int  # a non-IDR I picture every this many pictures; 0 for none
    policy: str  # "idr" or "all-i"
    passphrase: bool  # False: raw hex key; True: passphrase through the KDF
    why: str
    kdf_iterations: int = DEFAULT_KDF_ITERATIONS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse_idr", 300, 1, 8192, 30, 0, "idr", False,
            "baseline shape: 8 KiB single-slice pictures, IDR every 30; "
            "about 3% ciphered, so bitstream work dominates",
        ),
        Workload(
            "all_key", 40, 1, 8192, 1, 0, "idr", False,
            "every picture an IDR, so every slice is ciphered: the naive "
            "full-encryption reference where the keystream dominates",
        ),
        Workload(
            "multislice_alli", 240, 4, 1024, 24, 6, "all-i", False,
            "encoder-like 4 x 1 KiB slices per picture with 3-byte codes "
            "between slices; all-i makes slice-header parsing select",
        ),
        Workload(
            "passphrase", 60, 1, 256, 12, 0, "idr", True,
            "small clip keyed by a passphrase at the default 10k KDF "
            "iterations; the only workload that reaches the KDF",
        ),
    )
}


@dataclass(frozen=True)
class TruthNal:
    """What the generator wrote for one NAL unit."""

    ordinal: int
    start_code_len: int
    header: int  # the NAL header byte
    slice_type: Optional[int]  # None for non-VCL units
    rbsp: bytes  # payload after the header byte, before escaping
    ebsp: bytes  # payload as written
    selected: bool  # the workload's policy ciphers this unit

    @property
    def nal_type(self) -> int:
        return self.header & 0x1F

    def to_bytes(self) -> bytes:
        zeros = b"\x00" * (self.start_code_len - 1)
        return zeros + b"\x01" + bytes((self.header,)) + self.ebsp


@dataclass(frozen=True)
class Stream:
    """A generated stream, its truth table and the key material to use."""

    workload: Workload
    nals: "tuple[TruthNal, ...]"
    data: bytes
    key_hex: Optional[str]
    passphrase: Optional[str]
    nonce: bytes

    @property
    def selected_ordinals(self) -> "tuple[int, ...]":
        return tuple(n.ordinal for n in self.nals if n.selected)

    @property
    def vcl_rbsp_bytes(self) -> int:
        return sum(len(n.rbsp) for n in self.nals if n.slice_type is not None)

    @property
    def selected_rbsp_bytes(self) -> int:
        return sum(len(n.rbsp) for n in self.nals if n.selected)


def _ue_bits(value: int) -> str:
    """Order-0 Exp-Golomb codeword as a bit string."""
    code = bin(value + 1)[2:]
    return "0" * (len(code) - 1) + code


def slice_header(first_mb: int, slice_type: int) -> bytes:
    """first_mb_in_slice, slice_type and pic_parameter_set_id = 0, padded
    to a byte boundary with one bits."""
    bits = _ue_bits(first_mb) + _ue_bits(slice_type) + _ue_bits(0)
    bits += "1" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def _filler(rng: random.Random, n: int) -> bytearray:
    # Random bytes with zero runs of 2-4 every 8-32 bytes, so emulation
    # prevention fires, and a non-zero last byte like a real RBSP's
    # stop bit.
    buf = bytearray(rng.randbytes(n))
    pos = rng.randrange(8, 32)
    while pos + 4 < n:
        run = rng.randrange(2, 5)
        buf[pos : pos + run] = bytes(run)
        pos += run + rng.randrange(8, 32)
    if n:
        buf[-1] = rng.randrange(1, 256)
    return buf


def _selected(w: Workload, nal_type: int, slice_type: Optional[int]) -> bool:
    if nal_type == NAL_IDR:
        return True
    return w.policy == "all-i" and slice_type is not None and slice_type % 5 == 2


def generate(w: Workload, seed: int) -> Stream:
    """Build ``w``'s stream from ``seed``; the same pair gives the same bytes.

    Parameter sets and the first slice of each picture get 4-byte start
    codes; the other slices of a picture get 3-byte codes, as encoders emit.
    """
    rng = random.Random(f"{w.name}:{seed}")
    nals: "list[TruthNal]" = []

    def add(scl: int, header: int, slice_type: Optional[int], rbsp: bytes) -> None:
        nals.append(
            TruthNal(
                len(nals), scl, header, slice_type, rbsp, escape(rbsp),
                _selected(w, header & 0x1F, slice_type),
            )
        )

    sps = bytes((0x42, 0xC0, 0x1E)) + rng.randbytes(4) + bytes((rng.randrange(1, 256),))
    add(4, 0x67, None, sps)
    add(4, 0x68, None, bytes((0xCE, 0x3C, 0x80)))
    mbs_per_slice = MBS_PER_PICTURE // w.slices_per_picture
    for pic in range(w.pictures):
        idr = pic % w.idr_period == 0
        intra = idr or (w.i_period > 0 and pic % w.i_period == 0)
        slice_type = SLICE_I if intra else SLICE_P
        header = 0x65 if idr else 0x41
        for s in range(w.slices_per_picture):
            head = slice_header(s * mbs_per_slice, slice_type)
            body = _filler(rng, w.slice_rbsp_bytes - len(head))
            add(3 if s else 4, header, slice_type, head + bytes(body))
    data = b"".join(n.to_bytes() for n in nals)
    if w.passphrase:
        key_hex, passphrase = None, "bench passphrase " + rng.randbytes(4).hex()
    else:
        key_hex, passphrase = rng.randbytes(16).hex(), None
    return Stream(w, tuple(nals), data, key_hex, passphrase, rng.randbytes(8))


def split(data: bytes) -> "list[tuple[int, int, bytes]]":
    """Split Annex B bytes into (start-code length, header byte, EBSP) units.

    A start code is 00 00 01; one zero byte right before it makes it a
    4-byte code. Units without a header byte come back with header -1.
    """
    units = []
    pos = data.find(b"\x00\x00\x01")
    if pos < 0:
        return units
    scl = 4 if pos > 0 and data[pos - 1] == 0 else 3
    while pos >= 0:
        body = pos + 3
        nxt = data.find(b"\x00\x00\x01", body)
        end = len(data) if nxt < 0 else nxt
        nscl = 3
        if nxt > body and data[nxt - 1] == 0:
            end, nscl = nxt - 1, 4
        header = data[body] if body < end else -1
        units.append((scl, header, bytes(data[body + 1 : end])))
        pos, scl = nxt, nscl
    return units
