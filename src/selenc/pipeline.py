"""File-level encrypt/decrypt/inspect chains, key handling and the
synthetic test-stream generator."""

from __future__ import annotations

import errno
import os
import random
import stat
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .aes import _encrypt_int, key_expansion
from .bitstream import (
    VCL_TYPES,
    BitWriter,
    NalUnit,
    ReportRow,
    classify_stream,
    parse_nal_header,
    rbsp_to_ebsp,
    serialize_annexb,
    splice_annexb,
    split_annexb,
)
from .errors import BadHex, EmptyPassphrase, NoStartCode
from .selective import (
    CipherHeader,
    EncryptionPolicy,
    SelectionResult,
    check_cipherable,
    decrypt_stream,
    encrypt_stream,
    select,
)

DEFAULT_KDF_ITERATIONS = 10_000


@dataclass(frozen=True)
class KeySource:
    """A raw 128-bit key or a passphrase to stretch; exactly one is set, judged as it is built."""

    raw_key_hex: Optional[str] = field(default=None, repr=False)
    passphrase: Optional[str] = field(default=None, repr=False)
    kdf_iterations: int = DEFAULT_KDF_ITERATIONS

    def __post_init__(self) -> None:
        if (self.raw_key_hex is None) == (self.passphrase is None):
            raise ValueError("provide exactly one of raw_key_hex or passphrase")
        if self.kdf_iterations < 1:
            raise ValueError("kdf_iterations must be at least 1")
        if self.passphrase == "":
            raise EmptyPassphrase("passphrase must be non-empty")
        text = self.raw_key_hex
        if text is not None and len(text) != 32:
            raise BadHex(f"raw key must be 32 hex characters, got {len(text)}")
        # Name the position, never the text: the key is a secret.
        bad = next((i for i, c in enumerate(text or "") if c not in "0123456789abcdefABCDEF"), None)
        if bad is not None:
            raise BadHex(f"raw key has a non-hex character at position {bad}")

    @classmethod
    def from_raw_hex(cls, text: str) -> "KeySource":
        return cls(raw_key_hex=text)

    @classmethod
    def from_passphrase(cls, text: str, iterations: int = DEFAULT_KDF_ITERATIONS) -> "KeySource":
        return cls(passphrase=text, kdf_iterations=iterations)


def _kdf(passphrase: str, iterations: int) -> bytes:
    # Iterated block-cipher construction (NOT a standard KDF): the padded
    # passphrase blocks act as cipher keys folded into a running digest.
    data = passphrase.encode("utf-8", "surrogateescape") + b"\x80"
    data += b"\x00" * (-len(data) % 16)
    # The digest stays an integer, so no step converts it to bytes and back.
    round_keys = [key_expansion(data[i : i + 16]).round_key_ints for i in range(0, len(data), 16)]
    h = 0
    for _ in range(iterations):
        for rk in round_keys:
            h ^= _encrypt_int(h, rk)
    return h.to_bytes(16, "big")


def derive_key(source: KeySource) -> bytes:
    """Resolve a KeySource to 16 key bytes.

    Raw keys are hex-decoded. Passphrases are stretched through the iterated
    cipher construction; the iteration count is the knob that makes guessing
    expensive. The KeySource judged both when it was built.
    """
    if source.raw_key_hex is not None:
        return bytes.fromhex(source.raw_key_hex)
    return _kdf(source.passphrase, source.kdf_iterations)


@dataclass(frozen=True, kw_only=True)
class RunSummary(SelectionResult):
    """What a command did to a stream: the selection it ciphered (or would
    cipher) plus its cost, the fields of the CLI's summary line and of its
    all-i warning. It holds no NAL and no payload bytes."""

    nal_count: int
    leading_garbage: int
    total_bytes: int
    selected_bytes: int
    aes_blocks: int

    @property
    def encrypted_fraction(self) -> float:
        return self.selected_bytes / self.total_bytes if self.total_bytes else 0.0


@dataclass(frozen=True, kw_only=True)
class StreamReport(RunSummary):
    """A RunSummary plus one classify_stream row per NAL: what inspect
    reports."""

    rows: "tuple[ReportRow, ...]"

    @property
    def vcl_payload_bytes(self) -> int:
        return sum(r.rbsp_size for r in self.rows if r.nal_type in VCL_TYPES)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.name,
            "leading_garbage": self.leading_garbage,
            "total_bytes": self.total_bytes,
            "vcl_payload_bytes": self.vcl_payload_bytes,
            "selected_bytes": self.selected_bytes,
            "selected_ordinals": list(self.selected_ordinals),
            "encrypted_fraction": self.encrypted_fraction,
            "aes_blocks": self.aes_blocks,
            "nals": [
                {
                    "ordinal": r.ordinal,
                    "type": r.nal_type,
                    "name": r.type_name,
                    "size": r.size,
                    "rbsp_size": r.rbsp_size,
                    "slice_type": r.slice_info.slice_type if r.slice_info else None,
                    "is_intra": r.slice_info.is_intra if r.slice_info else None,
                    "unparsed": r.unparsed,
                    "forbidden_bit": r.forbidden_bit,
                }
                for r in self.rows
            ],
        }


def summarize(
    units: Sequence, selection: SelectionResult, leading: bytes, total_bytes: int
) -> RunSummary:
    """Count a selection over a cipher command's NALs or over
    classify_stream's rows: units[o].rbsp_size sizes selected ordinal o (a
    NAL's is exact once its escape verdict is clean, and a ciphered NAL's is
    the length of the RBSP it was made from), and each selected
    NAL costs ceil(size / 16) AES blocks. The one place that counts a
    selection, which the summary carries through."""
    sizes = [units[o].rbsp_size for o in selection.selected_ordinals]
    return RunSummary(
        **vars(selection),
        nal_count=len(units),
        leading_garbage=len(leading),
        total_bytes=total_bytes,
        selected_bytes=sum(sizes),
        aes_blocks=sum(-(-n // 16) for n in sizes),
    )


def build_report(
    rows: Sequence[ReportRow], selection: SelectionResult, leading: bytes, total_bytes: int
) -> StreamReport:
    """The summary of the selection that was (or would be) ciphered, counted
    over classify_stream's rows, plus the rows."""
    rows = tuple(rows)
    return StreamReport(**vars(summarize(rows, selection, leading, total_bytes)), rows=rows)


def _atomic_write(*files) -> None:
    # Write each (path, parts) pair, parts being a sequence of buffers, to a
    # temporary file in its destination directory, then rename them in the
    # order given. A path that is a symlink is written through, as by
    # open(path, "wb"): the file staged and replaced is the one the link
    # resolves to, created if the link dangles, and the link stays. A failed
    # write replaces no target, but a failed rename leaves the targets
    # renamed before it replaced; renaming onto a directory fails, so the
    # cipher commands refuse one before any work. A failed or killed process
    # never leaves a half-written file at a target path. Nothing is fsynced,
    # so that does not hold across a power loss. A file gets the mode
    # open(path, "wb") would give it: a replaced one keeps its mode, and a
    # new one is created 0666 less the umask.
    targets = [Path(os.path.realpath(path)) for path, _ in files]
    staged = []
    try:
        for path, (_, parts) in zip(targets, files):
            tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(parts)
            with suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        for tmp, path in zip(staged, targets):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            with suppress(OSError):
                os.unlink(tmp)
        raise


def _read_stream(path) -> "tuple[bytes, bytes, list[NalUnit]]":
    data = Path(path).read_bytes()
    if not data:
        raise NoStartCode(f"{path}: input file is empty")
    leading, nals = split_annexb(data)
    return data, leading, nals


def _refuse_targets(meta_path, in_path, out_path) -> None:
    # A stream written over the sidecar would lose its nonce, and so would a
    # sidecar renamed into place before the stream's rename failed on a
    # directory. Both cipher commands check this before they read the stream
    # or derive a key.
    if Path(meta_path).resolve() in (Path(in_path).resolve(), Path(out_path).resolve()):
        raise ValueError(f"sidecar path {meta_path} names the input or the output file")
    for path in (out_path, meta_path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def cmd_encrypt(
    in_path,
    out_path,
    meta_path,
    key: KeySource,
    policy: EncryptionPolicy = EncryptionPolicy.IDR_ONLY,
    nonce: Optional[bytes] = None,
) -> RunSummary:
    """Encrypt a stream file to out_path and write the sidecar to meta_path.

    With an explicit nonce the run is fully deterministic; otherwise eight
    random bytes are drawn and recorded in the sidecar. Before any key work,
    a nonce that is not 8 bytes is refused, check_cipherable refuses a NAL
    to cipher that breaks escaping or ends in 00 00 03, and a sidecar path
    that names the input or the output file, or an output or sidecar path
    that is a directory, is refused: the stream would replace the sidecar,
    or the sidecar would be replaced alone, and with it the nonce. A
    NAL left in the clear is copied byte for byte and not judged, so a badly
    escaped one round-trips; inspect flags it.
    """
    if nonce is None:
        nonce = os.urandom(8)
    elif len(nonce) != 8:
        raise ValueError("nonce must be 8 bytes")
    _refuse_targets(meta_path, in_path, out_path)
    data, leading, nals = _read_stream(in_path)
    selection = select(nals, policy)
    check_cipherable(nals, selection.selected_ordinals)
    ks = key_expansion(derive_key(key))
    out_nals, header = encrypt_stream(nals, ks, selection, nonce)
    parts = splice_annexb(data, leading, nals, out_nals)
    # Sidecar first: a stream written over its input must keep its nonce.
    _atomic_write((meta_path, [header.to_bytes()]), (out_path, parts))
    # Each ciphered NAL was given the length of the RBSP it was made from,
    # which ciphering keeps, so the selection is sized without a rescan.
    return summarize(out_nals, selection, leading, len(data))


def cmd_decrypt(in_path, meta_path, out_path, key: KeySource) -> RunSummary:
    """Decrypt a stream file using its sidecar; inverse of cmd_encrypt. The
    summary's total_bytes is the size of the file written. A sidecar path
    that names the input or the output file, or an output or sidecar path
    that is a directory, is refused, as cmd_encrypt does, then a sidecar
    that does not parse, before the stream is read, and, before any key
    work, any listed ordinal check_cipherable refuses."""
    _refuse_targets(meta_path, in_path, out_path)
    header = CipherHeader.from_bytes(Path(meta_path).read_bytes())
    data, leading, nals = _read_stream(in_path)
    check_cipherable(nals, header.ordinals)
    ks = key_expansion(derive_key(key))
    out_nals = decrypt_stream(nals, ks, header)
    parts = splice_annexb(data, leading, nals, out_nals)
    _atomic_write((out_path, parts))
    # The NALs the sidecar does not list are the plaintext's own, so select
    # finds the slices all-i left in the clear among them. Each deciphered
    # NAL was given the length of the RBSP it was made from, so the
    # selection is sized without a rescan.
    listed = frozenset(header.ordinals)
    gap = select((n for n in nals if n.ordinal not in listed), header.policy).unparsed_ordinals
    selection = SelectionResult(header.policy, header.ordinals, gap)
    return summarize(out_nals, selection, leading, sum(map(len, parts)))


def cmd_inspect(in_path, policy: EncryptionPolicy = EncryptionPolicy.IDR_ONLY) -> StreamReport:
    """Report a stream's NAL layout without modifying anything."""
    data, leading, nals = _read_stream(in_path)
    rows = classify_stream(nals)
    return build_report(rows, select(nals, policy), leading, len(data))


def _noise(rng: random.Random, n: int, nonzero_tail: bool = False) -> bytearray:
    buf = bytearray(rng.randbytes(n))
    if nonzero_tail and n:
        buf[-1] = rng.randrange(1, 256)
    return buf


def _slice_filler(rng: random.Random, n: int) -> bytes:
    # Pseudorandom slice data with deliberate zero runs so emulation
    # prevention actually fires.
    buf = _noise(rng, n)
    pos = 0
    while True:
        pos += rng.randrange(8, 32)
        if pos + 4 >= n:
            break
        run = rng.randrange(2, 5)
        buf[pos : pos + run] = b"\x00" * run
        pos += run
    return bytes(buf)


def gen_test_stream(
    out_path,
    gop: int,
    frames: int,
    payload_size: int = 256,
    seed: int = 0,
) -> bytes:
    """Write a deterministic synthetic Annex B stream: SPS, PPS, then one
    slice NAL per frame, IDR at every GOP head.

    Slice RBSPs are exactly payload_size bytes: a valid two-element slice
    header of one byte (first_mb_in_slice=0, slice_type 7 for IDR / 0 for P)
    followed by seeded filler containing zero runs. Start codes are 4 bytes
    except the PPS and the first slice, whose predecessors are never
    encrypted; later boundaries must stay unambiguous even when ciphered
    payloads end in zero bytes, and only the 4-byte pattern guarantees that.

    Pass out_path=None to get the bytes without touching the filesystem.
    """
    if gop < 1:
        raise ValueError("gop must be at least 1")
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if payload_size < 1:
        raise ValueError("payload_size must be at least 1")
    rng = random.Random(seed)
    nals: "list[NalUnit]" = []

    def add(scl: int, header_byte: int, rbsp: bytes) -> None:
        nals.append(NalUnit(len(nals), scl, parse_nal_header(header_byte), rbsp_to_ebsp(rbsp)))

    add(4, 0x67, bytes([0x42, 0xC0, 0x1E]) + bytes(_noise(rng, 5, nonzero_tail=True)))
    add(3, 0x68, bytes([0xCE]) + bytes(_noise(rng, 3, nonzero_tail=True)))
    for i in range(frames):
        idr = i % gop == 0
        w = BitWriter()
        w.write_ue(0)  # first_mb_in_slice
        w.write_ue(7 if idr else 0)  # slice_type
        head = w.to_bytes()
        add(4 if i else 3, 0x65 if idr else 0x41, head + _slice_filler(rng, payload_size - len(head)))
    data = serialize_annexb(nals)
    if out_path is not None:
        _atomic_write((out_path, [data]))
    return data
