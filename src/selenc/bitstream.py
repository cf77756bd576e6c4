"""H.264/AVC Annex B byte-stream parsing and re-serialization.

Everything here works at the NAL-unit and slice-header syntax level; slice
data is never decoded. Parsing is lossless: concatenating the parsed pieces
reproduces the input byte-for-byte from the first start code onward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import aes
from .errors import (
    EscapingViolation,
    MalformedEscape,
    NoStartCode,
    OutOfBits,
    OutOfRange,
)

START_CODE_3 = b"\x00\x00\x01"
START_CODE_4 = b"\x00\x00\x00\x01"

NAL_NON_IDR = 1
NAL_IDR = 5
NAL_SEI = 6
NAL_SPS = 7
NAL_PPS = 8

VCL_TYPES = (NAL_NON_IDR, NAL_IDR)

_TYPE_NAMES = {
    NAL_NON_IDR: "non-IDR",
    NAL_IDR: "IDR",
    NAL_SEI: "SEI",
    NAL_SPS: "SPS",
    NAL_PPS: "PPS",
}


def nal_type_name(nal_unit_type: int) -> str:
    return _TYPE_NAMES.get(nal_unit_type, "other")


@dataclass(frozen=True)
class NalHeader:
    """The three bit fields of a NAL header byte."""

    forbidden_zero_bit: int
    nal_ref_idc: int
    nal_unit_type: int

    def __post_init__(self) -> None:
        if not (0 <= self.forbidden_zero_bit <= 1):
            raise ValueError("forbidden_zero_bit must be 0 or 1")
        if not (0 <= self.nal_ref_idc <= 3):
            raise ValueError("nal_ref_idc must fit in 2 bits")
        if not (0 <= self.nal_unit_type <= 31):
            raise ValueError("nal_unit_type must fit in 5 bits")

    def to_byte(self) -> int:
        return (self.forbidden_zero_bit << 7) | (self.nal_ref_idc << 5) | self.nal_unit_type


# Every field comes from the low 8 bits, so one NalHeader per byte value
# serves any int; split_annexb reads one per NAL.
_NAL_HEADERS = tuple(NalHeader((b >> 7) & 0x1, (b >> 5) & 0x3, b & 0x1F) for b in range(256))


def parse_nal_header(b: int) -> NalHeader:
    """Split one header byte into forbidden bit, ref idc and unit type.

    A set forbidden bit is reported through the field, never raised, so
    corrupt captures stay inspectable.
    """
    return _NAL_HEADERS[b & 0xFF]


class _Kept:
    """A NalUnit value read on first access and kept in the unit's dict
    under the method's name. A non-data descriptor, so the kept value
    shadows it, and a new unit (a dataclasses.replace copy too) starts
    unread. Not functools.cached_property, which on Python 3.10 and 3.11
    takes a lock on every first read: on CPython 3.11.7 (2-vCPU Xeon) it
    made the 124 first reads of a 62-NAL stream of 256-byte slices take
    226-322 us at best, against 173-245 us with this."""

    def __init__(self, read: "Callable[[NalUnit], object]") -> None:
        self.read, self.name, self.__doc__ = read, read.__name__, read.__doc__

    def __get__(self, nal: "Optional[NalUnit]", owner: type) -> object:
        if nal is None:
            return self
        v = nal.__dict__[self.name] = self.read(nal)
        return v

    def keep(self, nal: "NalUnit", value: object) -> None:
        """Keep ``value`` as the unit's, as a first read would, unless one
        is kept already: for a value given when the unit is built or judged
        by the helper process."""
        nal.__dict__.setdefault(self.name, value)


@dataclass(frozen=True, init=False)
class NalUnit:
    """One Annex B NAL unit: start-code width, header and escaped payload.

    ``header`` is None only in the degenerate case of a start code with no
    byte after it (truncated capture); such a unit has no payload and
    serializes back to the bare start code. split_annexb gives ``ebsp`` as
    a read-only memoryview of its input, which the unit keeps alive; a
    ciphered unit holds bytes. Both compare and hash by content.
    ``escape_violation`` is the first forbidden run in the payload, or in a
    header byte 00 and the payload after it, with its offset, as text, or
    None. It is judged on first read and kept, so a NAL that no command
    writes or reports, as a cipher command copies most, is never scanned:
    slice_info does not read it. ``rbsp_size`` is kept the same way, unless
    the unit is built from an RBSP of known length and given it.
    classify_stream may keep both as the helper process judged them, and
    the cipher pass keeps a clean verdict for each unit it escapes.
    """

    ordinal: int
    start_code_len: int
    header: Optional[NalHeader]
    ebsp: "bytes | memoryview"

    def __init__(
        self,
        ordinal: int,
        start_code_len: int,
        header: Optional[NalHeader],
        ebsp: "bytes | memoryview",
        *,
        rbsp_size: Optional[int] = None,
    ) -> None:
        # One dict update rather than a frozen dataclass's setattr per
        # field: split_annexb makes one unit per NAL on every command.
        if start_code_len != 3 and start_code_len != 4:
            raise ValueError("start_code_len must be 3 or 4")
        if header is None and ebsp:
            raise ValueError("a NAL with no header byte has no payload")
        self.__dict__.update(ordinal=ordinal, start_code_len=start_code_len, header=header, ebsp=ebsp)
        if rbsp_size is not None:
            NalUnit.rbsp_size.keep(self, rbsp_size)

    def start_code(self) -> bytes:
        return START_CODE_4 if self.start_code_len == 4 else START_CODE_3

    def to_bytes(self) -> bytes:
        if self.header is None:
            return self.start_code()
        return self.start_code() + bytes((self.header.to_byte(),)) + self.ebsp

    def wire_size(self) -> int:
        return self.start_code_len + (0 if self.header is None else 1 + len(self.ebsp))

    @_Kept
    def rbsp_size(self) -> int:
        """RBSP bytes of a clean payload: its size less its 00 00 03 count."""
        return len(self.ebsp) - _escapes(self.ebsp)

    @_Kept
    def escape_violation(self) -> Optional[str]:
        h = self.header
        return _violation(self.ebsp, h is not None and not h.to_byte())

    @_Kept
    def slice_info(self) -> "Optional[SliceInfo]":
        """The slice header of a slice NAL, whatever runs its payload holds;
        None for other NALs and for a header that does not parse. It is read
        from the first 16 payload bytes, stripped unjudged: they strip to a
        prefix of the whole stripped payload of at least 88 bits, more than
        parse_slice_info reads from any header it accepts. The escape verdict
        is left to the code that writes or reports the NAL."""
        h = self.header
        if h is None or h.nal_unit_type not in VCL_TYPES:
            return None
        try:
            return parse_slice_info(ebsp_to_rbsp(self.ebsp[:16], None))
        except (OutOfBits, OutOfRange):
            return None


# Emulation prevention (H.264 7.3.1, 7.4.1). Unescaping drops the 03 of every
# 00 00 03. An escaped payload must never hold 00 00 followed by 00, 01 or 02,
# nor 00 00 03 followed by a byte above 03. Escaping inserts 0x03 after every
# two zero bytes that precede a byte <= 0x03; matches do not overlap, so
# 00 00 00 00 becomes 00 00 03 00 00.
_EPB_INSERT = re.compile(b"\x00\x00(?=[\x00-\x03])")
_EPB_VIOLATION = re.compile(b"\x00\x00(?:[\x00-\x02]|\x03[\x04-\xff])")


def find_escape_violation(ebsp: bytes) -> int:
    """Offset of the first forbidden run, 00 00 0X (X <= 2) or 00 00 03 0Y
    (Y > 3), or -1 if clean."""
    m = _EPB_VIOLATION.search(ebsp)
    return -1 if m is None else m.start()


def _escapes(ebsp: bytes) -> int:
    """The payload's 00 00 03 count, which unescaping drops one byte of."""
    return bytes(ebsp).count(b"\x00\x00\x03")


def _violation(ebsp: bytes, zero_header: bool = False) -> Optional[str]:
    """The first forbidden run in ``ebsp`` and where it starts, as error
    text, or None if clean. After a header byte 00 a run can start at that
    byte, so such a payload is scanned with the byte before it."""
    m = _EPB_VIOLATION.search(b"\x00" + ebsp if zero_header else ebsp)
    if m is None:
        return None
    at = m.start() - zero_header
    return f"{m.group().hex(' ')} at " + ("the header byte" if at < 0 else f"payload offset {at}")


_UNJUDGED = object()


def ebsp_to_rbsp(ebsp: bytes, verdict: "Optional[str] | object" = _UNJUDGED) -> bytes:
    """Strip emulation-prevention bytes: the 03 of every 00 00 03 goes.

    Raises MalformedEscape on a run that find_escape_violation finds, which
    a properly escaped payload can never contain. A caller passes a verdict
    it has read, as a NAL's escape_violation, or None for bytes it leaves
    unjudged, as slice_info's header prefix: the payload is then not
    scanned, and a verdict that is set is raised as the scan's would be.
    """
    v = _violation(ebsp) if verdict is _UNJUDGED else verdict
    if v is not None:
        raise MalformedEscape(f"unescaped {v}")
    return bytes(ebsp).replace(b"\x00\x00\x03", b"\x00\x00")


def rbsp_to_ebsp(rbsp: bytes) -> bytes:
    """Insert emulation-prevention 0x03 bytes so no 00 00 0X (X <= 2) survives."""
    return _EPB_INSERT.sub(b"\x00\x00\x03", rbsp)


def _next_start_code(data: bytes, start: int) -> "tuple[int, int]":
    """Locate the next start code at or after ``start`` as (offset, length).

    Equivalent to a forward byte scan that tries the 4-byte pattern before
    the 3-byte one at every position, so a payload ending in zero bytes never
    donates bytes to a following 4-byte start code. Returns (-1, 0) if none.
    """
    j = data.find(START_CODE_3, start)
    if j == -1:
        return -1, 0
    if j > start and data[j - 1] == 0x00:
        return j - 1, 4
    return j, 3


def split_annexb(stream: bytes) -> "tuple[bytes, list[NalUnit]]":
    """Split a stream into (bytes before the first start code, NAL units).

    Empty input yields (b"", []). A nonempty stream without any start code
    raises NoStartCode. The final NAL extends to the end of the stream.
    Each payload is a read-only view of the stream, not a copy; input that
    is not ``bytes`` is copied once first, so no view aliases a buffer the
    caller can still write.
    """
    if type(stream) is not bytes:
        stream = bytes(stream)
    if len(stream) == 0:
        return b"", []
    pos, scl = _next_start_code(stream, 0)
    if pos == -1:
        raise NoStartCode("no 00 00 01 start-code prefix in stream")
    leading = stream[:pos]
    view = memoryview(stream)
    nals: "list[NalUnit]" = []
    ordinal = 0
    while True:
        body_start = pos + scl
        nxt, nxt_len = _next_start_code(stream, body_start)
        body_end = len(stream) if nxt == -1 else nxt
        header = parse_nal_header(stream[body_start]) if body_start < body_end else None
        nals.append(NalUnit(ordinal, scl, header, view[body_start + 1 : body_end]))
        ordinal += 1
        if nxt == -1:
            return leading, nals
        pos, scl = nxt, nxt_len


def _judge(nal: NalUnit, next_start_code_len: int) -> None:
    # check_escaping's rule for one NAL, written before a start code of
    # next_start_code_len bytes (0 if none follows).
    if nal.escape_violation is not None:
        raise EscapingViolation(f"NAL {nal.ordinal}: {nal.escape_violation}")
    if next_start_code_len == 3:
        if nal.ebsp[-1:] == b"\x00":
            raise EscapingViolation(f"NAL {nal.ordinal}: payload ends in 00 before a 3-byte start code")
        if not nal.ebsp and nal.header is not None and not nal.header.to_byte():
            raise EscapingViolation(f"NAL {nal.ordinal}: header byte 00 ends it before a 3-byte start code")


def check_escaping(nals: Sequence[NalUnit], leading: bytes = b"") -> None:
    """Raise EscapingViolation naming the first NAL that would not read back
    as itself once written: its payload, or a header byte 00 and the
    payload after it, holds a run find_escape_violation finds (00 00 0X,
    X <= 2, mimics a start code; 00 00 03 0Y, Y > 3, is no escape), or its
    last byte is 00 before a 3-byte start code, which a reader takes into a
    4-byte code (7.4.1 also says a NAL's last byte is never 00). ``leading``,
    the bytes written before the first start code, must hold no start code,
    must not end in 00 before a 3-byte one, and needs a NAL after it.

    It reads every NAL's verdict, so it scans each payload not yet judged:
    serialize_annexb runs it on lists built by hand or ciphered whole, and
    selective.check_cipherable on each NAL to cipher, alone. The cipher
    commands judge only the NALs they rewrite (see splice_annexb)."""
    if leading:
        if START_CODE_3 in leading:
            raise EscapingViolation("leading bytes hold a start code")
        if not nals:
            raise EscapingViolation("leading bytes with no NAL after them")
        if nals[0].start_code_len == 3 and leading[-1] == 0:
            raise EscapingViolation("leading bytes end in 00 before a 3-byte start code")
    for k, nal in enumerate(nals, 1):
        _judge(nal, nals[k].start_code_len if k < len(nals) else 0)


def serialize_annexb(nals: Iterable[NalUnit], leading: bytes = b"") -> bytes:
    """Concatenate start codes, header bytes and payloads back into a stream
    once check_escaping passes them and ``leading``, so a list that would
    not split back into itself is refused, never written. Given the input
    bytes, splice_annexb makes the same stream, as parts, with less work."""
    nals = list(nals)
    check_escaping(nals, leading)
    return b"".join([leading, *(nal.to_bytes() for nal in nals)])


def splice_annexb(
    data: bytes, leading: bytes, nals: Sequence[NalUnit], out_nals: Sequence[NalUnit]
) -> "list[bytes | memoryview]":
    """The stream of ``leading`` and out_nals, as parts to write in order,
    where split_annexb(data) gave (leading, nals) and out_nals replaces some
    of those NALs, each with one of the same start code (as encrypt_nal
    makes; another start code, or lists of other lengths, raise
    ValueError). Each run of kept NALs is one view of ``data``, and each
    replaced NAL is its to_bytes(); nothing is joined.

    Only the replaced NALs are judged, each once, by check_escaping's rule;
    one the cipher pass escaped keeps a clean verdict, so only its last byte
    is read. The kept NALs and ``leading`` are the bytes split_annexb read
    them from, so they read back as themselves: a kept NAL that breaks the
    escaping rule is copied byte for byte, unscanned. Where every NAL
    passes, the joined parts are serialize_annexb(out_nals, leading)."""
    view = memoryview(data)
    parts = []
    copied, pos = 0, len(leading)
    for k, (nal, out) in enumerate(zip(nals, out_nals, strict=True), 1):
        if out is not nal:
            if out.start_code_len != nal.start_code_len:
                raise ValueError(f"NAL {nal.ordinal} is replaced by one with another start code")
            _judge(out, out_nals[k].start_code_len if k < len(out_nals) else 0)
            parts += (view[copied:pos], out.to_bytes())
            copied = pos + nal.wire_size()
        pos += nal.wire_size()
    parts.append(view[copied:])
    return parts


class BitReader:
    """MSB-first bit cursor over a byte sequence.

    A mutable cursor: share the bytes, not the reader, across threads.
    """

    def __init__(self, source: bytes):
        self.source = source
        self.position = 0  # bit offset from the start of ``source``

    @property
    def bits_left(self) -> int:
        return 8 * len(self.source) - self.position

    def read_bit(self) -> int:
        if self.position >= 8 * len(self.source):
            raise OutOfBits(f"bit read at offset {self.position} past end of buffer")
        byte = self.source[self.position >> 3]
        bit = (byte >> (7 - (self.position & 7))) & 1
        self.position += 1
        return bit

    def read_bits(self, n: int) -> int:
        value = 0
        for _ in range(n):
            value = (value << 1) | self.read_bit()
        return value

    def read_ue(self) -> int:
        """Decode one order-0 Exp-Golomb codeword.

        Count n leading zero bits, consume the terminating 1 bit, then read n
        suffix bits: the value is 2**n - 1 + suffix.
        """
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        return (1 << zeros) - 1 + self.read_bits(zeros)


class BitWriter:
    """MSB-first bit accumulator, the encoding mirror of BitReader.

    The bits written so far are the low ``bit_length`` bits of one integer.
    """

    def __init__(self) -> None:
        self._acc = 0
        self.bit_length = 0

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit, 1)

    def write_bits(self, value: int, n: int) -> None:
        """Append the low ``n`` bits of ``value``, most significant first."""
        self._acc = (self._acc << n) | (value & ((1 << n) - 1))
        self.bit_length += n

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise ValueError("ue(v) encodes unsigned values only")
        n = (value + 1).bit_length() - 1
        # n leading zero bits, then value + 1 in its n + 1 bits.
        self.write_bits(value + 1, 2 * n + 1)

    def to_bytes(self) -> bytes:
        """Pack accumulated bits, zero-padding the final partial byte."""
        pad = -self.bit_length % 8
        return (self._acc << pad).to_bytes((self.bit_length + pad) // 8, "big")


# What a NamedTuple's own __new__ calls, less its Python frame: the hot
# paths build SliceInfo and ReportRow records through it.
_new = tuple.__new__


class SliceInfo(NamedTuple):
    """The two leading slice-header syntax elements. A named tuple: it costs
    about what a tuple costs to build, and equals the plain tuple of its
    fields."""

    first_mb_in_slice: int
    slice_type: int

    @property
    def is_intra(self) -> bool:
        # slice_type 2/7 are I slices; 5..9 alias 0..4, hence the mod-5 rule.
        return self.slice_type % 5 == 2


def parse_slice_info(rbsp: bytes) -> SliceInfo:
    """Read first_mb_in_slice and slice_type from the start of a slice RBSP.
    A field out of range raises OutOfRange, so an accepted header takes at
    most 35 + 7 = 42 bits: first_mb_in_slice < PicSizeInMbs <= 139,264 (7.4.3
    and the largest MaxFS in Table A-1), slice_type <= 9. A codeword that
    does not end inside ``rbsp`` raises OutOfBits, as a bit-by-bit read does.

    Both ue(v) fields come from one integer of the given bytes: a codeword
    with z leading zeros is its first 2z + 1 bits, which read as an integer
    are ue + 1. NalUnit.slice_info passes the unescaped first 16 payload
    bytes; a longer input is read whole."""
    n = 8 * len(rbsp)
    v = int.from_bytes(rbsp, "big")
    n -= 2 * (n - v.bit_length()) + 1  # bits left after the first codeword
    if n >= 0:
        first_mb = (v >> n) - 1
        if first_mb >= 139_264:
            raise OutOfRange(f"first_mb_in_slice {first_mb} outside [0, 139263]")
        v &= (1 << n) - 1
        n -= 2 * (n - v.bit_length()) + 1
        if n >= 0:
            slice_type = (v >> n) - 1
            if slice_type > 9:
                raise OutOfRange(f"slice_type {slice_type} outside [0, 9]")
            return _new(SliceInfo, (first_mb, slice_type))
    raise OutOfBits(f"bit read at offset {8 * len(rbsp)} past end of buffer")


class ReportRow(NamedTuple):
    """Per-NAL inspection record; a named tuple, as SliceInfo is."""

    ordinal: int
    nal_type: int
    type_name: str
    size: int  # EBSP payload bytes on the wire
    rbsp_size: int
    slice_info: Optional[SliceInfo]
    unparsed: bool  # slice NAL whose header could not be read
    forbidden_bit: bool
    malformed_escape: bool  # the NAL's escape_violation is set


def _judge_back_half(nals: "list[NalUnit]") -> "tuple[int, Callable[[], None]]":
    """Offer the back half of the payload bytes classify_stream must judge
    to this process's helper, through aes._judge_off: the payloads after a
    non-zero header byte with no verdict kept yet, cut after the NAL that
    reaches half of their bytes. The back half is offered only if it holds
    at least one _CHUNK_BLOCKS chunk of bytes, the size of a cipher piece.
    Returns the position of the first NAL handed off (len(nals) if none
    was) and a function that keeps the helper's verdicts and counts as
    those NALs' escape_violation and rbsp_size; if the helper failed, it
    keeps nothing, and they are judged here when read."""
    unit = aes.BLOCK_SIZE * aes._CHUNK_BLOCKS
    if sum([len(nal.ebsp) for nal in nals]) < 2 * unit:  # no back half can hold a unit
        return len(nals), lambda: None
    todo = [
        (i, nal) for i, nal in enumerate(nals)
        if nal.header is not None and nal.header.to_byte() and "escape_violation" not in nal.__dict__
    ]
    total, front, k = sum(len(nal.ebsp) for _, nal in todo), 0, 0
    while 2 * front < total:
        front += len(todo[k][1].ebsp)
        k += 1
    back = todo[k:]
    receive = None
    if total - front >= unit:
        receive = aes._judge_off([nal.ebsp for _, nal in back])
    if receive is None:
        return len(nals), lambda: None

    def keep() -> None:
        for (_, nal), (verdict, escapes) in zip(back, receive() or ()):
            NalUnit.escape_violation.keep(nal, verdict)
            NalUnit.rbsp_size.keep(nal, len(nal.ebsp) - escapes)

    return back[0][0], keep


def classify_stream(nals: Iterable[NalUnit]) -> "list[ReportRow]":
    """One inspection row per NAL; never raises on corrupt payloads. A row's
    slice header is its NAL's slice_info, so select does not read it again.
    While the helper process judges the back half of the payloads (see
    _judge_back_half), this process judges the front half; every row is
    the same as when all are judged here."""
    nals = list(nals)
    cut, keep = _judge_back_half(nals)
    # The reply is read even if the front half raises, so the helper is
    # never left holding an unread reply.
    try:
        rows = _rows(nals[:cut])
    finally:
        keep()
    return rows + _rows(nals[cut:])


def _rows(nals: "list[NalUnit]") -> "list[ReportRow]":
    rows = []
    for nal in nals:
        if nal.header is None:
            rows.append(ReportRow(nal.ordinal, -1, "empty", 0, 0, None, False, False, False))
            continue
        t = nal.header.nal_unit_type
        info = nal.slice_info
        malformed = nal.escape_violation is not None
        size = len(nal.ebsp)
        rbsp_size = size if malformed else nal.rbsp_size
        unparsed = t in VCL_TYPES and info is None
        forbidden = bool(nal.header.forbidden_zero_bit)
        rows.append(_new(ReportRow, (
            nal.ordinal, t, nal_type_name(t), size, rbsp_size, info, unparsed, forbidden, malformed
        )))
    return rows
