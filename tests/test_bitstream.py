import tracemalloc
import types
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selenc import bitstream
from selenc.bitstream import (
    BitReader,
    BitWriter,
    NalHeader,
    NalUnit,
    ReportRow,
    SliceInfo,
    VCL_TYPES,
    _Kept,
    check_escaping,
    classify_stream,
    ebsp_to_rbsp,
    find_escape_violation,
    nal_type_name,
    parse_nal_header,
    parse_slice_info,
    rbsp_to_ebsp,
    serialize_annexb,
    splice_annexb,
    split_annexb,
)
from selenc.errors import (
    EscapingViolation,
    MalformedEscape,
    NoStartCode,
    OutOfBits,
    OutOfRange,
)
from selenc.harness import bitreader_slice_info
from selenc.pipeline import gen_test_stream


def ue_decode_oracle(bits: str):
    """Independent Exp-Golomb decoder over a '0'/'1' string.

    Returns (value, bits consumed)."""
    zeros = 0
    while bits[zeros] == "0":
        zeros += 1
    suffix = bits[zeros + 1 : zeros + 1 + zeros]
    if len(suffix) < zeros:
        raise ValueError("truncated codeword")
    return (1 << zeros) - 1 + (int(suffix, 2) if suffix else 0), 2 * zeros + 1


def bits_of(data: bytes) -> str:
    return "".join(f"{b:08b}" for b in data)


# Byte-at-a-time escaping, kept as the reference for the pattern-based
# functions in selenc.bitstream.
def ebsp_to_rbsp_loop(ebsp: bytes) -> bytes:
    # The H.264 7.3.1 nal_unit() loop: where the next three bytes are
    # 00 00 03, emit the two zero bytes and drop the emulation_prevention_three_byte.
    out = bytearray()
    i = 0
    while i < len(ebsp):
        if ebsp[i : i + 3] == b"\x00\x00\x03":
            out += b"\x00\x00"
            i += 3
        else:
            out.append(ebsp[i])
            i += 1
    return bytes(out)


def rbsp_to_ebsp_loop(rbsp: bytes) -> bytes:
    out = bytearray()
    zeros = 0
    for b in rbsp:
        if zeros >= 2 and b <= 0x03:
            out.append(0x03)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


def escape_violation_loop(ebsp: bytes) -> int:
    # H.264 7.4.1: within a NAL payload, 00 00 must not precede 00, 01 or 02,
    # and 00 00 03 must not precede a byte above 03.
    for i in range(len(ebsp) - 2):
        if ebsp[i] == 0 and ebsp[i + 1] == 0:
            if ebsp[i + 2] <= 0x02 or ebsp[i + 2] == 0x03 and ebsp[i + 3 : i + 4] > b"\x03":
                return i
    return -1


def violation_text(ebsp: bytes, zero_header: bool = False):
    # The forbidden run escape_violation_loop finds and where, as the error
    # text names them; None if there is none. After a header byte 00 the
    # loop reads that byte and the payload.
    data = b"\x00" + ebsp if zero_header else ebsp
    v = escape_violation_loop(data)
    if v == -1:
        return None
    where = "the header byte" if zero_header and v == 0 else f"payload offset {v - zero_header}"
    return f"{data[v : v + (4 if data[v + 2] == 0x03 else 3)].hex(' ')} at {where}"


ZERO_HEAVY = [0, 0, 0, 0, 1, 2, 3, 3, 4, 0x80, 0xFF]
zero_heavy = st.lists(st.sampled_from(ZERO_HEAVY), max_size=64).map(bytes)


class TestNalHeader:
    @pytest.mark.parametrize(
        "byte,expected",
        [
            (0x65, (0, 3, 5)),  # IDR slice
            (0x67, (0, 3, 7)),  # SPS
            (0x00, (0, 0, 0)),
            (0x41, (0, 2, 1)),
            (0xE8, (1, 3, 8)),  # forbidden bit set, still parsed
        ],
    )
    def test_bit_fields(self, byte, expected):
        h = parse_nal_header(byte)
        assert (h.forbidden_zero_bit, h.nal_ref_idc, h.nal_unit_type) == expected

    @given(st.integers(0, 255))
    def test_round_trip(self, byte):
        assert parse_nal_header(byte).to_byte() == byte

    @pytest.mark.parametrize("values", [range(256), (-1, -0x9B, 0x165, 0x1FF, 1 << 40)])
    def test_table_matches_masks(self, values):
        # parse_nal_header reads a table built at import; any int, in range
        # or not, must give the fields its low 8 bits give.
        for b in values:
            assert parse_nal_header(b) == NalHeader((b >> 7) & 0x1, (b >> 5) & 0x3, b & 0x1F), b

    def test_field_validation(self):
        with pytest.raises(ValueError):
            NalHeader(0, 4, 1)
        with pytest.raises(ValueError):
            NalHeader(0, 0, 32)
        with pytest.raises(ValueError):
            NalHeader(2, 0, 0)

    def test_type_names(self):
        assert nal_type_name(7) == "SPS"
        assert nal_type_name(8) == "PPS"
        assert nal_type_name(6) == "SEI"
        assert nal_type_name(5) == "IDR"
        assert nal_type_name(1) == "non-IDR"
        assert nal_type_name(9) == "other"


class TestScan:
    def test_empty_stream(self):
        assert split_annexb(b"")[1] == []

    def test_two_nals_mixed_start_codes(self):
        nals = split_annexb(bytes.fromhex("00000001" "67" "aa" "000001" "65" "bb"))[1]
        assert len(nals) == 2
        first, second = nals
        assert (first.start_code_len, first.header.nal_unit_type, first.ebsp) == (4, 7, b"\xaa")
        assert (second.start_code_len, second.header.nal_unit_type, second.ebsp) == (3, 5, b"\xbb")

    def test_empty_payloads(self):
        nals = split_annexb(bytes.fromhex("000001" "41" "000001" "41"))[1]
        assert [n.header.nal_unit_type for n in nals] == [1, 1]
        assert [n.ebsp for n in nals] == [b"", b""]

    def test_ordinals_contiguous(self):
        nals = split_annexb(b"\x00\x00\x01\x41" * 7)[1]
        assert [n.ordinal for n in nals] == list(range(7))

    def test_no_start_code(self):
        with pytest.raises(NoStartCode):
            split_annexb(b"\xff\x00\xff")
        with pytest.raises(NoStartCode):
            split_annexb(b"\x00")

    def test_leading_garbage(self):
        leading, nals = split_annexb(b"\xde\xad\x00\x00\x01\x65\x01")
        assert leading == b"\xde\xad"
        assert len(nals) == 1 and nals[0].header.nal_unit_type == 5

    def test_leading_zero_joins_start_code(self):
        # A single zero before 00 00 01 reads as a 4-byte start code.
        leading, nals = split_annexb(b"\xff\x00\x00\x00\x01\x65")
        assert leading == b"\xff"
        assert nals[0].start_code_len == 4

    def test_trailing_start_code_has_no_header(self):
        nals = split_annexb(b"\x00\x00\x01\x41\xaa\x00\x00\x01")[1]
        assert len(nals) == 2
        assert nals[1].header is None and nals[1].ebsp == b""

    def test_payloads_are_read_only_views(self):
        data = bytes.fromhex("00000001" "67" "aa" "000001" "65" "bbcc")
        leading, nals = split_annexb(data)
        for nal in nals:
            assert isinstance(nal.ebsp, memoryview) and nal.ebsp.readonly
            assert nal.ebsp.obj is data
        assert type(leading) is bytes

    def test_views_never_alias_a_writable_buffer(self):
        # The split copies a buffer the caller can still write, so a later
        # write leaves the NALs as they were, and they hash like NALs whose
        # payloads are bytes.
        data = bytes.fromhex("00000001" "67" "aa" "000001" "65" "bbcc")
        buf = bytearray(data)
        leading, nals = split_annexb(buf)
        buf[-2:] = b"\x11\x22"
        twins = [replace(n, ebsp=bytes(n.ebsp)) for n in split_annexb(data)[1]]
        assert nals == twins
        assert [hash(n) for n in nals] == [hash(t) for t in twins]
        assert nals[1].ebsp == b"\xbb\xcc"

    def test_split_holds_no_payload_copies(self):
        # 4.22 MB in 502 NALs: the split keeps views and small objects only.
        data = gen_test_stream(None, gop=1, frames=500, payload_size=8192, seed=3)
        tracemalloc.start()
        try:
            split_annexb(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_payload_zeros_stay_with_payload_before_4byte_code(self):
        # EBSP may end with up to two zeros; the following 4-byte start code
        # must still be attributed correctly.
        data = b"\x00\x00\x01\x41\xaa\x00\x00" + b"\x00\x00\x00\x01\x41\xbb"
        nals = split_annexb(data)[1]
        assert [n.start_code_len for n in nals] == [3, 4]
        assert nals[0].ebsp == b"\xaa\x00\x00"
        assert nals[1].ebsp == b"\xbb"


class TestSerialize:
    def test_empty(self):
        assert serialize_annexb([]) == b""

    def test_single_nal(self):
        nal = NalUnit(0, 4, parse_nal_header(0x67), b"\xaa")
        assert serialize_annexb([nal]) == bytes.fromhex("0000000167aa")

    def test_leading_preserved(self):
        nal = NalUnit(0, 3, parse_nal_header(0x41), b"")
        assert serialize_annexb([nal], leading=b"\xba\xad") == b"\xba\xad\x00\x00\x01\x41"

    @pytest.mark.parametrize("bad", [b"\x00\x00\x00", b"\x00\x00\x01", b"\xaa\x00\x00\x02\xff"])
    def test_escaping_violation(self, bad):
        nal = NalUnit(0, 4, parse_nal_header(0x65), bad)
        with pytest.raises(EscapingViolation):
            serialize_annexb([nal])

    @given(st.binary(max_size=300))
    def test_reconstruction_of_arbitrary_streams(self, tail):
        # Whatever follows the first start code, scanning partitions it
        # losslessly.
        stream = b"\x00\x00\x01" + tail
        leading, nals = split_annexb(stream)
        assert leading == b""
        assert b"".join(n.to_bytes() for n in nals) == stream


def valid_nal_lists():
    payload = st.binary(max_size=40).map(rbsp_to_ebsp)
    raw = st.lists(st.tuples(payload, st.integers(0, 255), st.sampled_from((3, 4))), min_size=1, max_size=8)

    def build(items):
        nals = []
        prev_tail_zero = False
        for i, (ebsp, header_byte, scl) in enumerate(items):
            if prev_tail_zero:
                scl = 4  # a 3-byte code after a zero tail would re-scan as 4-byte
            if header_byte == 0 and ebsp[:1] == b"\x00":
                header_byte = 0x01  # 00 00 0X across the header byte is refused
            nals.append(NalUnit(i, scl, parse_nal_header(header_byte), ebsp))
            last_byte = ebsp[-1] if ebsp else header_byte
            prev_tail_zero = last_byte == 0
        return nals

    return raw.map(build)


def built_nal_lists():
    """NAL lists as a caller builds them, not as split_annexb gives them: a
    header byte, 00 included, before a payload, raw or escaped, that may
    hold a forbidden run or end in 00 before any start code; or a NAL with
    no header byte and an empty payload."""
    payload = st.one_of(zero_heavy, zero_heavy.map(rbsp_to_ebsp))
    header = st.one_of(st.just(0x00), st.integers(0, 255))
    body = st.one_of(st.tuples(header, payload), st.just((None, b"")))
    units = st.lists(st.tuples(st.sampled_from((3, 4)), body), min_size=1, max_size=6)
    return units.map(lambda us: [
        NalUnit(i, scl, None if h is None else parse_nal_header(h), ebsp)
        for i, (scl, (h, ebsp)) in enumerate(us)
    ])


# Bytes before the first start code: nothing, plain bytes, or bytes that
# end in zeros or hold a start code.
leading_bytes = st.one_of(
    st.just(b""),
    st.binary(max_size=4).map(lambda b: b"\xff" + b),
    st.lists(st.sampled_from(ZERO_HEAVY), max_size=6).map(bytes),
)


class TestRoundTrip:
    @settings(deadline=None)
    @given(valid_nal_lists())
    def test_scan_of_serialize_is_identity(self, nals):
        data = serialize_annexb(nals)
        rescan = split_annexb(data)[1]
        assert rescan == nals
        assert serialize_annexb(rescan) == data

    def test_spec_shape_stream(self):
        data = bytes.fromhex("00000001" "67" "aa" "000001" "65" "bb")
        assert serialize_annexb(split_annexb(data)[1]) == data

    @settings(max_examples=500, deadline=None)
    @given(leading_bytes, built_nal_lists())
    @example(b"", [
        NalUnit(0, 4, parse_nal_header(0x65), b"\xaa\x00"),
        NalUnit(1, 3, parse_nal_header(0x65), b"\xbb"),
    ])
    @example(b"", [NalUnit(0, 4, parse_nal_header(0x00), b"\x00\x01")])
    @example(b"\xff\x00", [NalUnit(0, 3, parse_nal_header(0x65), b"\xaa")])
    def test_serialize_writes_what_reads_back_or_refuses(self, leading, nals):
        try:
            data = serialize_annexb(nals, leading)
        except EscapingViolation:
            return
        assert split_annexb(data) == (leading, nals)

    @pytest.mark.parametrize(
        "payloads,scls,refusal",
        [
            ([b"\xaa\x00", b"\xbb"], (4, 3), "NAL 0: payload ends in 00 before a 3-byte start code"),
            ([b"\xaa\x00"] * 3, (4, 4, 3), "NAL 1: payload ends in 00 before a 3-byte start code"),
            ([b"\x00\x00\x02\x00", b"\xbb"], (4, 3), "NAL 0: 00 00 02 at payload offset 0"),
            ([b"\xaa\x00", b"\xbb"], (4, 4), None),
            ([b"\xaa\x00"], (3,), None),
        ],
    )
    def test_check_escaping_refuses_a_zero_tail_before_a_three_byte_code(
        self, payloads, scls, refusal
    ):
        nals = [NalUnit(i, s, parse_nal_header(0x65), e) for i, (e, s) in enumerate(zip(payloads, scls))]
        if refusal is None:
            check_escaping(nals)
        else:
            with pytest.raises(EscapingViolation) as exc:
                check_escaping(nals)
            assert str(exc.value) == refusal

    @pytest.mark.parametrize("scl", [3, 4])
    def test_a_nal_with_no_header_has_no_payload(self, scl):
        with pytest.raises(ValueError):
            NalUnit(0, scl, None, b"\xaa")
        assert NalUnit(0, scl, None, b"").to_bytes() == b"\x00" * (scl - 1) + b"\x01"

    @pytest.mark.parametrize(
        "leading,nals,refusal",
        [
            # 00000001 00 0001: the header byte starts a 3-byte start code.
            (b"", [NalUnit(0, 4, parse_nal_header(0x00), b"\x00\x01")],
             "NAL 0: 00 00 01 at the header byte"),
            # 000001 00 000001 65: the header byte joins the next start code.
            (b"", [NalUnit(0, 3, parse_nal_header(0x00), b""), NalUnit(1, 3, parse_nal_header(0x65), b"")],
             "NAL 0: header byte 00 ends it before a 3-byte start code"),
            # ff 00 000001 65 aa: the 00 joins the first start code.
            (b"\xff\x00", [NalUnit(0, 3, parse_nal_header(0x65), b"\xaa")],
             "leading bytes end in 00 before a 3-byte start code"),
            (b"\xff\x00\x00\x01", [NalUnit(0, 4, parse_nal_header(0x65), b"\xaa")],
             "leading bytes hold a start code"),
            (b"\xff", [], "leading bytes with no NAL after them"),
        ],
        ids=["header-byte-00", "header-byte-00-last", "leading-ends-in-00", "leading-start-code", "leading-alone"],
    )
    def test_writer_holes_are_refused(self, leading, nals, refusal):
        with pytest.raises(EscapingViolation) as exc:
            serialize_annexb(nals, leading)
        assert str(exc.value) == refusal

    @pytest.mark.parametrize(
        "ebsp,verdict",
        [
            (b"\x00\x03\x05", "00 00 03 05 at the header byte"),
            (b"\x00\x02", "00 00 02 at the header byte"),
            (b"\xaa\x00\x00\x02", "00 00 02 at payload offset 1"),
            (b"\x00\x03\x01", None),  # an escape that starts at the header byte
            (b"\x01\x00\x00", None),
        ],
    )
    def test_header_byte_00_is_judged_with_its_payload(self, ebsp, verdict):
        (nal,) = split_annexb(b"\x00\x00\x00\x01\x00" + ebsp)[1]
        assert (nal.header.to_byte(), bytes(nal.ebsp), nal.escape_violation) == (0, ebsp, verdict)
        if verdict is None:
            check_escaping([nal])
        else:
            with pytest.raises(EscapingViolation, match=f"^NAL 0: {verdict}$"):
                check_escaping([nal])


def annexb_units():
    """Start codes of both widths, each followed by nothing (a header-less
    unit), or by a header byte and a payload: mostly an escaped one, but
    also raw zero-heavy bytes, which may hold a forbidden run."""
    payload = st.one_of(zero_heavy.map(rbsp_to_ebsp), st.binary(max_size=40).map(rbsp_to_ebsp), zero_heavy)
    unit = st.tuples(
        st.sampled_from((b"\x00\x00\x01", b"\x00\x00\x00\x01")),
        st.one_of(st.none(), st.integers(0, 255)),
        payload,
    )
    return st.lists(unit, min_size=1, max_size=8).map(
        lambda units: b"".join(sc + (b"" if h is None else bytes((h,)) + p) for sc, h, p in units)
    )


class TestSplice:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=6), annexb_units(), st.data())
    def test_matches_serialize(self, garbage, body, data):
        # splice_annexb judges only the NALs it replaces; a kept NAL, badly
        # escaped or not, is copied as split_annexb read it. So it refuses,
        # with serialize_annexb's text, exactly when a replaced NAL breaks
        # the rule, and otherwise writes a stream that reads back as the
        # NAL list: serialize_annexb's bytes wherever every NAL passes.
        stream = garbage + body
        leading, nals = split_annexb(stream)
        out_nals = [
            n if n.header is None or not data.draw(st.booleans())
            # A re-escaped replacement may be longer or shorter than the
            # payload it replaces; a raw one may break the escaping rule.
            else replace(n, ebsp=data.draw(st.one_of(zero_heavy.map(rbsp_to_ebsp), zero_heavy)))
            for n in nals
        ]
        # serialize_annexb judges every NAL. With each kept NAL swapped for
        # a clean one of the same start code and header byte, its refusal
        # is the replaced NALs' refusal.
        stand_ins = [
            out if out is not n or n.header is None else replace(n, ebsp=b"\xff")
            for n, out in zip(nals, out_nals)
        ]
        try:
            serialize_annexb(stand_ins, leading)
        except EscapingViolation as exc:
            with pytest.raises(EscapingViolation) as got:
                splice_annexb(stream, leading, nals, out_nals)
            assert str(got.value) == str(exc)
            return
        written = b"".join(splice_annexb(stream, leading, nals, out_nals))
        assert written == leading + b"".join(n.to_bytes() for n in out_nals)
        assert split_annexb(written) == (leading, out_nals)
        try:
            want = serialize_annexb(out_nals, leading)
        except EscapingViolation:
            assert any(n.escape_violation is not None for n in nals)
        else:
            assert written == want

    @pytest.mark.parametrize("drop", [1, -1])
    def test_refuses_a_nal_list_of_another_length(self, drop):
        stream = bytes.fromhex("00000001" "67" "aa" "000001" "65" "bb")
        leading, nals = split_annexb(stream)
        out_nals = nals[:drop] if drop > 0 else nals + nals[:1]
        with pytest.raises(ValueError):
            splice_annexb(stream, leading, nals, out_nals)

    def test_refuses_a_replacement_with_another_start_code(self):
        # The kept bytes before a replaced NAL were read before its start
        # code: here leading ff 00 would join a 3-byte code.
        stream = bytes.fromhex("ff00" "00000001" "65" "aa")
        leading, nals = split_annexb(stream)
        assert (leading, nals[0].start_code_len) == (b"\xff\x00", 4)
        with pytest.raises(ValueError, match="^NAL 0 is replaced by one with another start code$"):
            splice_annexb(stream, leading, nals, [replace(nals[0], start_code_len=3)])


class TestEscaping:
    @pytest.mark.parametrize(
        "ebsp,rbsp",
        [
            (b"\xab\xcd", b"\xab\xcd"),
            (b"\x00\x00\x03\x01", b"\x00\x00\x01"),
            (b"\x00\x00\x03\x03", b"\x00\x00\x03"),
            (b"\x00\x00\x03\x00\x01", b"\x00\x00\x00\x01"),
            (b"", b""),
            (b"\x00\x00", b"\x00\x00"),  # trailing pair is legal as-is
            (b"\x00\x00\x03", b"\x00\x00"),  # every 00 00 03 drops its 03
        ],
    )
    def test_unescape_vectors(self, ebsp, rbsp):
        assert ebsp_to_rbsp(ebsp) == rbsp

    @pytest.mark.parametrize(
        "rbsp,ebsp",
        [
            (b"", b""),
            (b"\x00\x00\x01", b"\x00\x00\x03\x01"),
            (b"\x00\x00\x00\x00", b"\x00\x00\x03\x00\x00"),
            (b"\x00\x00\x02", b"\x00\x00\x03\x02"),
            (b"\x00\x00\x03", b"\x00\x00\x03\x03"),
            (b"\x00\x00\x04", b"\x00\x00\x04"),
            (b"\x00\x00\x00\x00\x00", b"\x00\x00\x03\x00\x00\x03\x00"),
        ],
    )
    def test_escape_vectors(self, rbsp, ebsp):
        assert rbsp_to_ebsp(rbsp) == ebsp

    @pytest.mark.parametrize(
        "bad",
        [
            b"\x00\x00\x00",
            b"\x00\x00\x01",
            b"\xff\x00\x00\x02",
            b"\x00\x00\x03\xff",  # 00 00 03 before a byte above 03
            b"\x00\x00\x03\x04",
        ],
    )
    def test_malformed_escape(self, bad):
        with pytest.raises(MalformedEscape):
            ebsp_to_rbsp(bad)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the cabac_zero_word tail loses its 03 on unescape, and re-escaping adds "
        "none at a payload end (ROADMAP item 1)",
    )
    def test_cabac_zero_word_tail_round_trips(self):
        ebsp = bytes.fromhex("9abc80000003")
        assert rbsp_to_ebsp(ebsp_to_rbsp(ebsp)) == ebsp

    @given(st.binary(max_size=200))
    def test_round_trip_arbitrary(self, rbsp):
        assert ebsp_to_rbsp(rbsp_to_ebsp(rbsp)) == rbsp

    @given(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 0xFF]), max_size=120).map(bytes))
    def test_round_trip_zero_heavy(self, rbsp):
        ebsp = rbsp_to_ebsp(rbsp)
        assert find_escape_violation(ebsp) == -1
        assert ebsp_to_rbsp(ebsp) == rbsp

    def test_violation_finder(self):
        assert find_escape_violation(b"\xaa\x00\x00\x01") == 1
        assert find_escape_violation(b"\x00\x00\x03\x01") == -1
        assert find_escape_violation(b"\x00\x00\x03") == -1
        assert find_escape_violation(b"\xaa\x00\x00\x03\x05") == 1
        assert find_escape_violation(b"") == -1

    @settings(max_examples=500)
    @given(zero_heavy)
    def test_patterns_match_byte_loops(self, data):
        assert rbsp_to_ebsp(data) == rbsp_to_ebsp_loop(data)
        v = escape_violation_loop(data)
        assert find_escape_violation(data) == v
        if v == -1:
            assert ebsp_to_rbsp(data) == ebsp_to_rbsp_loop(data)
        else:
            with pytest.raises(MalformedEscape, match=f"^unescaped {violation_text(data)}$"):
                ebsp_to_rbsp(data)
        # The three entry points state one rule: ebsp_to_rbsp refuses
        # exactly when a slice NAL's verdict is set, with that verdict's
        # text, and the verdict's offset is find_escape_violation's.
        verdict = NalUnit(0, 4, parse_nal_header(0x41), data).escape_violation
        if verdict is None:
            assert v == -1
            ebsp_to_rbsp(data)
        else:
            assert verdict.endswith(f" at payload offset {v}")
            with pytest.raises(MalformedEscape) as exc:
                ebsp_to_rbsp(data)
            assert str(exc.value) == "unescaped " + verdict
        # Handed the verdict already read, ebsp_to_rbsp scans nothing: None
        # strips as the scanning call does, and a set verdict is raised with
        # the scanning call's text.
        real, scans = bitstream._EPB_VIOLATION, []
        bitstream._EPB_VIOLATION = types.SimpleNamespace(
            search=lambda *a: scans.append(a) or real.search(*a)
        )
        try:
            stripped = ebsp_to_rbsp(data, None)
            if verdict is not None:
                with pytest.raises(MalformedEscape) as exc:
                    ebsp_to_rbsp(data, verdict)
                assert str(exc.value) == "unescaped " + verdict
        finally:
            bitstream._EPB_VIOLATION = real
        assert scans == []
        if verdict is None:
            assert stripped == ebsp_to_rbsp(data)
        # However a NAL is made, its escape_violation is the byte loop's
        # verdict on its payload, or on a header byte 00 and its payload,
        # and check_escaping reports that verdict.
        made = NalUnit(0, 4, parse_nal_header(0x65), data)
        split = split_annexb(b"\x00\x00\x01\x65" + data)[1]
        zero = NalUnit(0, 4, parse_nal_header(0x00), data)
        for nal in (made, replace(made, ebsp=b"\xaa" + data), zero, *split):
            zero_header = nal.header is not None and nal.header.to_byte() == 0
            want = violation_text(bytes(nal.ebsp), zero_header)
            assert nal.escape_violation == want
            if not zero_header:
                assert (want is None) == (find_escape_violation(nal.ebsp) == -1)
            if want is None:
                check_escaping([nal])
            else:
                with pytest.raises(EscapingViolation) as exc:
                    check_escaping([nal])
                assert str(exc.value) == f"NAL {nal.ordinal}: {want}"


class TestBitReader:
    @pytest.mark.parametrize(
        "data,expected",
        [
            (b"\x80", 0),  # "1"
            (b"\x40", 1),  # "010"
            (b"\x38", 6),  # "00111"
        ],
    )
    def test_ue_vectors(self, data, expected):
        assert BitReader(data).read_ue() == expected

    def test_msb_first(self):
        r = BitReader(b"\xa5")
        assert [r.read_bit() for _ in range(8)] == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_read_bits(self):
        r = BitReader(b"\xa5\x0f")
        assert r.read_bits(4) == 0xA
        assert r.read_bits(8) == 0x50
        assert r.bits_left == 4

    def test_out_of_bits(self):
        with pytest.raises(OutOfBits):
            BitReader(b"").read_bit()
        with pytest.raises(OutOfBits):
            BitReader(b"\x00").read_ue()  # all zeros: no stop bit
        with pytest.raises(OutOfBits):
            BitReader(b"\x08").read_ue()  # stop bit arrives, suffix truncated

    def test_position_advances_by_codeword_length(self):
        r = BitReader(b"\x38\x00")
        r.read_ue()
        assert r.position == 5


class TestBitWriter:
    @pytest.mark.parametrize("value,bits", [(0, "1"), (1, "010"), (2, "011"), (6, "00111")])
    def test_ue_bit_patterns(self, value, bits):
        w = BitWriter()
        w.write_ue(value)
        assert bits_of(w.to_bytes())[: len(bits)] == bits
        assert w.bit_length == len(bits)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_ue(-1)

    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=20))
    def test_write_read_round_trip(self, values):
        w = BitWriter()
        for v in values:
            w.write_ue(v)
        r = BitReader(w.to_bytes())
        assert [r.read_ue() for _ in values] == values

    @given(st.integers(0, 100_000))
    def test_against_decode_oracle(self, value):
        w = BitWriter()
        w.write_ue(value)
        got, consumed = ue_decode_oracle(bits_of(w.to_bytes()))
        assert got == value
        assert consumed == w.bit_length

    def test_empty_writer(self):
        w = BitWriter()
        assert w.bit_length == 0
        assert w.to_bytes() == b""

    @given(st.lists(st.one_of(
        st.tuples(st.just("bit"), st.integers(-3, 3)),
        st.tuples(st.just("bits"), st.integers(-(1 << 40), 1 << 40), st.integers(0, 33)),
        st.tuples(st.just("ue"), st.integers(0, 1 << 20)),
    ), max_size=30))
    def test_mixed_writes_against_bit_string(self, ops):
        # The expected output is built as a '0'/'1' string: write_bit keeps
        # the low bit, write_bits the low n bits (values wider than n are
        # cut), write_ue the Exp-Golomb codeword; the last byte is zero-padded.
        w = BitWriter()
        want = ""
        for op in ops:
            if op[0] == "bit":
                w.write_bit(op[1])
                want += str(op[1] & 1)
            elif op[0] == "bits":
                _, value, n = op
                w.write_bits(value, n)
                want += format(value & ((1 << n) - 1), f"0{n}b") if n else ""
            else:
                w.write_ue(op[1])
                suffix = format(op[1] + 1, "b")
                want += "0" * (len(suffix) - 1) + suffix
        assert w.bit_length == len(want)
        want += "0" * (-len(want) % 8)
        assert bits_of(w.to_bytes()) == want


def read_outcome(parse, rbsp):
    """What a slice-header parse gives: its SliceInfo, or its error type."""
    try:
        return parse(rbsp)
    except (OutOfBits, OutOfRange) as exc:
        return type(exc)


@st.composite
def header_prefixes(draw):
    """0-16 bytes that lean towards leading zero bits: a random integer
    shifted right by up to its width, or two ue(v) codewords near and past
    their range edges with random bits after them, cut to a random length."""
    if draw(st.booleans()):
        size = draw(st.integers(0, 16))
        value = draw(st.integers(0, (1 << 8 * size) - 1)) >> draw(st.integers(0, 8 * size))
        return value.to_bytes(size, "big")
    w = BitWriter()
    for limit in (139_264, 10):
        w.write_ue(draw(st.one_of(
            st.integers(0, 2 * limit), st.integers(limit - 2, limit + 1), st.integers(0, 2**60)
        )))
    w.write_bits(draw(st.integers(0, 2**64 - 1)), 64)
    return w.to_bytes()[: draw(st.integers(0, 16))]


class TestSliceInfo:
    @pytest.mark.parametrize(
        "rbsp,first_mb,slice_type,intra",
        [
            (b"\x88", 0, 7, True),  # "1" then "0001000"
            (b"\xe0", 0, 0, False),  # two "1" codewords
            (b"\xb8", 0, 2, True),  # "1" then "011": 2^1 - 1 + 1
            (b"\x9c", 0, 6, False),  # "1" then "00111"
            (b"\x50", 1, 0, False),  # "010" then "1"
        ],
    )
    def test_vectors(self, rbsp, first_mb, slice_type, intra):
        info = parse_slice_info(rbsp)
        assert (info.first_mb_in_slice, info.slice_type, info.is_intra) == (
            first_mb,
            slice_type,
            intra,
        )

    def test_mod5_rule(self):
        for t in range(10):
            w = BitWriter()
            w.write_ue(0)
            w.write_ue(t)
            info = parse_slice_info(w.to_bytes())
            assert info.slice_type == t
            assert info.is_intra == (t % 5 == 2)

    def test_out_of_range(self):
        # 139,264 is the largest PicSizeInMbs (MaxFS in Table A-1), which
        # first_mb_in_slice must stay below.
        for first_mb, slice_type in ((0, 10), (139_264, 7), (2**100 - 1, 7)):
            w = BitWriter()
            w.write_ue(first_mb)
            w.write_ue(slice_type)
            with pytest.raises(OutOfRange):
                parse_slice_info(w.to_bytes())
        w = BitWriter()
        w.write_ue(139_263)
        w.write_ue(9)
        assert w.bit_length == 42
        assert parse_slice_info(w.to_bytes()) == SliceInfo(139_263, 9)

    def test_out_of_bits(self):
        with pytest.raises(OutOfBits):
            parse_slice_info(b"")
        with pytest.raises(OutOfBits):
            parse_slice_info(b"\x00")

    @pytest.mark.parametrize("first_mb", [139_263, 139_264])
    @pytest.mark.parametrize("slice_type", [9, 10])
    def test_range_edges(self, first_mb, slice_type):
        w = BitWriter()
        w.write_ue(first_mb)
        w.write_ue(slice_type)
        rbsp = w.to_bytes()
        if first_mb == 139_264 or slice_type == 10:
            with pytest.raises(OutOfRange):
                parse_slice_info(rbsp)
        else:
            assert parse_slice_info(rbsp) == SliceInfo(first_mb, slice_type)
        assert read_outcome(parse_slice_info, rbsp) == read_outcome(bitreader_slice_info, rbsp)

    @settings(max_examples=1000)
    @given(header_prefixes())
    @example(b"\x00\x00\x44\x00\x00")  # first_mb_in_slice 139,263, then a cut
    def test_matches_bitreader_reference(self, rbsp):
        assert read_outcome(parse_slice_info, rbsp) == read_outcome(bitreader_slice_info, rbsp)

    @settings(max_examples=300)
    @given(st.sampled_from([b"", b"\x80", b"\xa0"]), st.integers(12, 40), st.binary(max_size=16))
    @example(b"", 16, b"\x80")  # a zero run that ends in byte 17
    @example(b"\x80", 15, b"")  # the second codeword never ends
    def test_matches_bitreader_past_the_prefix(self, head, zeros, tail):
        # Zero runs that outlast the 16 bytes parse_slice_info reads first.
        rbsp = head + bytes(zeros) + tail
        assert read_outcome(parse_slice_info, rbsp) == read_outcome(bitreader_slice_info, rbsp)


class TestRecords:
    """NalUnit is a frozen dataclass of four fields with three kept values,
    escape_violation, slice_info and rbsp_size, that are no fields, so
    equality and hashing ignore them; SliceInfo and ReportRow are named
    tuples."""

    def nal(self, ebsp=b"\x88\xaa"):
        return NalUnit(0, 4, parse_nal_header(0x65), ebsp)

    def test_nal_unit_is_frozen(self):
        nal = self.nal()
        for name in ("ordinal", "start_code_len", "header", "ebsp", "escape_violation", "slice_info"):
            with pytest.raises(FrozenInstanceError):
                setattr(nal, name, None)
        with pytest.raises(FrozenInstanceError):
            del nal.ebsp
        with pytest.raises(FrozenInstanceError):
            nal.rbsp_size = 0

    @pytest.mark.parametrize("scl", [0, 2, 5])
    def test_start_code_is_3_or_4_bytes(self, scl):
        with pytest.raises(ValueError):
            NalUnit(ordinal=0, start_code_len=scl, header=parse_nal_header(0x65), ebsp=b"")

    def test_replace_judges_again_and_reads_afresh(self):
        # Both judged values are made on first read and kept in the unit's
        # dict; a new unit, and so a replace copy, starts with neither.
        nal = self.nal()
        assert not {"escape_violation", "slice_info"} & set(vars(nal))
        assert nal.slice_info == SliceInfo(0, 7)
        assert vars(nal)["escape_violation"] is None and vars(nal)["slice_info"] == SliceInfo(0, 7)
        for copy in (replace(nal), replace(nal, ebsp=b"\xe0"), replace(nal, ebsp=b"\x88\x00\x00\x02")):
            assert not {"escape_violation", "slice_info"} & set(vars(copy))
        clean = replace(nal, ebsp=b"\xe0")
        assert clean.slice_info == SliceInfo(0, 0) and clean.escape_violation is None
        assert (clean.ordinal, clean.start_code_len, clean.header) == (0, 4, nal.header)
        bad = replace(nal, ebsp=b"\x88\x00\x00\x02")
        assert bad.escape_violation == "00 00 02 at payload offset 1"
        assert bad.slice_info is None
        for kept in ("escape_violation", "slice_info"):
            with pytest.raises(TypeError):
                replace(nal, **{kept: None})

    def test_rbsp_size_is_counted_once_or_given(self):
        # Counted from the escaped payload on first read and kept, unless the
        # unit was built from an RBSP and given its length; a replace copy
        # starts uncounted.
        nal = self.nal(b"\x88\x00\x00\x03\x01\x00\x00\x03")
        assert "rbsp_size" not in vars(nal)
        assert nal.rbsp_size == 6 and vars(nal)["rbsp_size"] == 6
        given = NalUnit(0, 4, nal.header, nal.ebsp, rbsp_size=6)
        assert vars(given)["rbsp_size"] == 6 and given == nal and hash(given) == hash(nal)
        assert "rbsp_size" not in vars(replace(given))

    def test_kept_values_read_on_the_class_are_their_descriptors(self):
        # help(NalUnit) and pydoc read the class attribute: it must be the
        # descriptor, carrying the method's docstring, not a value read.
        kept = NalUnit.slice_info
        assert isinstance(kept, _Kept) and kept.name == "slice_info"
        assert kept.__doc__.startswith("The slice header of a slice NAL")

    def test_equality_and_hash_ignore_the_judged_fields(self):
        assert [f.name for f in fields(NalUnit)] == ["ordinal", "start_code_len", "header", "ebsp"]
        assert all(f.compare for f in fields(NalUnit))
        read, unread = self.nal(), self.nal(memoryview(b"\x88\xaa"))
        assert read.slice_info is not None
        assert vars(read)["slice_info"] == SliceInfo(0, 7) and "slice_info" not in vars(unread)
        assert "escape_violation" in vars(read) and "escape_violation" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert read != replace(read, ordinal=1) and read != replace(read, ebsp=b"\x88")

    def test_slice_info_and_report_row_are_tuples(self):
        info = SliceInfo(3, 7)
        assert info == (3, 7) == SliceInfo(first_mb_in_slice=3, slice_type=7)
        assert (info[1], info.slice_type, info.is_intra, SliceInfo(3, 6).is_intra) == (7, 7, True, False)
        assert hash(info) == hash((3, 7)) and info != SliceInfo(3, 2)
        row = ReportRow(0, 5, "IDR", 2, 2, info, False, False, False)
        assert row == (0, 5, "IDR", 2, 2, (3, 7), False, False, False)
        assert row[5].is_intra and row.slice_info is info
        for record, name in ((info, "slice_type"), (row, "size")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(TypeError):
                record[0] = 1


class TestClassify:
    def test_empty(self):
        assert classify_stream([]) == []

    def test_hand_built_stream(self):
        nals = split_annexb(
            b"\x00\x00\x00\x01\x67\xaa"  # SPS
            + b"\x00\x00\x01\x68\xbb"  # PPS
            + b"\x00\x00\x01\x65\x88"  # IDR, slice_type 7
        )[1]
        rows = classify_stream(nals)
        assert [r.nal_type for r in rows] == [7, 8, 5]
        assert [r.type_name for r in rows] == ["SPS", "PPS", "IDR"]
        assert rows[2].slice_info.is_intra and not rows[2].unparsed

    def test_unparseable_slice_flagged(self):
        nals = split_annexb(b"\x00\x00\x01\x41")[1]  # slice NAL with empty payload
        rows = classify_stream(nals)
        assert rows[0].unparsed and rows[0].slice_info is None

    def test_forbidden_bit_flagged(self):
        rows = classify_stream(split_annexb(b"\x00\x00\x01\xe5\x88")[1])
        assert rows[0].forbidden_bit

    def test_rbsp_size_accounts_for_escapes(self):
        nal = NalUnit(0, 4, parse_nal_header(0x65), rbsp_to_ebsp(b"\x88\x00\x00\x00\x07"))
        row = classify_stream([nal])[0]
        assert row.size == 6 and row.rbsp_size == 5


def classify_reference(nals):
    """classify_stream before its shortcuts: every payload is unescaped in
    full, its length is the RBSP size and a slice header is parsed from it."""
    rows = []
    for nal in nals:
        if nal.header is None:
            rows.append(ReportRow(nal.ordinal, -1, "empty", 0, 0, None, False, False, False))
            continue
        t = nal.header.nal_unit_type
        try:
            rbsp = ebsp_to_rbsp(nal.ebsp)
        except MalformedEscape:
            rbsp = None
        info = None
        unparsed = False
        if t in VCL_TYPES:
            if rbsp is None:
                unparsed = True
            else:
                try:
                    info = parse_slice_info(rbsp)
                except (OutOfBits, OutOfRange):
                    unparsed = True
        rows.append(
            ReportRow(
                ordinal=nal.ordinal,
                nal_type=t,
                type_name=nal_type_name(t),
                size=len(nal.ebsp),
                rbsp_size=len(rbsp) if rbsp is not None else len(nal.ebsp),
                slice_info=info,
                unparsed=unparsed,
                forbidden_bit=bool(nal.header.forbidden_zero_bit),
                malformed_escape=rbsp is None,
            )
        )
    return rows


def slice_payload(first_mb, slice_type, filler=b""):
    w = BitWriter()
    w.write_ue(first_mb)
    w.write_ue(slice_type)
    return rbsp_to_ebsp(w.to_bytes() + filler)


# first_mb_in_slice + 1 = 2**207 - 2**21 codes as 206 zeros, 186 ones and 21
# zeros, so the codeword runs far past the 16-byte header prefix and ends just
# past a 00 00 03 at payload offsets 61-63. The value is far above the largest
# legal one, so the slice is unparsed however much of it a read sees.
CUT_FIRST_MB = (1 << 207) - (1 << 21) - 1


@st.composite
def classify_payloads(draw):
    """Zero-heavy payloads from 0 to about 200 bytes: slice headers with short
    ue(v) codewords, first_mb_in_slice around its largest legal value, or
    long codewords (zero runs that outlast the 16-byte prefix) and slice_type
    up to 12, escaped or raw, with 00 00 03 forced around the prefix end, at
    the payload end, or before a byte above 0x03."""
    # Long codewords shaped as CUT_FIRST_MB's: `width` zeros, then
    # width + 1 - tail ones and tail zeros.
    width, tail = draw(st.integers(195, 215)), draw(st.integers(0, 30))
    long_code = (1 << width + 1) - (1 << tail) - 1
    first_mb = draw(
        st.one_of(st.integers(0, 40), st.integers(139_250, 139_280), st.just(long_code))
    )
    filler = draw(st.lists(st.sampled_from(ZERO_HEAVY), max_size=100).map(bytes))
    ebsp = bytearray(slice_payload(first_mb, draw(st.integers(0, 12)), filler))
    if draw(st.booleans()):
        ebsp = bytearray(draw(zero_heavy)) + ebsp[: draw(st.integers(0, 100))]
    force = draw(st.sampled_from(["none", "cut", "end", "kept"]))
    if force == "cut":
        at = draw(st.integers(8, 64))
        ebsp[at : at + 4] = b"\x00\x00\x03" + bytes([draw(st.sampled_from(ZERO_HEAVY))])
    elif force == "end":
        ebsp += b"\x00\x00\x03"
    elif force == "kept":
        at = draw(st.integers(0, len(ebsp)))
        ebsp[at:at] = b"\x00\x00\x03" + bytes([draw(st.integers(4, 255))])
    return bytes(ebsp)


class TestClassifyEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1, 5, 6, 7]), classify_payloads()), max_size=4))
    @example([(5, slice_payload(CUT_FIRST_MB, t, b"\xa5" * 8)) for t in (3, 6, 11)])
    @example([(7, b"\x42\x00\x00\x03"), (1, b"\x88" + b"\x00\x00\x03\xff" * 20)])
    def test_matches_reference(self, cases):
        nals = [NalUnit(i, 4, parse_nal_header(0x60 | t), e) for i, (t, e) in enumerate(cases)]
        nals.append(NalUnit(len(nals), 3, None, b""))
        assert classify_stream(nals) == classify_reference(nals)

    @settings(max_examples=300)
    @given(
        st.one_of(
            zero_heavy.map(rbsp_to_ebsp),
            zero_heavy.filter(lambda e: find_escape_violation(e) == -1),
        )
    )
    @example(b"\x00\x00\x03" * 6)
    def test_unescaped_cut_is_a_prefix_of_the_rbsp(self, ebsp):
        # Why classify_stream reads a slice header from ebsp[:16]: every cut
        # unescapes to a prefix of the whole RBSP, and 16 bytes to at least
        # 88 bits, past the 42 that parse_slice_info reads from a header it
        # accepts.
        rbsp = ebsp_to_rbsp(ebsp)
        for k in range(len(ebsp) + 1):
            assert rbsp.startswith(ebsp_to_rbsp(ebsp[:k]))
        assert len(ebsp_to_rbsp(ebsp[:16])) >= min(11, len(rbsp))
