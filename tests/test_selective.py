import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selenc import aes, selective
from selenc.aes import ctr_keystream, key_expansion, xor_bytes
from selenc.bitstream import (
    BitWriter,
    NalUnit,
    classify_stream,
    ebsp_to_rbsp,
    find_escape_violation,
    parse_nal_header,
    parse_slice_info,
    rbsp_to_ebsp,
    serialize_annexb,
    split_annexb,
)
from selenc.errors import (
    BadMagic,
    BadVersion,
    EscapingViolation,
    MalformedEscape,
    MalformedHeader,
    OrdinalOutOfRange,
    OutOfBits,
    OutOfRange,
    SelencError,
    WrongKey,
)
from selenc.harness import per_block_keystream
from selenc.pipeline import gen_test_stream
from selenc.selective import (
    CipherHeader,
    EncryptionPolicy,
    SelectionResult,
    decrypt_nal,
    decrypt_stream,
    encrypt_nal,
    encrypt_stream,
    key_check_value,
    select,
)

KS = key_expansion(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
NONCE = b"\x77" * 8


def slice_rbsp(slice_type: int, extra: bytes = b"") -> bytes:
    w = BitWriter()
    w.write_ue(0)
    w.write_ue(slice_type)
    return w.to_bytes() + extra


def make_nal(ordinal: int, header_byte: int, rbsp: bytes = b"", scl: int = 4) -> NalUnit:
    return NalUnit(ordinal, scl, parse_nal_header(header_byte), rbsp_to_ebsp(rbsp))


def make_stream(types_and_rbsp) -> list:
    headers = {1: 0x41, 5: 0x65, 6: 0x06, 7: 0x67, 8: 0x68}
    return [
        make_nal(i, headers[t], rbsp) for i, (t, rbsp) in enumerate(types_and_rbsp)
    ]


def select_reference(nals, policy):
    """Per-NAL selection that strips and parses each slice's whole payload
    itself, whatever runs it holds; the behaviour select must keep now that
    it reads slice headers from a prefix, the slices all-i leaves unparsed
    included."""
    chosen = []
    unparsed = []
    for nal in nals:
        if nal.header is None or nal.header.nal_unit_type not in (1, 5):
            continue
        take = False
        if nal.header.nal_unit_type == 5:
            take = True
        elif policy is EncryptionPolicy.ALL_INTRA:
            try:
                take = parse_slice_info(ebsp_to_rbsp(nal.ebsp, None)).is_intra
            except (OutOfBits, OutOfRange):
                unparsed.append(nal.ordinal)
        if take:
            chosen.append(nal.ordinal)
    return SelectionResult(policy, tuple(chosen), tuple(unparsed))


# Header bytes: types 1, 5, 6, 7, 8 and others, forbidden bit set or clear.
HEADER_BYTES = st.builds(
    lambda forbidden, ref, t: forbidden << 7 | ref << 5 | t,
    st.integers(0, 1),
    st.integers(0, 3),
    st.sampled_from([1, 5]) | st.sampled_from([6, 7, 8]) | st.integers(0, 31),
)
# Escaped payloads: empty, parseable slice headers of every slice_type,
# all zeros (no ue terminator), slice_type > 9, a malformed 00 00 00 escape,
# and arbitrary zero-heavy bytes.
PAYLOADS = st.one_of(
    st.just(b""),
    st.builds(
        lambda t, extra: rbsp_to_ebsp(slice_rbsp(t, extra)),
        st.sampled_from([2, 7]) | st.integers(0, 12),
        st.binary(max_size=16),
    ),
    st.integers(1, 8).map(lambda n: rbsp_to_ebsp(b"\x00" * n)),
    st.builds(lambda extra: b"\x11\x00\x00\x00" + extra, st.binary(max_size=8)),
    st.lists(st.sampled_from([0, 0, 1, 2, 3, 0x80, 0xFF]), max_size=24).map(bytes),
)


def masked(nal, nonce=NONCE):
    """encrypt_nal's arguments for one NAL: the NAL, its RBSP and its keystream."""
    rbsp = ebsp_to_rbsp(nal.ebsp)
    return nal, rbsp, ctr_keystream(KS, nonce, [(nal.ordinal, len(rbsp))])


class TestSelect:
    def test_idr_only_picks_type5(self):
        p = slice_rbsp(0, b"\x55" * 6)
        nals = make_stream(
            [(7, b"\x42"), (8, b"\xce"), (5, slice_rbsp(7, b"\x11" * 6)), (1, p), (1, p), (1, p)]
        )
        res = select(nals, EncryptionPolicy.IDR_ONLY)
        assert res.selected_ordinals == (2,)

    def test_all_intra_with_p_slices_matches_idr_only(self):
        p = slice_rbsp(0, b"\x55" * 6)
        nals = make_stream(
            [(7, b"\x42"), (8, b"\xce"), (5, slice_rbsp(7, b"\x11" * 6)), (1, p), (1, p), (1, p)]
        )
        res = select(nals, EncryptionPolicy.ALL_INTRA)
        assert res.selected_ordinals == (2,)

    def test_all_intra_picks_intra_type1(self):
        nals = make_stream(
            [(5, slice_rbsp(7)), (1, slice_rbsp(2, b"\x10")), (1, slice_rbsp(0, b"\x10"))]
        )
        assert select(nals, EncryptionPolicy.ALL_INTRA).selected_ordinals == (0, 1)
        assert select(nals, EncryptionPolicy.IDR_ONLY).selected_ordinals == (0,)

    def test_nothing_selected(self):
        nals = make_stream([(7, b"\x42"), (1, slice_rbsp(0)), (1, slice_rbsp(1))])
        res = select(nals, EncryptionPolicy.ALL_INTRA)
        assert res.selected_ordinals == ()

    def test_non_vcl_never_selected(self):
        # SEI/SPS/PPS carry slice-looking payloads but must never be picked.
        nals = make_stream([(6, slice_rbsp(7)), (7, slice_rbsp(7)), (8, slice_rbsp(7))])
        for policy in EncryptionPolicy:
            assert select(nals, policy).selected_ordinals == ()

    def test_unparseable_type1_reported_not_selected(self):
        nals = make_stream([(5, slice_rbsp(7)), (1, b"")])
        res = select(nals, EncryptionPolicy.ALL_INTRA)
        assert res.selected_ordinals == (0,)
        assert res.unparsed_ordinals == (1,)
        assert select(nals, EncryptionPolicy.IDR_ONLY).unparsed_ordinals == ()

    @given(st.lists(st.one_of(st.none(), st.tuples(HEADER_BYTES, PAYLOADS)), max_size=12))
    def test_matches_per_nal_reference(self, units):
        def fresh():
            return [
                NalUnit(i, 4, None, b"") if u is None else NalUnit(i, 4, parse_nal_header(u[0]), u[1])
                for i, u in enumerate(units)
            ]

        # select reads slice_info lazily on one list, and after
        # classify_stream has read it for its rows on the other.
        lazy, classified = fresh(), fresh()
        rows = classify_stream(classified)
        assert [r.slice_info for r in rows] == [n.slice_info for n in fresh()]
        for policy in EncryptionPolicy:
            for nals in (lazy, classified):
                assert select(nals, policy) == select_reference(nals, policy)


# Escaped payloads with no run that 7.4.1 forbids. A 00 00 03 that ends the
# payload loses its 03 on unescape and gets none back on re-escape.
VALID_EBSP = (
    st.lists(st.sampled_from([b"\x00\x00\x03", b"\x00", b"\x01", b"\x03", b"\x04", b"\xff"]),
             max_size=12)
    .map(b"".join)
    .filter(lambda e: find_escape_violation(e) == -1)
)


class TestEncryptNal:
    def test_empty_payload_unchanged(self):
        nal = make_nal(0, 0x65, b"")
        assert encrypt_nal(*masked(nal)) == nal

    def test_metadata_preserved(self):
        nal = make_nal(3, 0x65, slice_rbsp(7, b"\x00" * 20), scl=3)
        enc = encrypt_nal(*masked(nal))
        assert (enc.ordinal, enc.start_code_len, enc.header) == (3, 3, nal.header)
        assert enc.ebsp != nal.ebsp

    def test_round_trip_with_zero_runs(self):
        rng = random.Random(2)
        for _ in range(40):
            rbsp = bytearray(rng.randbytes(rng.randrange(1, 120)))
            for _ in range(3):
                p = rng.randrange(0, len(rbsp))
                rbsp[p : p + 3] = b"\x00\x00\x00"
            nal = make_nal(rng.randrange(100), 0x65, bytes(rbsp))
            enc = encrypt_nal(*masked(nal))
            assert find_escape_violation(enc.ebsp) == -1
            assert decrypt_nal(*masked(enc)) == nal

    def test_rbsp_length_preserved_ebsp_may_grow(self):
        rbsp = slice_rbsp(7, bytes(30))  # long zero run escapes to more bytes
        nal = make_nal(0, 0x65, rbsp)
        enc = encrypt_nal(*masked(nal))
        enc_rbsp = ebsp_to_rbsp(enc.ebsp)
        assert len(enc_rbsp) == len(rbsp)
        # escaped-length delta is exactly the number of 0x03 bytes inserted
        assert len(enc.ebsp) - len(enc_rbsp) == enc.ebsp.count(b"\x00\x00\x03")

    def test_wrong_nonce_scrambles(self):
        nal = make_nal(0, 0x65, slice_rbsp(7, b"\x44" * 40))
        enc = encrypt_nal(*masked(nal))
        assert decrypt_nal(*masked(enc, b"\x78" * 8)) != nal

    def test_confidentiality_smoke(self):
        rng = random.Random(3)
        for _ in range(10):
            rbsp = slice_rbsp(7, rng.randbytes(63))
            nal = make_nal(rng.randrange(50), 0x65, rbsp)
            enc_rbsp = ebsp_to_rbsp(encrypt_nal(*masked(nal)).ebsp)
            differing = sum(a != b for a, b in zip(rbsp, enc_rbsp))
            assert differing >= len(rbsp) // 4


class TestCipherHeader:
    def test_wire_anchor(self):
        h = CipherHeader(EncryptionPolicy.ALL_INTRA, b"\x01\x02\x03\x04", b"\xaa" * 8, (2, 9))
        assert h.to_bytes().hex() == (
            "53454831"  # "SEH1"
            "01"  # version
            "01"  # policy
            "01020304"  # key check
            "aaaaaaaaaaaaaaaa"  # nonce
            "00000002"  # count
            "00000002" "00000009"  # ordinals
        )

    def test_empty_ordinals(self):
        h = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, ())
        assert len(h.to_bytes()) == 22
        assert CipherHeader.from_bytes(h.to_bytes()) == h

    @given(
        st.lists(st.integers(0, 2**32 - 1), unique=True, max_size=40).map(
            lambda v: tuple(sorted(v))
        ),
        st.binary(min_size=4, max_size=4),
        st.binary(min_size=8, max_size=8),
        st.sampled_from(EncryptionPolicy),
    )
    def test_wire_round_trip(self, ordinals, check, nonce, policy):
        h = CipherHeader(policy, check, nonce, ordinals)
        assert CipherHeader.from_bytes(h.to_bytes()) == h

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            CipherHeader.from_bytes(b"XXXX" + b"\x00" * 18)

    def test_bad_version(self):
        good = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, ()).to_bytes()
        with pytest.raises(BadVersion):
            CipherHeader.from_bytes(good[:4] + b"\x09" + good[5:])

    def test_truncated(self):
        good = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, (1,)).to_bytes()
        with pytest.raises(MalformedHeader):
            CipherHeader.from_bytes(good[:10])
        with pytest.raises(MalformedHeader):
            CipherHeader.from_bytes(good[:-2])

    def test_trailing_junk(self):
        good = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, ()).to_bytes()
        with pytest.raises(MalformedHeader):
            CipherHeader.from_bytes(good + b"\x00")

    def test_bad_policy_byte(self):
        good = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, ()).to_bytes()
        with pytest.raises(MalformedHeader):
            CipherHeader.from_bytes(good[:5] + b"\x02" + good[6:])

    def test_non_increasing_ordinals(self):
        good = CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, (1, 2)).to_bytes()
        swapped = good[:22] + good[26:30] + good[22:26]
        with pytest.raises(MalformedHeader):
            CipherHeader.from_bytes(swapped)
        with pytest.raises(ValueError):
            CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, (2, 2))

    @given(
        st.builds(
            CipherHeader,
            st.sampled_from(EncryptionPolicy),
            st.binary(min_size=4, max_size=4),
            st.binary(min_size=8, max_size=8),
            st.lists(st.integers(0, 2**32 - 1), unique=True, max_size=6).map(lambda v: tuple(sorted(v))),
        ),
        st.data(),
    )
    def test_parser_is_total(self, header, data):
        # Any bytes, and any valid sidecar with bytes flipped, cut or added,
        # either parse to a header that writes exactly those bytes back or
        # are refused with a SelencError.
        wire = header.to_bytes()
        assert CipherHeader.from_bytes(wire) == header

        def flip(flips):
            out = bytearray(wire)
            for i, mask in flips:
                out[i] ^= mask
            return bytes(out)

        blob = data.draw(
            st.one_of(
                st.binary(max_size=64),
                st.lists(st.tuples(st.integers(0, len(wire) - 1), st.integers(1, 255)),
                         min_size=1, max_size=4).map(flip),
                st.integers(0, len(wire) - 1).map(lambda n: wire[:n]),
                st.binary(min_size=1, max_size=12).map(lambda tail: wire + tail),
            )
        )
        try:
            parsed = CipherHeader.from_bytes(blob)
        except SelencError:
            return
        assert parsed.to_bytes() == blob

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 3, b"\x00" * 8, ())
        with pytest.raises(ValueError):
            CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 7, ())
        # The wire holds each ordinal in 4 bytes.
        CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, (2**32 - 1,))
        with pytest.raises(ValueError, match="ordinals must fit in 32 bits"):
            CipherHeader(EncryptionPolicy.IDR_ONLY, b"\x00" * 4, b"\x00" * 8, (2**32,))


class TestStreamEncryption:
    def test_empty_stream(self):
        out, header = encrypt_stream([], KS, select([], EncryptionPolicy.IDR_ONLY), NONCE)
        assert out == [] and header.ordinals == ()

    def test_gop12_sixty_frames_counts_five(self):
        nals = split_annexb(gen_test_stream(None, gop=12, frames=60, payload_size=64, seed=1))[1]
        _, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        assert len(header.ordinals) == 5

    def test_non_selected_untouched(self):
        nals = split_annexb(gen_test_stream(None, gop=4, frames=8, payload_size=48, seed=2))[1]
        out, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        chosen = set(header.ordinals)
        for before, after in zip(nals, out):
            if before.ordinal in chosen:
                assert after.ebsp != before.ebsp
            else:
                assert after == before

    def test_header_records_inputs(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=3))[1]
        _, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.ALL_INTRA), NONCE)
        assert header.nonce == NONCE
        assert header.policy is EncryptionPolicy.ALL_INTRA
        assert header.key_check == key_check_value(KS)
        assert header.ordinals == select(nals, EncryptionPolicy.ALL_INTRA).selected_ordinals

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            encrypt_stream([], KS, select([], EncryptionPolicy.IDR_ONLY), b"\x00" * 7)

    def test_absent_ordinal_refused_before_payload_work(self, monkeypatch):
        # NAL 99 is not in the stream: no sidecar may list it, and nothing is
        # unescaped or keyed before the refusal.
        nals = split_annexb(gen_test_stream(None, gop=4, frames=8, payload_size=48, seed=2))[1]
        calls = Counter()
        for module, name in ((selective, "ebsp_to_rbsp"), (aes, "_rounds"), (aes, "_hand_off")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        for policy in EncryptionPolicy:
            with pytest.raises(OrdinalOutOfRange, match="^NAL 99 is listed but the stream has 10$"):
                encrypt_stream(nals, KS, SelectionResult(policy, (2, 99)), NONCE)
        assert calls == {}

    def test_badly_escaped_listed_nal_refused_before_payload_work(self, monkeypatch):
        # The second listed NAL holds 00 00 03 05. Each direction refuses it
        # by name from its verdict, with check_escaping's text, before the
        # first listed NAL is unescaped or any keystream is made.
        nals = split_annexb(gen_test_stream(None, gop=4, frames=8, payload_size=48, seed=2))[1]
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        first, o = header.ordinals
        offset = len(enc[o].ebsp) + 1
        refusal = f"^NAL {o}: 00 00 03 05 at payload offset {offset}$"
        calls = Counter()
        for module, name in ((selective, "ebsp_to_rbsp"), (aes, "_rounds"), (aes, "_hand_off")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        for stream in (nals, enc):
            stream[o] = replace(stream[o], ebsp=enc[o].ebsp + b"\x11\x00\x00\x03\x05")
        with pytest.raises(EscapingViolation, match=refusal):
            encrypt_stream(nals, KS, SelectionResult(EncryptionPolicy.IDR_ONLY, (first, o)), NONCE)
        with pytest.raises(EscapingViolation, match=refusal):
            decrypt_stream(enc, KS, header)
        assert calls == {}

    def test_interleaved_keys_match_per_block_keystreams(self):
        # Each ciphered RBSP is its plaintext RBSP XOR its own key's per-block
        # keystream, whichever key the call before used.
        nals = split_annexb(gen_test_stream(None, gop=3, frames=9, payload_size=700, seed=12))[1]
        sel = select(nals, EncryptionPolicy.IDR_ONLY)
        other = key_expansion(bytes(range(100, 116)))
        for ks in (KS, other, KS, other):
            enc, _ = encrypt_stream(nals, ks, sel, NONCE)
            for o in sel.selected_ordinals:
                plain, cipher = ebsp_to_rbsp(nals[o].ebsp), ebsp_to_rbsp(enc[o].ebsp)
                assert xor_bytes(plain, cipher) == per_block_keystream(ks, NONCE, o, len(plain))

    def test_one_engine_call_per_chunk(self, monkeypatch):
        # 200 short IDR slices share one keystream pass: one engine chunk
        # per _CHUNK_BLOCKS keystream blocks, not one per NAL, each run here
        # or offered to the helper (declined here, so it runs here too).
        nals = split_annexb(gen_test_stream(None, gop=1, frames=200, payload_size=64, seed=9))[1]
        sel = select(nals, EncryptionPolicy.IDR_ONLY)
        blocks = sum(-(-len(ebsp_to_rbsp(nals[o].ebsp)) // 16) for o in sel.selected_ordinals)
        calls, offered = [], []
        real = aes._rounds
        monkeypatch.setattr(aes, "_rounds", lambda s, k: calls.append(len(s[0])) or real(s, k))
        monkeypatch.setattr(aes, "_hand_off", lambda s, k: offered.append(len(s[0])))
        encrypt_stream(nals, KS, sel, NONCE)
        assert len(sel.selected_ordinals) == 200
        assert len(calls) == -(-blocks // aes._CHUNK_BLOCKS)
        assert sum(calls) == blocks
        assert offered == calls[1::2]

    def test_groups_are_ciphered_before_the_next_is_unescaped(self, monkeypatch):
        # 12 IDR slices of 512 blocks each: a group of 8 reaches two
        # _CHUNK_BLOCKS chunks and the last 4 end the stream, and each group
        # is unescaped, keyed once and ciphered in turn. The output equals
        # each NAL ciphered on its own.
        nals = split_annexb(gen_test_stream(None, gop=1, frames=12, payload_size=8192, seed=4))[1]
        sel = select(nals, EncryptionPolicy.IDR_ONLY)
        events = []
        for name in ("ebsp_to_rbsp", "ctr_keystream", "encrypt_nal"):
            real = getattr(selective, name)
            monkeypatch.setattr(
                selective, name, lambda *a, real=real, name=name: events.append(name) or real(*a)
            )
        enc, _ = encrypt_stream(nals, KS, sel, NONCE)
        def group(k):
            return ["ebsp_to_rbsp"] * k + ["ctr_keystream"] + ["encrypt_nal"] * k

        assert aes._CHUNK_BLOCKS == 4 * 512
        assert events == group(8) + group(4)
        monkeypatch.undo()
        for o in sel.selected_ordinals:
            assert enc[o] == encrypt_nal(*masked(nals[o]))

    def test_cipher_pass_holds_one_group(self):
        # 500 IDR slices, 4.22 MB: the pass holds the ciphered payloads it
        # returns and one group's RBSPs and keystream, not every RBSP and the
        # whole keystream at once.
        nals = split_annexb(gen_test_stream(None, gop=1, frames=500, payload_size=8192, seed=3))[1]
        sel = select(nals, EncryptionPolicy.IDR_ONLY)
        tracemalloc.start()
        try:
            encrypt_stream(nals, KS, sel, NONCE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000, peak

    @pytest.mark.parametrize("policy", list(EncryptionPolicy))
    def test_round_trip_generated_streams(self, policy):
        for seed in range(4):
            data = gen_test_stream(None, gop=3, frames=10, payload_size=80, seed=seed)
            nals = split_annexb(data)[1]
            enc, header = encrypt_stream(nals, KS, select(nals, policy), NONCE)
            dec = decrypt_stream(enc, KS, header)
            assert serialize_annexb(dec) == data

    def test_round_trip_with_intra_type1(self):
        nals = make_stream(
            [(7, b"\x42"), (8, b"\xce"), (5, slice_rbsp(7, b"\x00" * 30)),
             (1, slice_rbsp(2, b"\x00\x00\x00\x07")), (1, slice_rbsp(0, b"\x99" * 9))]
        )
        data = serialize_annexb(nals)
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.ALL_INTRA), NONCE)
        assert header.ordinals == (2, 3)
        assert serialize_annexb(decrypt_stream(enc, KS, header)) == data

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a ciphertext ending in 0x00 would turn the next 3-byte start code into a "
        "4-byte one and lose that byte, so serialize_annexb refuses it (ROADMAP item 1)",
    )
    def test_round_trip_second_slice_after_three_byte_start_code(self):
        lost = []
        for seed in range(2000):
            rng = random.Random(seed)
            nals = make_stream([(7, b"\x42"), (8, b"\xce"), (5, slice_rbsp(7, rng.randbytes(40)))])
            nals.append(make_nal(3, 0x65, slice_rbsp(7, rng.randbytes(40)), scl=3))
            if nals[2].ebsp[-1:] == b"\x00":
                # Such a plaintext would not read back either, so
                # serialize_annexb refuses it; split_annexb never gives one.
                continue
            data = serialize_annexb(nals)
            sel = select(nals, EncryptionPolicy.IDR_ONLY)
            enc, header = encrypt_stream(nals, KS, sel, rng.randbytes(8))
            try:
                enc_data = serialize_annexb(enc)
            except EscapingViolation:
                lost.append(seed)
                continue
            dec = decrypt_stream(split_annexb(enc_data)[1], KS, header)
            if serialize_annexb(dec) != data:
                lost.append(seed)
        assert lost == []

    @pytest.mark.parametrize("policy", list(EncryptionPolicy))
    def test_round_trip_payload_ending_in_zeros(self, policy):
        # split_annexb leaves the zero bytes before a 4-byte start code with
        # the payload before it, so the IDR's payload is 88 aa 00 00. A rule
        # that appended 03 to an RBSP ending in 00 00 would break this.
        data = (
            b"\x00\x00\x00\x01\x67\x42" + b"\x00\x00\x00\x01\x68\xce"
            + b"\x00\x00\x00\x01\x65\x88\xaa\x00\x00" + b"\x00\x00\x00\x01\x41\xe0\x11"
        )
        nals = split_annexb(data)[1]
        assert nals[2].ebsp == b"\x88\xaa\x00\x00"
        enc, header = encrypt_stream(nals, KS, select(nals, policy), NONCE)
        assert header.ordinals == (2,)
        dec = decrypt_stream(split_annexb(serialize_annexb(enc))[1], KS, header)
        assert serialize_annexb(dec) == data

    @settings(max_examples=200, deadline=None)
    @given(VALID_EBSP)
    @example(bytes.fromhex("88aa9abc80000003"))  # cabac_zero_word tail
    @example(bytes.fromhex("88aa000003000003"))  # the same after an escaped 00
    def test_refuses_exactly_what_would_not_round_trip(self, ebsp):
        nals = [NalUnit(0, 4, parse_nal_header(0x65), ebsp)]
        sel = select(nals, EncryptionPolicy.IDR_ONLY)
        if rbsp_to_ebsp(ebsp_to_rbsp(ebsp)) == ebsp:
            enc, header = encrypt_stream(nals, KS, sel, NONCE)
            assert decrypt_stream(enc, KS, header) == nals
        else:
            with pytest.raises(MalformedEscape, match="^NAL 0: 00 00 03 at payload end"):
                encrypt_stream(nals, KS, sel, NONCE)

    def test_compliance_rescan(self):
        for policy in EncryptionPolicy:
            data = gen_test_stream(None, gop=4, frames=9, payload_size=72, seed=5)
            nals = split_annexb(data)[1]
            enc, _ = encrypt_stream(nals, KS, select(nals, policy), NONCE)
            rescan = split_annexb(serialize_annexb(enc))[1]
            assert len(rescan) == len(nals)
            for a, b in zip(nals, rescan):
                assert a.start_code_len == b.start_code_len
                assert a.header == b.header
                assert find_escape_violation(b.ebsp) == -1


class TestDecryptStream:
    def test_wrong_key_rejected_before_decrypting(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=6))[1]
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        other = key_expansion(b"\x42" * 16)
        with pytest.raises(WrongKey):
            decrypt_stream(enc, other, header)

    def test_wrong_key_does_no_payload_work(self, monkeypatch):
        # The key check must fire before any NAL is unescaped or any
        # keystream block is computed.
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=6))[1]
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        calls = Counter()
        for module, name in ((selective, "ebsp_to_rbsp"), (aes, "_rounds"), (aes, "_hand_off")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        with pytest.raises(WrongKey):
            decrypt_stream(enc, key_expansion(b"\x42" * 16), header)
        assert calls == {}
        # The same watch sees the work of a decrypt with the right key.
        decrypt_stream(enc, KS, header)
        assert calls["ebsp_to_rbsp"] == len(header.ordinals) and calls["_rounds"] == 1

    def test_tampered_ciphertext_refused(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=6))[1]
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        o = header.ordinals[-1]
        offset = len(enc[o].ebsp) + 1
        enc[o] = replace(enc[o], ebsp=enc[o].ebsp + b"\x11\x00\x00\x03\x05")
        # Called directly, each refuses it with the cipher commands' text.
        refusal = f"^NAL {o}: 00 00 03 05 at payload offset {offset}$"
        with pytest.raises(EscapingViolation, match=refusal):
            decrypt_stream(enc, KS, header)
        with pytest.raises(EscapingViolation, match=refusal):
            encrypt_stream(enc, KS, SelectionResult(EncryptionPolicy.IDR_ONLY, (o,)), NONCE)
        # A ciphertext never ends in 00 00 03, so such a tail is tampering too.
        enc[o] = replace(enc[o], ebsp=enc[o].ebsp[:-5] + b"\x11\x00\x00\x03")
        with pytest.raises(MalformedEscape, match=f"^NAL {o}: 00 00 03 at payload end"):
            decrypt_stream(enc, KS, header)

    def test_ordinal_out_of_range(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=8, payload_size=32, seed=7))[1]
        header = CipherHeader(EncryptionPolicy.IDR_ONLY, key_check_value(KS), NONCE, (999,))
        with pytest.raises(OrdinalOutOfRange):
            decrypt_stream(nals, KS, header)

    def test_decrypts_exactly_listed_ordinals(self):
        nals = split_annexb(gen_test_stream(None, gop=1, frames=4, payload_size=32, seed=8))[1]
        enc, header = encrypt_stream(nals, KS, select(nals, EncryptionPolicy.IDR_ONLY), NONCE)
        partial = CipherHeader(header.policy, header.key_check, header.nonce, header.ordinals[:1])
        dec = decrypt_stream(enc, KS, partial)
        assert dec[header.ordinals[0]] == nals[header.ordinals[0]]
        for o in header.ordinals[1:]:
            assert dec[o] != nals[o]
