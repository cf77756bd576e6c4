import os
import re
import stat
import tempfile
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selenc import bitstream, harness, pipeline, selective
from selenc.aes import ctr_keystream, key_expansion
from selenc.bitstream import (
    START_CODE_3,
    START_CODE_4,
    BitWriter,
    NalUnit,
    classify_stream,
    ebsp_to_rbsp,
    parse_nal_header,
    parse_slice_info,
    rbsp_to_ebsp,
    serialize_annexb,
    split_annexb,
)
from selenc.errors import (
    BadHex,
    EmptyPassphrase,
    EscapingViolation,
    MalformedEscape,
    MalformedHeader,
    NoStartCode,
    OrdinalOutOfRange,
    SelencError,
    WrongKey,
)
from selenc.cli import _print_summary
from selenc.harness import KDF_VECTORS, kdf_oracle
from selenc.pipeline import (
    KeySource,
    RunSummary,
    build_report,
    cmd_decrypt,
    cmd_encrypt,
    cmd_inspect,
    derive_key,
    gen_test_stream,
)
from selenc.selective import (
    CipherHeader,
    EncryptionPolicy,
    SelectionResult,
    decrypt_stream,
    encrypt_stream,
    key_check_value,
    select,
)


class TestKeySource:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            KeySource()
        with pytest.raises(ValueError):
            KeySource(raw_key_hex="00" * 16, passphrase="x")

    def test_iterations_positive(self):
        with pytest.raises(ValueError):
            KeySource.from_passphrase("x", iterations=0)

    @pytest.mark.parametrize(
        "text,refusal",
        [
            ("0" * 31, "raw key must be 32 hex characters, got 31"),
            ("0" * 33, "raw key must be 32 hex characters, got 33"),
            ("0" * 31 + "z", "raw key has a non-hex character at position 31"),
        ],
    )
    def test_bad_raw_key_refused_as_built(self, text, refusal):
        # Judged where it enters, before any command reads a stream.
        with pytest.raises(BadHex) as got:
            KeySource.from_raw_hex(text)
        assert str(got.value) == refusal

    def test_empty_passphrase_refused_as_built(self):
        with pytest.raises(EmptyPassphrase, match="^passphrase must be non-empty$"):
            KeySource.from_passphrase("")

    def test_repr_hides_secrets(self):
        assert "hunter2" not in repr(KeySource.from_passphrase("hunter2 secret"))
        assert "00112233" not in repr(KeySource.from_raw_hex("00112233445566778899aabbccddeeff"))


class TestDeriveKey:
    def test_raw_hex(self):
        src = KeySource.from_raw_hex("000102030405060708090a0b0c0d0e0f")
        assert derive_key(src) == bytes(range(16))

    @pytest.mark.parametrize(
        "text", ["00" * 15, "00" * 17, "zz" + "00" * 15, "", "00" * 7 + " " + "00" * 7 + " " + "00"]
    )
    def test_bad_hex(self, text):
        with pytest.raises(BadHex):
            derive_key(KeySource.from_raw_hex(text))

    def test_empty_passphrase(self):
        with pytest.raises(EmptyPassphrase):
            derive_key(KeySource.from_passphrase(""))

    # LONG_KDF_VECTORS are checked once, by acceptance criterion 8.
    @pytest.mark.parametrize("phrase,iters,expected", KDF_VECTORS)
    def test_frozen_vectors(self, phrase, iters, expected):
        assert derive_key(KeySource.from_passphrase(phrase, iterations=iters)).hex() == expected

    @pytest.mark.parametrize("phrase,iters,expected", KDF_VECTORS)
    def test_oracle_agrees(self, phrase, iters, expected):
        assert kdf_oracle(phrase, iters).hex() == expected

    def test_oracle_agrees_on_block_boundaries(self):
        # 15 and 16 byte passphrases straddle the one/two block split.
        for phrase in ("x" * 15, "x" * 16, "x" * 17, "x" * 31, "x" * 32):
            for iters in (1, 2):
                src = KeySource.from_passphrase(phrase, iterations=iters)
                assert derive_key(src) == kdf_oracle(phrase, iters)

    # Passphrases of 1 to 4 block keys (up to 13 with wide characters), each
    # size pinned by an example; 15 bytes plus the 0x80 marker fill one block.
    @settings(deadline=None)
    @given(st.text(min_size=1, max_size=50), st.integers(1, 3))
    @example("x" * 15, 1)
    @example("x" * 16, 2)
    @example("é" * 16, 3)
    @example("ü" * 24, 1)
    def test_matches_cryptography(self, phrase, iters):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        data = phrase.encode("utf-8") + b"\x80"
        data += bytes(-len(data) % 16)
        encryptors = [
            ciphers.Cipher(ciphers.algorithms.AES(data[i : i + 16]), ciphers.modes.ECB()).encryptor()
            for i in range(0, len(data), 16)
        ]
        h = bytes(16)
        for _ in range(iters):
            for enc in encryptors:
                h = bytes(a ^ b for a, b in zip(enc.update(h), h))
        assert derive_key(KeySource.from_passphrase(phrase, iterations=iters)) == h

    def test_iteration_sensitivity(self):
        one = derive_key(KeySource.from_passphrase("a", iterations=1))
        two = derive_key(KeySource.from_passphrase("a", iterations=2))
        assert one != two

    def test_deterministic(self):
        src = KeySource.from_passphrase("repeat me", iterations=5)
        assert derive_key(src) == derive_key(src)


class TestGenerator:
    def test_idr_count(self):
        data = gen_test_stream(None, gop=12, frames=60, payload_size=64, seed=0)
        rows = classify_stream(split_annexb(data)[1])
        assert sum(1 for r in rows if r.nal_type == 5) == 5

    def test_gop_one_all_idr(self):
        data = gen_test_stream(None, gop=1, frames=3, payload_size=32, seed=0)
        rows = classify_stream(split_annexb(data)[1])
        slices = [r for r in rows if r.nal_type in (1, 5)]
        assert all(r.nal_type == 5 for r in slices) and len(slices) == 3

    def test_deterministic(self):
        a = gen_test_stream(None, gop=4, frames=10, payload_size=50, seed=9)
        b = gen_test_stream(None, gop=4, frames=10, payload_size=50, seed=9)
        assert a == b
        assert a != gen_test_stream(None, gop=4, frames=10, payload_size=50, seed=10)

    def test_structure(self):
        data = gen_test_stream(None, gop=3, frames=7, payload_size=40, seed=4)
        rows = classify_stream(split_annexb(data)[1])
        assert [r.nal_type for r in rows[:2]] == [7, 8]
        assert len(rows) == 2 + 7
        slice_rows = rows[2:]
        assert not any(r.unparsed for r in slice_rows)
        for i, r in enumerate(slice_rows):
            assert r.rbsp_size == 40
            assert r.slice_info.first_mb_in_slice == 0
            if i % 3 == 0:
                assert r.nal_type == 5 and r.slice_info.slice_type == 7
            else:
                assert r.nal_type == 1 and r.slice_info.slice_type == 0

    def test_escaping_exercised(self):
        data = gen_test_stream(None, gop=2, frames=6, payload_size=200, seed=5)
        assert b"\x00\x00\x03" in data

    def test_start_code_mix(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=6))[1]
        assert [n.start_code_len for n in nals] == [4, 3, 3, 4, 4, 4]

    def test_one_byte_payload_is_the_slice_header(self):
        # ue(0) ue(7) is 8 bits and ue(0) ue(0) 2 bits padded to a byte, so
        # payload_size 1 holds each slice header whole.
        nals = split_annexb(gen_test_stream(None, gop=2, frames=2, payload_size=1))[1]
        assert [bytes(n.ebsp) for n in nals[2:]] == [b"\x88", b"\xc0"]
        rows = classify_stream(nals)
        assert [r.slice_info.slice_type for r in rows[2:]] == [7, 0]

    @pytest.mark.parametrize("gop,frames,payload", [(0, 5, 16), (3, 0, 16), (3, 5, 0)])
    def test_parameter_validation(self, gop, frames, payload):
        with pytest.raises(ValueError):
            gen_test_stream(None, gop=gop, frames=frames, payload_size=payload)

    def test_writes_file(self, tmp_path):
        out = tmp_path / "gen.264"
        data = gen_test_stream(out, gop=2, frames=4, payload_size=32, seed=1)
        assert out.read_bytes() == data


def report_of(data, policy):
    nals = split_annexb(data)[1]
    rows = classify_stream(nals)
    return build_report(rows, select(nals, policy), b"", len(data))


def slice_nal(ordinal, header_byte, slice_type, extra=b""):
    """A slice NAL whose RBSP starts first_mb_in_slice = 0, slice_type."""
    w = BitWriter()
    w.write_ue(0)
    w.write_ue(slice_type)
    return NalUnit(ordinal, 4, parse_nal_header(header_byte), rbsp_to_ebsp(w.to_bytes() + extra))


class TestReport:
    def test_aggregates_match_rows(self):
        data = gen_test_stream(None, gop=3, frames=9, payload_size=56, seed=2)
        nals = split_annexb(data)[1]
        report = report_of(data, EncryptionPolicy.IDR_ONLY)
        rows = report.rows
        assert report.vcl_payload_bytes == sum(
            r.rbsp_size for r in rows if r.nal_type in (1, 5)
        )
        chosen = set(report.selected_ordinals)
        assert report.selected_bytes == sum(r.rbsp_size for r in rows if r.ordinal in chosen)
        assert report.aes_blocks == sum(
            -(-r.rbsp_size // 16) for r in rows if r.ordinal in chosen
        )
        assert report.total_bytes == sum(n.wire_size() for n in nals)
        assert 0.0 <= report.encrypted_fraction <= 1.0

    def test_byte_accounting(self):
        idr = slice_nal(1, 0x65, 7, b"\x11" * 31)  # 32 rbsp bytes
        p = [slice_nal(o, 0x41, 0, b"\x22" * 15) for o in (2, 3)]  # 16 rbsp bytes each
        sps = NalUnit(0, 4, parse_nal_header(0x67), b"\x42\x00")
        report = report_of(serialize_annexb([sps, idr, *p]), EncryptionPolicy.IDR_ONLY)
        assert report.selected_bytes == 32
        assert report.vcl_payload_bytes == 32 + 16 + 16

    def test_nothing_selected(self):
        sps = NalUnit(0, 4, parse_nal_header(0x67), b"\x42")
        nals = [sps, slice_nal(1, 0x41, 0), slice_nal(2, 0x41, 1)]
        report = report_of(serialize_annexb(nals), EncryptionPolicy.ALL_INTRA)
        assert report.selected_ordinals == ()
        assert report.selected_bytes == 0

    def test_unparseable_type1_reported_not_selected(self):
        nals = [slice_nal(0, 0x65, 7), NalUnit(1, 4, parse_nal_header(0x41), b"")]
        report = report_of(serialize_annexb(nals), EncryptionPolicy.ALL_INTRA)
        assert report.selected_ordinals == (0,)
        assert report.unparsed_ordinals == (1,)

    @pytest.mark.parametrize(
        "policy,unparsed", [(EncryptionPolicy.ALL_INTRA, (14,)), (EncryptionPolicy.IDR_ONLY, ())]
    )
    def test_encrypt_and_decrypt_report_unparsed_slices(self, tmp_path, policy, unparsed):
        # A trailing non-IDR slice of zero bytes has no readable header.
        plain, enc, meta, out = (tmp_path / n for n in ("p.264", "e.264", "m.seh", "o.264"))
        data = gen_test_stream(None, gop=4, frames=12, payload_size=64, seed=3)
        plain.write_bytes(data + b"\x00\x00\x00\x01\x41\x00\x00")
        report = cmd_encrypt(plain, enc, meta, KEY, policy, nonce=b"\x33" * 8)
        assert report.unparsed_ordinals == unparsed
        assert cmd_decrypt(enc, meta, out, KEY).unparsed_ordinals == unparsed

    def test_to_dict_keys(self):
        data = gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=3)
        d = report_of(data, EncryptionPolicy.IDR_ONLY).to_dict()
        assert list(d) == [
            "policy",
            "leading_garbage",
            "total_bytes",
            "vcl_payload_bytes",
            "selected_bytes",
            "selected_ordinals",
            "encrypted_fraction",
            "aes_blocks",
            "nals",
        ]
        assert list(d["nals"][2]) == [
            "ordinal",
            "type",
            "name",
            "size",
            "rbsp_size",
            "slice_type",
            "is_intra",
            "unparsed",
            "forbidden_bit",
        ]

    def test_to_dict_round_trips_through_json(self):
        import json

        data = gen_test_stream(None, gop=2, frames=4, payload_size=32, seed=3)
        nals = split_annexb(data)[1]
        report = report_of(data, EncryptionPolicy.ALL_INTRA)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["policy"] == "ALL_INTRA"
        assert len(parsed["nals"]) == len(nals)


KEY = KeySource.from_raw_hex("00112233445566778899aabbccddeeff")
# SPS, PPS, an IDR slice, then a second IDR slice behind a 3-byte start code.
# Under KEY and LOST_BYTE_NONCE the first IDR's ciphertext ends in 00.
LOST_BYTE_CLIP = bytes.fromhex(
    "00000001" "6742c01e11" "000001" "68ce3880"
    "00000001" "6588a1b2c3d4e5f607" "000001" "6588f7e6d5c4b3a291"
)
LOST_BYTE_NONCE = bytes.fromhex("00000000000004cd")


class TestFileCommands:
    def make_files(self, tmp_path, **gen_kwargs):
        params = dict(gop=4, frames=12, payload_size=96, seed=21)
        params.update(gen_kwargs)
        plain = tmp_path / "plain.264"
        gen_test_stream(plain, **params)
        return plain, tmp_path / "enc.264", tmp_path / "meta.seh", tmp_path / "out.264"

    def test_round_trip(self, tmp_path):
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, EncryptionPolicy.IDR_ONLY, nonce=b"\x01" * 8)
        cmd_decrypt(enc, meta, out, KEY)
        assert out.read_bytes() == plain.read_bytes()
        assert enc.read_bytes() != plain.read_bytes()

    def test_sidecar_count_matches_report(self, tmp_path):
        plain, enc, meta, _ = self.make_files(tmp_path, gop=12, frames=60)
        report = cmd_encrypt(plain, enc, meta, KEY, EncryptionPolicy.IDR_ONLY, nonce=b"\x02" * 8)
        header = CipherHeader.from_bytes(meta.read_bytes())
        idr_rows = [r for r in cmd_inspect(plain).rows if r.nal_type == 5]
        assert len(header.ordinals) == len(idr_rows) == 5
        assert report.selected_ordinals == header.ordinals

    def test_deterministic_with_explicit_nonce(self, tmp_path):
        plain, enc, meta, _ = self.make_files(tmp_path)
        enc2, meta2 = tmp_path / "enc2.264", tmp_path / "meta2.seh"
        cmd_encrypt(plain, enc, meta, KEY, EncryptionPolicy.IDR_ONLY, nonce=b"\x03" * 8)
        cmd_encrypt(plain, enc2, meta2, KEY, EncryptionPolicy.IDR_ONLY, nonce=b"\x03" * 8)
        assert enc.read_bytes() == enc2.read_bytes()
        assert meta.read_bytes() == meta2.read_bytes()

    def test_random_nonce_recorded(self, tmp_path):
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY)
        header = CipherHeader.from_bytes(meta.read_bytes())
        assert len(header.nonce) == 8
        cmd_decrypt(enc, meta, out, KEY)
        assert out.read_bytes() == plain.read_bytes()

    def test_empty_input_no_output(self, tmp_path):
        empty = tmp_path / "empty.264"
        empty.write_bytes(b"")
        enc, meta = tmp_path / "enc.264", tmp_path / "meta.seh"
        with pytest.raises(NoStartCode):
            cmd_encrypt(empty, enc, meta, KEY)
        assert not enc.exists() and not meta.exists()

    BAD_SPS = b"\x00\x00\x00\x01\x67\x42\x00\x00\x02\x1e"
    BAD_IDR = b"\x00\x00\x00\x01\x65\x88\x00\x00\x02\x11"
    # A non-IDR I slice (slice_type 7) whose 00 00 02 lies past its 16-byte
    # header prefix, and a non-IDR P slice (slice_type 0) that holds one.
    BAD_I = b"\x00\x00\x00\x01\x41\x88" + b"\xaa" * 20 + b"\x00\x00\x02\x11"
    BAD_P = b"\x00\x00\x00\x01\x41\xc0\x00\x00\x02\x11"

    def test_forbidden_run_in_a_rewritten_nal_writes_nothing(self, tmp_path, monkeypatch):
        # A NAL the command would rewrite that holds a forbidden 00 00 0X is
        # refused by name before any key work, and no file is written.
        plain, enc, meta, out = self.make_files(tmp_path)
        clean = plain.read_bytes()
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        refusal = "^NAL {}: 00 00 02 at payload offset 1$"
        dirty = tmp_path / "dirty.264"
        for policy in EncryptionPolicy:
            for stream, ordinal in ((self.BAD_IDR + clean, 0), (clean + self.BAD_IDR, 14)):
                dirty.write_bytes(stream)
                with pytest.raises(EscapingViolation, match=refusal.format(ordinal)):
                    cmd_encrypt(dirty, enc, meta, KEY, policy, nonce=b"\x0a" * 8)
                assert not enc.exists() and not meta.exists() and keyed == []
            # Decryption refuses an IDR in place of NAL 14, which the sidecar
            # lists as ciphered.
            dirty.write_bytes(clean + b"\x00\x00\x00\x01\x65\x88\x44\x55\x66\x11")
            cmd_encrypt(dirty, enc, meta, KEY, policy, nonce=b"\x0a" * 8)
            assert 14 in CipherHeader.from_bytes(meta.read_bytes()).ordinals
            data = enc.read_bytes()
            enc.write_bytes(data[: data.rindex(b"\x00\x00\x00\x01")] + self.BAD_IDR)
            keyed.clear()
            with pytest.raises(EscapingViolation, match=refusal.format(14)):
                cmd_decrypt(enc, meta, out, KEY)
            assert not out.exists() and keyed == []
            enc.unlink()
            meta.unlink()
        # All-i picks a non-IDR I slice by its header, read whatever its
        # payload holds, and so refuses it the same way.
        for stream, ordinal in ((self.BAD_I + clean, 0), (clean + self.BAD_I, 14)):
            dirty.write_bytes(stream)
            with pytest.raises(EscapingViolation, match=f"^NAL {ordinal}: 00 00 02 at payload offset 21$"):
                cmd_encrypt(dirty, enc, meta, KEY, EncryptionPolicy.ALL_INTRA, nonce=b"\x0a" * 8)
            assert not enc.exists() and not meta.exists() and keyed == []

    def test_forbidden_run_left_in_the_clear_round_trips(self, tmp_path):
        # A badly escaped NAL that no command rewrites is copied byte for
        # byte, and inspect flags it malformed. A bad non-intra slice still
        # has a readable header, so no policy reports it unparsed.
        plain, enc, meta, out = self.make_files(tmp_path)
        clean = plain.read_bytes()
        dirty = tmp_path / "dirty.264"
        for policy in EncryptionPolicy:
            cases = ((self.BAD_SPS + clean, 0), (clean + self.BAD_SPS, 14), (clean + self.BAD_P, 14))
            for stream, ordinal in cases:
                dirty.write_bytes(stream)
                report = cmd_encrypt(dirty, enc, meta, KEY, policy, nonce=b"\x0a" * 8)
                assert ordinal not in report.selected_ordinals and report.unparsed_ordinals == ()
                assert cmd_decrypt(enc, meta, out, KEY).unparsed_ordinals == ()
                assert out.read_bytes() == stream
                row = cmd_inspect(dirty, policy).rows[ordinal]
                assert (row.malformed_escape, row.unparsed) == (True, False)
                assert row.slice_info == ((0, 0) if row.nal_type == 1 else None)
            # A bad SPS appended after the ciphertext is a NAL the sidecar
            # does not list, so decryption copies it.
            cmd_encrypt(plain, enc, meta, KEY, policy, nonce=b"\x0a" * 8)
            enc.write_bytes(enc.read_bytes() + self.BAD_SPS)
            cmd_decrypt(enc, meta, out, KEY)
            assert out.read_bytes() == clean + self.BAD_SPS

    def test_sidecar_that_outruns_the_stream_writes_nothing(self, tmp_path, monkeypatch):
        # A ciphertext cut short before a listed NAL is refused with a typed
        # error before any key work, not with an IndexError.
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x0f" * 8)
        assert CipherHeader.from_bytes(meta.read_bytes()).ordinals == (2, 6, 10)
        nals = split_annexb(enc.read_bytes())[1]
        enc.write_bytes(enc.read_bytes()[: sum(n.wire_size() for n in nals[:10])])
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        with pytest.raises(OrdinalOutOfRange, match="^NAL 10 is listed but the stream has 10$"):
            cmd_decrypt(enc, meta, out, KEY)
        assert not out.exists() and keyed == []

    def test_short_nonce_refused_before_key_work(self, tmp_path, monkeypatch):
        # A caller's nonce is checked before the passphrase KDF runs, not
        # only when the sidecar is built from it.
        plain, enc, meta, _ = self.make_files(tmp_path)
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        phrase = KeySource.from_passphrase("short nonce", iterations=1000)
        with pytest.raises(ValueError, match="^nonce must be 8 bytes$"):
            cmd_encrypt(plain, enc, meta, phrase, nonce=b"\x0a" * 7)
        assert not enc.exists() and not meta.exists() and keyed == []

    def test_ciphertext_that_would_lose_a_byte_writes_nothing(self, tmp_path):
        # A reader takes the 00 that ends NAL 2's ciphertext into the 3-byte
        # start code after it, so the stream would decrypt to other bytes.
        nals = split_annexb(LOST_BYTE_CLIP)[1]
        ks, sel = key_expansion(derive_key(KEY)), select(nals, EncryptionPolicy.IDR_ONLY)
        enc_nals, _ = encrypt_stream(nals, ks, sel, LOST_BYTE_NONCE)
        assert enc_nals[2].ebsp[-1:] == b"\x00" and nals[3].start_code_len == 3
        assert split_annexb(b"".join(n.to_bytes() for n in enc_nals))[1][2].ebsp != enc_nals[2].ebsp
        refusal = "^NAL 2: payload ends in 00 before a 3-byte start code$"
        with pytest.raises(EscapingViolation, match=refusal):
            serialize_annexb(enc_nals)
        plain, enc, meta, out = (tmp_path / n for n in ("p.264", "e.264", "m.seh", "o.264"))
        plain.write_bytes(LOST_BYTE_CLIP)
        with pytest.raises(EscapingViolation, match=refusal):
            cmd_encrypt(plain, enc, meta, KEY, nonce=LOST_BYTE_NONCE)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.264"]
        # Another nonce leaves no 00 there, and the clip round-trips.
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x0c" * 8)
        cmd_decrypt(enc, meta, out, KEY)
        assert out.read_bytes() == LOST_BYTE_CLIP

    def test_plaintext_that_would_lose_a_byte_writes_nothing(self, tmp_path):
        # The counter-mode XOR is symmetric: the ciphertext of a plaintext
        # whose NAL 2 ends in 00 decrypts to that payload, which the 3-byte
        # start code after it would cut short.
        nals = split_annexb(LOST_BYTE_CLIP)[1]
        nals[2] = replace(nals[2], ebsp=bytes(nals[2].ebsp[:-1]) + b"\x00")
        ks, sel = key_expansion(derive_key(KEY)), select(nals, EncryptionPolicy.IDR_ONLY)
        enc_nals, header = encrypt_stream(nals, ks, sel, b"\x0c" * 8)
        assert enc_nals[2].ebsp[-1:] != b"\x00"
        enc, meta, out = tmp_path / "e.264", tmp_path / "m.seh", tmp_path / "o.264"
        enc.write_bytes(serialize_annexb(enc_nals))
        meta.write_bytes(header.to_bytes())
        refusal = "^NAL 2: payload ends in 00 before a 3-byte start code$"
        with pytest.raises(EscapingViolation, match=refusal):
            cmd_decrypt(enc, meta, out, KEY)
        assert not out.exists()

    def test_sidecar_written_before_stream(self, tmp_path):
        # Encrypting a file in place with an unwritable sidecar path must
        # leave the plaintext as it was, not replace it with a ciphertext
        # whose random nonce is lost.
        plain, enc, meta, _ = self.make_files(tmp_path)
        before = plain.read_bytes()
        with pytest.raises(OSError):
            cmd_encrypt(plain, plain, tmp_path / "missing" / "m.seh", KEY)
        assert plain.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.264"]
        # Nor may an unwritable stream path replace the sidecar of an
        # earlier ciphertext.
        cmd_encrypt(plain, enc, meta, KEY)
        sidecar = meta.read_bytes()
        with pytest.raises(OSError):
            cmd_encrypt(plain, tmp_path / "missing" / "e.264", meta, KEY)
        assert meta.read_bytes() == sidecar
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enc.264", "meta.seh", "plain.264"]

    @pytest.mark.parametrize("payload", ["88aa9abc80000003", "88aa000003051122"])
    def test_kept_escape_in_ciphered_nal_writes_nothing(self, tmp_path, monkeypatch, payload):
        # A cabac_zero_word tail loses its 03 on unescape, and re-escaping the
        # ciphertext would not restore it, so ciphering refuses it. A 00 00 03
        # before 0x05 breaks 7.4.1. Encrypt, and decrypt for a NAL the
        # sidecar lists, refuse each before any key work.
        refusals = {
            "88aa9abc80000003": (MalformedEscape, "00 00 03 at payload end would not round-trip"),
            "88aa000003051122": (EscapingViolation, "00 00 03 05 at payload offset 2"),
        }
        error, text = refusals[payload]
        plain, enc, meta, out = self.make_files(tmp_path)
        bad = b"\x00\x00\x00\x01\x65" + bytes.fromhex(payload)
        dirty = tmp_path / "dirty.264"
        dirty.write_bytes(plain.read_bytes() + bad)
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        with pytest.raises(error, match=f"^NAL 14: {text}$"):
            cmd_encrypt(dirty, enc, meta, KEY, nonce=b"\x0b" * 8)
        assert not enc.exists() and not meta.exists() and keyed == []
        # The same NAL in place of a ciphered NAL 14 is refused on decrypt.
        dirty.write_bytes(plain.read_bytes() + b"\x00\x00\x00\x01\x65\x88\x44\x55\x66\x11")
        cmd_encrypt(dirty, enc, meta, KEY, nonce=b"\x0b" * 8)
        assert 14 in CipherHeader.from_bytes(meta.read_bytes()).ordinals
        data = enc.read_bytes()
        enc.write_bytes(data[: data.rindex(b"\x00\x00\x00\x01")] + bad)
        keyed.clear()
        with pytest.raises(error, match=f"^NAL 14: {text}$"):
            cmd_decrypt(enc, meta, out, KEY)
        assert not out.exists() and keyed == []

    @pytest.mark.parametrize(
        "out,meta",
        [
            ("plain.264", "plain.264"),
            ("enc.264", "plain.264"),
            ("enc.264", "./plain.264"),
            ("enc.264", "enc.264"),
            ("./enc.264", "sub/../enc.264"),
        ],
    )
    def test_sidecar_naming_input_or_output_writes_nothing(self, tmp_path, monkeypatch, out, meta):
        # The stream would replace the sidecar, and with it a random nonce.
        # Paths that resolve to the same file are refused before any key work.
        plain = self.make_files(tmp_path)[0]
        before = plain.read_bytes()
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        with pytest.raises(ValueError, match="^sidecar path .* names the input or the output file$"):
            cmd_encrypt("plain.264", out, meta, KEY)
        assert keyed == [] and plain.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.264", "sub"]

    @pytest.mark.parametrize(
        "src,meta,out",
        [
            ("enc.264", "meta.seh", "meta.seh"),
            ("enc.264", "meta.seh", "./meta.seh"),
            ("enc.264", "sub/../meta.seh", "meta.seh"),
            ("meta.seh", "meta.seh", "out.264"),
        ],
    )
    def test_decrypt_sidecar_naming_input_or_output_writes_nothing(
        self, tmp_path, monkeypatch, src, meta, out
    ):
        # The plaintext would replace the sidecar, and the stream could not
        # be decrypted again. In-place decrypt stays allowed.
        plain, enc, sidecar, _ = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, sidecar, KEY, nonce=b"\x0e" * 8)
        before = sidecar.read_bytes()
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        with pytest.raises(ValueError, match="^sidecar path .* names the input or the output file$"):
            cmd_decrypt(src, meta, out, KEY)
        assert keyed == [] and sidecar.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enc.264", "meta.seh", "plain.264", "sub"]
        cmd_decrypt(enc, sidecar, enc, KEY)
        assert enc.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("target", ["out", "meta"])
    def test_directory_target_writes_nothing(self, tmp_path, monkeypatch, target):
        # The sidecar is renamed into place first, and renaming the stream
        # onto a directory then fails: the old ciphertext would be left with
        # a new sidecar's nonce. A directory target is refused before any
        # key work, and every file is left as it was.
        plain, enc, meta, _ = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x10" * 8)
        before = {p: p.read_bytes() for p in (plain, enc, meta)}
        folder = tmp_path / "folder"
        folder.mkdir()
        keyed = []
        monkeypatch.setattr(pipeline, "derive_key", lambda k: keyed.append(k) or derive_key(k))
        out, sidecar = (folder, meta) if target == "out" else (enc, folder)
        with pytest.raises(IsADirectoryError) as refusal:
            cmd_encrypt(plain, out, sidecar, KEY)
        assert refusal.value.filename == str(folder) and keyed == []
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enc.264", "folder", "meta.seh", "plain.264"]
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_files_get_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            plain, enc, meta, out = self.make_files(tmp_path)
            cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x0c" * 8)
            cmd_decrypt(enc, meta, out, KEY)
        finally:
            os.umask(old)
        for path in (plain, enc, meta, out):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name

    def test_replaced_files_keep_their_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            plain, _, meta, out = self.make_files(tmp_path)
            before = plain.read_bytes()
            out.write_bytes(b"")
            os.chmod(plain, 0o640)
            os.chmod(out, 0o604)
            cmd_encrypt(plain, plain, meta, KEY, nonce=b"\x0d" * 8)  # in place
            cmd_decrypt(plain, meta, out, KEY)
        finally:
            os.umask(old)
        assert out.read_bytes() == before
        modes = [stat.S_IMODE(p.stat().st_mode) for p in (plain, meta, out)]
        assert modes == [0o640, 0o644, 0o604]

    @pytest.mark.parametrize("dangling", [False, True], ids=["existing", "dangling"])
    def test_symlinked_targets_are_written_through(self, tmp_path, dangling):
        # open(path, "wb") writes through a symlink, so both cipher commands
        # do too: each link is left in place and the file it names, created
        # if the link dangles, gets the bytes. One link is relative.
        plain, enc, meta, out = self.make_files(tmp_path)
        real = tmp_path / "real"
        real.mkdir()
        names = ("enc.264", "meta.seh", "out.264")
        for name in names:
            if not dangling:
                (real / name).write_bytes(b"old")
        enc.symlink_to(real / "enc.264")
        meta.symlink_to(Path("real") / "meta.seh")
        out.symlink_to(real / "out.264")
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x11" * 8)
        cmd_decrypt(enc, meta, out, KEY)
        ref_enc, ref_meta = tmp_path / "ref.264", tmp_path / "ref.seh"
        cmd_encrypt(plain, ref_enc, ref_meta, KEY, nonce=b"\x11" * 8)
        assert all(p.is_symlink() for p in (enc, meta, out))
        assert (real / "enc.264").read_bytes() == ref_enc.read_bytes()
        assert (real / "meta.seh").read_bytes() == ref_meta.read_bytes()
        assert (real / "out.264").read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in real.iterdir()) == sorted(names)

    def test_wrong_key(self, tmp_path):
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x04" * 8)
        with pytest.raises(WrongKey):
            cmd_decrypt(enc, meta, out, KeySource.from_raw_hex("ff" * 16))
        assert not out.exists()

    def test_truncated_sidecar(self, tmp_path, monkeypatch):
        # Refused before the stream is read.
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x05" * 8)
        meta.write_bytes(meta.read_bytes()[:10])
        reads, real = [], pipeline._read_stream
        monkeypatch.setattr(pipeline, "_read_stream", lambda path: reads.append(path) or real(path))
        with pytest.raises(MalformedHeader, match="^sidecar truncated: 10 bytes, need at least 22$"):
            cmd_decrypt(enc, meta, out, KEY)
        assert reads == [] and not out.exists()

    def test_wrong_kdf_iterations_is_a_plain_wrong_key(self, tmp_path):
        # The library names no CLI flag: the CLI adds its --kdf-iters advice.
        plain, enc, meta, out = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KeySource.from_passphrase("sesame", iterations=3))
        with pytest.raises(WrongKey) as got:
            cmd_decrypt(enc, meta, out, KeySource.from_passphrase("sesame", iterations=4))
        assert str(got.value) == "sidecar key check does not match the supplied key"
        assert not out.exists()

    def test_leading_garbage_preserved(self, tmp_path):
        plain, enc, meta, out = self.make_files(tmp_path)
        dirty = tmp_path / "dirty.264"
        dirty.write_bytes(b"\xde\xad\xbe" + plain.read_bytes())
        report = cmd_encrypt(dirty, enc, meta, KEY, nonce=b"\x06" * 8)
        assert report.leading_garbage == 3
        assert enc.read_bytes()[:3] == b"\xde\xad\xbe"
        cmd_decrypt(enc, meta, out, KEY)
        assert out.read_bytes() == dirty.read_bytes()

    def test_passphrase_round_trip(self, tmp_path):
        plain, enc, meta, out = self.make_files(tmp_path, frames=6)
        key = KeySource.from_passphrase("hunter2 but longer", iterations=4)
        cmd_encrypt(plain, enc, meta, key, EncryptionPolicy.ALL_INTRA)
        cmd_decrypt(enc, meta, out, key)
        assert out.read_bytes() == plain.read_bytes()
        with pytest.raises(WrongKey):
            cmd_decrypt(enc, meta, out, KeySource.from_passphrase("hunter3", iterations=4))

    def test_inspect(self, tmp_path):
        plain, enc, meta, _ = self.make_files(tmp_path, gop=3, frames=6)
        before = plain.read_bytes()
        report = cmd_inspect(plain)
        assert len(report.rows) == 2 + 6
        assert plain.read_bytes() == before

    def test_inspect_encrypted_keeps_types(self, tmp_path):
        plain, enc, meta, _ = self.make_files(tmp_path)
        cmd_encrypt(plain, enc, meta, KEY, nonce=b"\x07" * 8)
        original = cmd_inspect(plain)
        encrypted = cmd_inspect(enc)
        assert [r.nal_type for r in encrypted.rows] == [r.nal_type for r in original.rows]

    def test_inspect_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            cmd_inspect(tmp_path / "nope.264")


class TestOnePass:
    """Only inspect classifies. It unescapes the 16-byte header prefix of
    each slice NAL once, and nothing of a parameter set. The cipher commands
    and bench unescape each ciphered NAL once and, under all-i, the header
    prefix of each non-IDR slice; an IDR is picked by its header byte.

    A payload is scanned for a forbidden run once, when its NAL's verdict is
    first read: no check reads it again, and each unescape is handed the
    verdict already read. Reading a stream scans nothing, and the cipher
    commands judge only the NALs they rewrite: a slice header is read from
    its prefix without a scan."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("ebsp_to_rbsp", "classify_stream"):
            real = getattr(bitstream, name)
            for module in (bitstream, selective, pipeline, harness):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting(name, real))
        scans = types.SimpleNamespace(search=counting("scan", bitstream._EPB_VIOLATION.search))
        monkeypatch.setattr(bitstream, "_EPB_VIOLATION", scans)
        return calls

    @pytest.mark.parametrize("policy", list(EncryptionPolicy))
    def test_each_command_unescapes_each_nal_once(self, tmp_path, counts, policy):
        plain, enc, meta, out = (tmp_path / n for n in ("p.264", "e.264", "m.seh", "o.264"))
        # The trailing bare start code is a NAL without a header byte.
        data = gen_test_stream(None, gop=4, frames=12, payload_size=96, seed=31)
        plain.write_bytes(data + b"\x00\x00\x00\x01")
        nals = split_annexb(plain.read_bytes())[1]
        slices = sum(n.header is not None and n.header.nal_unit_type in (1, 5) for n in nals)
        assert (len(nals), slices, sum(n.header is not None for n in nals)) == (15, 12, 14)

        counts.clear()
        report = cmd_encrypt(plain, enc, meta, KEY, policy, nonce=b"\x09" * 8)
        ciphered = len(report.selected_ordinals)
        assert ciphered == 3
        headers = slices - ciphered if policy is EncryptionPolicy.ALL_INTRA else 0
        # Judged under either policy: each NAL to cipher before the key (its
        # plaintext) and at the splice (its ciphertext), 6 in all.
        scans = 2 * ciphered
        assert counts == {"ebsp_to_rbsp": headers + ciphered, "scan": scans}

        counts.clear()
        cmd_decrypt(enc, meta, out, KEY)
        assert counts == {"ebsp_to_rbsp": headers + ciphered, "scan": scans}
        assert out.read_bytes() == plain.read_bytes()

        counts.clear()
        cmd_inspect(plain, policy)
        # Each of the 14 NALs with a header byte is judged.
        assert counts == {"classify_stream": 1, "ebsp_to_rbsp": slices, "scan": 14}

    def test_reading_a_stream_scans_nothing(self, counts):
        bad_sps = b"\x00\x00\x00\x01\x67\x00\x00\x02"
        data = bad_sps + gen_test_stream(None, gop=4, frames=12, payload_size=96, seed=31)
        counts.clear()
        leading, nals = bitstream.split_annexb(data)
        assert (leading, len(nals)) == (b"", 15)
        assert counts == {}
        assert nals[0].escape_violation == "00 00 02 at payload offset 0"
        assert counts == {"scan": 1}

    def test_slice_headers_are_read_from_16_bytes(self, tmp_path, monkeypatch):
        # parse_slice_info reads all it is given, so the 16-byte prefix is
        # what keeps the header read of a long slice cheap.
        seen = []

        def recording(rbsp):
            seen.append(len(rbsp))
            return parse_slice_info(rbsp)

        monkeypatch.setattr(bitstream, "parse_slice_info", recording)
        plain = tmp_path / "p.264"
        plain.write_bytes(gen_test_stream(None, gop=4, frames=12, payload_size=8192, seed=31))
        report = cmd_inspect(plain, EncryptionPolicy.ALL_INTRA)
        assert len(seen) == sum(r.nal_type in (1, 5) for r in report.rows) == 12
        assert max(seen) <= 16

    @pytest.mark.parametrize("policy", list(EncryptionPolicy))
    def test_bench_classifies_nothing(self, counts, policy):
        data = gen_test_stream(None, gop=4, frames=12, payload_size=96, seed=31)
        nals = split_annexb(data + b"\x00\x00\x00\x01")[1]
        counts.clear()
        result = harness.bench(nals, key_expansion(derive_key(KEY)), policy)
        assert result.aes_blocks_selective == 3 * 6
        # The naive pass unescapes each of the 14 NALs with a header byte.
        headers = 9 if policy is EncryptionPolicy.ALL_INTRA else 0
        # check_cipherable judges those 14 first, not the header-less 15th,
        # and nothing is judged again.
        assert counts == {"ebsp_to_rbsp": headers + 3 + 14, "scan": 14}

    @pytest.mark.parametrize(
        "sps,error,text",
        [
            ("4200000211", EscapingViolation, "NAL 0: 00 00 02 at payload offset 1"),
            ("42c01e000003", MalformedEscape, "NAL 0: 00 00 03 at payload end would not round-trip"),
        ],
    )
    def test_bench_refuses_before_either_pass(self, counts, sps, error, text):
        # Only the naive pass would cipher the prefixed SPS. Bench refuses
        # it with a cipher command's text having judged that one NAL, before
        # the selective pass reads or ciphers anything.
        data = b"\x00\x00\x00\x01\x67" + bytes.fromhex(sps)
        nals = split_annexb(data + gen_test_stream(None, gop=4, frames=12, payload_size=96, seed=31))[1]
        ks = key_expansion(derive_key(KEY))
        counts.clear()
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            harness.bench(nals, ks, EncryptionPolicy.IDR_ONLY)
        assert counts == {"scan": 1}


@pytest.mark.parametrize(
    "case,error,text",
    [
        ("out_of_range", OrdinalOutOfRange, "NAL 14 is listed but the stream has 14"),
        ("position", OrdinalOutOfRange, "NAL 2 is listed but position 2 holds NAL 3"),
        ("forbidden_run", EscapingViolation, "NAL 14: 00 00 03 05 at payload offset 2"),
        ("tail", MalformedEscape, "NAL 14: 00 00 03 at payload end would not round-trip"),
    ],
)
def test_every_caller_refuses_a_listed_nal_alike(case, error, text):
    # encrypt_stream, decrypt_stream and harness.bench refuse each listed NAL
    # that cannot be ciphered with the type and text the cipher commands give
    # before any key work (test_kept_escape_in_ciphered_nal_writes_nothing,
    # test_sidecar_that_outruns_the_stream_writes_nothing). A list read from
    # a file holds NAL k at position k, so only a library caller can list a
    # shifted NAL.
    clip = gen_test_stream(None, gop=4, frames=12, payload_size=96, seed=21)
    payload = {"forbidden_run": "88aa000003051122", "tail": "88aa9abc80000003"}.get(case, "8844556611")
    nals = split_annexb(clip + b"\x00\x00\x00\x01\x65" + bytes.fromhex(payload))[1]
    # Dropping NAL 13 leaves NAL 14 past the end; dropping NAL 1 shifts the rest.
    if case in ("out_of_range", "position"):
        del nals[13 if case == "out_of_range" else 1]
    ks = key_expansion(derive_key(KEY))
    selection = select(nals, EncryptionPolicy.IDR_ONLY)
    assert selection.selected_ordinals == (2, 6, 10, 14)
    nonce = b"\x0b" * 8
    header = CipherHeader(selection.policy, key_check_value(ks), nonce, selection.selected_ordinals)
    refusal = f"^{re.escape(text)}$"
    with pytest.raises(error, match=refusal):
        encrypt_stream(nals, ks, selection, nonce)
    with pytest.raises(error, match=refusal):
        decrypt_stream(nals, ks, header)
    with pytest.raises(error, match=refusal):
        harness.bench(nals, ks, EncryptionPolicy.IDR_ONLY)


SUMMARY_FIELDS = (
    "policy",
    "nal_count",
    "leading_garbage",
    "total_bytes",
    "selected_ordinals",
    "selected_bytes",
    "encrypted_fraction",
    "aes_blocks",
    "unparsed_ordinals",
)


def _multislice_stream():
    """Pictures of two or three slices, every slice after the first behind a
    3-byte start code: an IDR picture, an intra picture, a P picture and a
    mixed one."""
    nals = [
        NalUnit(0, 4, parse_nal_header(0x67), b"\x42\xc0\x1e\x11"),
        NalUnit(1, 3, parse_nal_header(0x68), b"\xce\x38\x80"),
    ]
    pictures = ((0x65, (7, 7)), (0x41, (2, 7, 2)), (0x41, (0, 5)), (0x41, (2, 0, 7)))
    for p, (header_byte, slice_types) in enumerate(pictures):
        for i, slice_type in enumerate(slice_types):
            w = BitWriter()
            w.write_ue(40 * i)  # first_mb_in_slice
            w.write_ue(slice_type)
            filler = bytes((p * 37 + i * 11 + k * 5) % 256 | 1 for k in range(60 + 9 * i))
            scl = 4 if i == 0 else 3
            nals.append(NalUnit(len(nals), scl, parse_nal_header(header_byte),
                                rbsp_to_ebsp(w.to_bytes() + filler)))
    return serialize_annexb(nals)


@pytest.mark.parametrize("policy", list(EncryptionPolicy))
@pytest.mark.parametrize(
    "data",
    [
        b"\xde\xad\xbe" + gen_test_stream(None, gop=3, frames=9, payload_size=64, seed=2),
        # A trailing non-IDR slice of zero bytes has no readable header.
        gen_test_stream(None, gop=4, frames=12, payload_size=64, seed=3) + b"\x00\x00\x00\x01\x41\x00\x00",
        _multislice_stream(),
    ],
    ids=["leading_garbage", "unparsed_slice", "multislice"],
)
def test_cipher_summaries_match_inspect(tmp_path, capsys, data, policy):
    # encrypt and decrypt report, and print, the summary inspect gives for the plain stream.
    plain, enc, meta, out = (tmp_path / n for n in ("p.264", "e.264", "m.seh", "o.264"))
    plain.write_bytes(data)
    reports = [
        cmd_inspect(plain, policy),
        cmd_encrypt(plain, enc, meta, KEY, policy, nonce=b"\x0b" * 8),
        cmd_decrypt(enc, meta, out, KEY),
    ]
    assert out.read_bytes() == data
    # Each summary is the selection it ciphered, so policy, selected_ordinals
    # and unparsed_ordinals are read the way select's result reads them.
    assert all(isinstance(report, RunSummary) for report in reports)
    assert all(isinstance(report, SelectionResult) for report in reports)
    assert reports[0].nal_count == len(reports[0].rows)
    want = tuple(getattr(reports[0], name) for name in SUMMARY_FIELDS)
    assert want[3], "the stream must have a selection to count"
    for report in reports[1:]:
        assert tuple(getattr(report, name) for name in SUMMARY_FIELDS) == want
    capsys.readouterr()
    for report in reports:
        _print_summary(report)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0] == lines[1] == lines[2]


@pytest.mark.parametrize("policy", list(EncryptionPolicy))
def test_cipher_summaries_count_the_bytes_they_wrote(tmp_path, policy):
    # The IDR slice's plaintext is chosen so that its ciphertext RBSP holds
    # 00 00 00 00, which escapes to 00 00 03 00 00: each command's
    # selected_bytes and aes_blocks must equal a recount of the RBSPs of
    # the listed NALs in the file it wrote, not a size of escaped bytes.
    nonce = b"\x0c" * 8
    nals = split_annexb(gen_test_stream(None, gop=8, frames=6, payload_size=300, seed=4))[1]
    o = next(n.ordinal for n in nals if n.header.nal_unit_type == 5)
    rbsp = bytearray(ebsp_to_rbsp(nals[o].ebsp))
    rbsp[100:104] = ctr_keystream(key_expansion(derive_key(KEY)), nonce, [(o, len(rbsp))])[100:104]
    nals[o] = NalUnit(o, nals[o].start_code_len, nals[o].header, rbsp_to_ebsp(bytes(rbsp)))
    plain, enc, meta, out = (tmp_path / n for n in ("p.264", "e.264", "m.seh", "o.264"))
    plain.write_bytes(serialize_annexb(nals))
    summaries = {enc: cmd_encrypt(plain, enc, meta, KEY, policy, nonce=nonce)}
    summaries[out] = cmd_decrypt(enc, meta, out, KEY)
    assert out.read_bytes() == plain.read_bytes()
    assert b"\x00\x00\x03\x00\x00" in bytes(split_annexb(enc.read_bytes())[1][o].ebsp)
    for path, summary in summaries.items():
        assert o in summary.selected_ordinals
        written = split_annexb(path.read_bytes())[1]
        sizes = [len(ebsp_to_rbsp(bytes(written[k].ebsp))) for k in summary.selected_ordinals]
        assert summary.selected_bytes == sum(sizes)
        assert summary.aes_blocks == sum(-(-n // 16) for n in sizes)


@st.composite
def encoder_like_streams(draw):
    """Annex B streams shaped as an encoder writes them: an SPS and a PPS,
    then pictures of one to four slices of one NAL type, a 4-byte start
    code before each picture and a 3-byte one between its slices. A slice
    RBSP is a ue(v) header, data dense in zero bytes and a stop byte; its
    payload may end in cabac_zero_words (00 00 03 each). Leading garbage
    without a 00 byte, trailing_zero_8bits and a cut through the last NAL
    are optional."""
    parts = [draw(st.binary(max_size=6).map(lambda b: b.replace(b"\x00", b"\x01")))]
    parts += [START_CODE_4, b"\x67\x42\xc0\x1e\x11", START_CODE_4, b"\x68\xce\x38\x80"]
    zero_dense = st.binary(max_size=48) | st.lists(
        st.sampled_from(b"\x00\x00\x00\x01\x02\x03\x80"), max_size=48
    ).map(bytes)
    for _ in range(draw(st.integers(1, 4))):
        # IDR, non-IDR, data partitions A-C, SEI and a type-20 extension.
        header_byte = draw(st.sampled_from([0x65, 0x41, 0x01, 0x22, 0x23, 0x24, 0x06, 0x74]))
        for i in range(draw(st.integers(1, 4))):
            w = BitWriter()
            w.write_ue(draw(st.integers(0, 300)))
            w.write_ue(draw(st.integers(0, 11)))
            rbsp = w.to_bytes() + draw(zero_dense) + b"\x80"
            # Most slices end without one: a ciphered slice that does is refused.
            cabac_zero_words = b"\x00\x00\x03" * draw(st.just(0) | st.integers(0, 3))
            parts += [START_CODE_3 if i else START_CODE_4, bytes((header_byte,))]
            parts += [rbsp_to_ebsp(rbsp), cabac_zero_words]
    data = b"".join(parts) + bytes(draw(st.integers(0, 3)))  # trailing_zero_8bits
    if draw(st.booleans()):
        data = data[: len(data) - draw(st.integers(1, 12))]
    return data


@settings(max_examples=250, deadline=None)
@given(
    encoder_like_streams(),
    st.sampled_from(list(EncryptionPolicy)),
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=8, max_size=8),
)
def test_encoder_like_streams_round_trip_or_are_refused(data, policy, key, nonce):
    # The correctness north star: a stream either comes back byte for byte,
    # or is refused with a typed error before any file is written.
    key = KeySource.from_raw_hex(key.hex())
    with tempfile.TemporaryDirectory() as tmp:
        plain, enc, meta, out = (Path(tmp) / n for n in ("p.264", "e.264", "m.seh", "o.264"))
        plain.write_bytes(data)
        try:
            cmd_encrypt(plain, enc, meta, key, policy, nonce=nonce)
        except SelencError:
            assert not enc.exists() and not meta.exists()
            return
        cmd_decrypt(enc, meta, out, key)
        assert out.read_bytes() == data


def test_export_list_names_the_package():
    # Every exported name resolves, once and in order, and import * binds
    # exactly them, so a name dropped from a module must leave the list too.
    import selenc

    names = selenc.__all__
    assert [n for n in names if not hasattr(selenc, n)] == []
    assert names == sorted(set(names))
    star: dict = {}
    exec("from selenc import *", star)
    assert set(star) - {"__builtins__"} == set(names)
