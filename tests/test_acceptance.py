"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from selenc import aes
from selenc import selective as selective_mod
from selenc.aes import (
    AesState,
    add_round_key,
    decrypt_block,
    encrypt_block,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    key_expansion,
    mix_columns,
    shift_rows,
    sub_bytes,
)
from selenc.bitstream import (
    BitReader,
    BitWriter,
    ebsp_to_rbsp,
    find_escape_violation,
    rbsp_to_ebsp,
    serialize_annexb,
    split_annexb,
)
from selenc.errors import WrongKey
from selenc.harness import EXPANSION_ANCHORS, KDF_VECTORS, KNOWN_ANSWERS, LONG_KDF_VECTORS
from selenc.pipeline import KeySource, cmd_decrypt, cmd_encrypt, derive_key, gen_test_stream
from selenc.selective import EncryptionPolicy, decrypt_stream, encrypt_stream, select


@contextmanager
def criterion(number, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert budget is None or elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_cipher_correctness():
    with criterion(1, "cipher correctness", budget=5.0):
        for key_hex, pt_hex, ct_hex in KNOWN_ANSWERS:
            ks = key_expansion(bytes.fromhex(key_hex))
            assert encrypt_block(bytes.fromhex(pt_hex), ks).hex() == ct_hex
            assert decrypt_block(bytes.fromhex(ct_hex), ks).hex() == pt_hex
        for key_hex, words in EXPANSION_ANCHORS.items():
            ks = key_expansion(bytes.fromhex(key_hex))
            for i, want in words.items():
                assert ks.words[i].hex() == want
        rng = random.Random(1001)
        for trial in range(10_000):
            if trial % 500 == 0:
                ks = key_expansion(rng.randbytes(16))
            block = rng.randbytes(16)
            assert decrypt_block(encrypt_block(block, ks), ks) == block


def test_criterion_2_round_transformation_algebra():
    with criterion(2, "round transformation algebra"):
        rng = random.Random(1002)
        failures = 0
        for _ in range(1_000):
            s = AesState.from_block(rng.randbytes(16))
            rk = rng.randbytes(16)
            if add_round_key(add_round_key(s, rk), rk) != s:
                failures += 1
            t = s
            for _ in range(4):
                t = shift_rows(t)
            if t != s or inv_shift_rows(shift_rows(s)) != s:
                failures += 1
            if inv_sub_bytes(sub_bytes(s)) != s:
                failures += 1
            if inv_mix_columns(mix_columns(s)) != s or mix_columns(inv_mix_columns(s)) != s:
                failures += 1
        assert failures == 0


def test_criterion_3_bitstream_fidelity():
    with criterion(3, "bitstream fidelity", budget=30.0):
        rng = random.Random(1003)
        for _ in range(1_000):
            data = gen_test_stream(
                None,
                gop=rng.randrange(1, 9),
                frames=rng.randrange(1, 11),
                payload_size=rng.randrange(8, 65),
                seed=rng.randrange(1 << 30),
            )
            nals = split_annexb(data)[1]
            assert serialize_annexb(nals) == data
            rbsp = rng.randbytes(rng.randrange(0, 80)) + b"\x00" * rng.randrange(0, 4)
            assert ebsp_to_rbsp(rbsp_to_ebsp(rbsp)) == rbsp
        for n in range(65536):
            w = BitWriter()
            w.write_ue(n)
            want_bits = 2 * ((n + 1).bit_length() - 1) + 1
            r = BitReader(w.to_bytes())
            assert r.read_ue() == n and r.position == want_bits


MATRIX = [(gop, frames) for gop in (1, 4, 12) for frames in (1, 60)]


def test_criterion_4_end_to_end_round_trip(tmp_path):
    with criterion(4, "end-to-end file round trip", budget=60.0):
        key = KeySource.from_raw_hex("000102030405060708090a0b0c0d0e0f")
        case = 0
        for gop, frames in MATRIX:
            for policy in EncryptionPolicy:
                plain = tmp_path / f"p{case}.264"
                enc = tmp_path / f"e{case}.264"
                meta = tmp_path / f"m{case}.seh"
                out = tmp_path / f"o{case}.264"
                gen_test_stream(plain, gop=gop, frames=frames, seed=case)
                cmd_encrypt(plain, enc, meta, key, policy, nonce=bytes((case,) * 8))
                cmd_decrypt(enc, meta, out, key)
                digest = hashlib.sha256(plain.read_bytes()).hexdigest()
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
                    f"gop={gop} frames={frames} policy={policy.name}"
                )
                case += 1


def test_criterion_5_syntactic_compliance():
    with criterion(5, "syntactic compliance"):
        ks = key_expansion(b"\x13" * 16)
        for gop, frames in MATRIX:
            for policy in EncryptionPolicy:
                data = gen_test_stream(None, gop=gop, frames=frames, seed=gop * 100 + frames)
                nals = split_annexb(data)[1]
                selection = select(nals, policy)
                enc_nals, _ = encrypt_stream(nals, ks, selection, b"\x21" * 8)
                for n in enc_nals:
                    assert find_escape_violation(n.ebsp) == -1
                rescan = split_annexb(serialize_annexb(enc_nals))[1]
                assert len(rescan) == len(nals)
                for a, b in zip(nals, rescan):
                    assert a.start_code_len == b.start_code_len
                    assert a.header == b.header


def test_criterion_6_selectivity_arithmetic(monkeypatch):
    with criterion(6, "selectivity arithmetic"):
        from selenc.harness import bench

        data = gen_test_stream(None, gop=12, frames=60, payload_size=256, seed=1006)
        nals = split_annexb(data)[1]
        ks = key_expansion(b"\x06" * 16)

        res = bench(nals, ks, EncryptionPolicy.IDR_ONLY)
        fraction = res.selective_encrypted_bytes / res.vcl_payload_bytes
        assert abs(fraction - 5 / 60) <= 0.02 * (5 / 60)

        # Count the blocks the cipher actually computes during the selective
        # pass. The cipher pass resolves the batched round loop and the
        # offer of a piece to its helper process through the aes module, so
        # only payload keystream blocks are counted, wherever they are
        # computed: a piece the helper replied to is counted at the offer,
        # one it declines or fails on at the loop.
        blocks = []
        real, real_cipher_off = aes._rounds, aes._cipher_off

        def cipher_off(ks, nonce, piece):
            receive = real_cipher_off(ks, nonce, piece)
            if receive is None:
                return None

            def counted():
                got = receive()
                if got is not None:
                    blocks.append(sum(-(-len(rbsp) // 16) for _, _, rbsp in piece))
                return got

            return counted

        monkeypatch.setattr(
            aes, "_rounds", lambda s, k: blocks.append(len(s[0])) or real(s, k)
        )
        monkeypatch.setattr(aes, "_cipher_off", cipher_off)
        selection = select(nals, EncryptionPolicy.IDR_ONLY)
        encrypt_stream(nals, ks, selection, b"\x22" * 8)
        monkeypatch.undo()
        sizes = {n.ordinal: len(ebsp_to_rbsp(n.ebsp)) for n in nals}

        selected = selection.selected_ordinals
        expected_blocks = sum(-(-sizes[o] // 16) for o in selected)
        assert sum(blocks) == expected_blocks
        assert res.aes_blocks_selective == expected_blocks

        # Naive slice work is exactly 12x the selective work on this stream;
        # whole-stream naive work may add at most one block per NAL.
        assert res.vcl_payload_bytes == 12 * res.selective_encrypted_bytes
        assert abs(res.naive_encrypted_bytes - 12 * res.selective_encrypted_bytes) <= 16 * len(nals)


def test_criterion_7_wrong_key_behavior(monkeypatch):
    with criterion(7, "wrong-key behavior"):
        rng = random.Random(1007)
        data = gen_test_stream(None, gop=3, frames=6, payload_size=64, seed=1007)
        nals = split_annexb(data)[1]
        right = key_expansion(rng.randbytes(16))
        selection = select(nals, EncryptionPolicy.IDR_ONLY)
        enc, header = encrypt_stream(nals, right, selection, rng.randbytes(8))

        # No payload is unescaped, cut, keyed, offered to the helper process
        # or ciphered before the key check fires. Under the right key, the
        # short stream and one of two key frames longer than a chunk reach
        # each of those calls.
        long_nals = split_annexb(
            gen_test_stream(None, gop=1, frames=2, payload_size=16 * aes._CHUNK_BLOCKS + 4000, seed=1007)
        )[1]
        long_enc, long_header = encrypt_stream(
            long_nals, right, select(long_nals, EncryptionPolicy.IDR_ONLY), rng.randbytes(8)
        )
        touched = []
        watched = [(selective_mod, name) for name in ("decrypt_nal", "ebsp_to_rbsp", "ctr_keystream", "_seam")]
        for module, name in watched + [(aes, "_cipher_off")]:
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: touched.append(name) or real(*a)
            )
        rejected = 0
        for i in range(100):
            wrong = key_expansion(rng.randbytes(16))
            with pytest.raises(WrongKey):
                decrypt_stream(enc, wrong, header)
            if i < 10:
                with pytest.raises(WrongKey):
                    decrypt_stream(long_enc, wrong, long_header)
            rejected += 1
        assert rejected == 100
        assert touched == [], "payloads were touched before the key check fired"
        assert decrypt_stream(enc, right, header) == nals
        assert decrypt_stream(long_enc, right, long_header) == long_nals
        assert set(touched) == {name for _, name in watched} | {"_cipher_off"}


def test_criterion_8_kdf_determinism():
    with criterion(8, "KDF regression vectors"):
        for phrase, iters, expected in KDF_VECTORS + LONG_KDF_VECTORS:
            got = derive_key(KeySource.from_passphrase(phrase, iterations=iters))
            assert got.hex() == expected, f"KDF({phrase!r}, {iters})"
