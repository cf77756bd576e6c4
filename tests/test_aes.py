import functools
import os
import random
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selenc import aes
from selenc.aes import (
    AesState,
    add_round_key,
    ctr_keystream,
    decrypt_block,
    encrypt_block,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    key_expansion,
    mix_columns,
    shift_rows,
    sub_bytes,
    xor_bytes,
)
from selenc.errors import BadKeyLength, CounterOverflow
from selenc.harness import (
    EXPANSION_ANCHORS,
    KNOWN_ANSWERS,
    per_block_keystream,
    unrolled_encrypt,
)


def gf_mul_oracle(a: int, b: int) -> int:
    """Independent GF(2^8) multiply: shift-and-reduce per set bit of b."""
    total = 0
    for bit in range(8):
        if (b >> bit) & 1:
            term = a
            for _ in range(bit):
                term <<= 1
                if term & 0x100:
                    term ^= 0x11B
            total ^= term
    return total


def mix_column_oracle(col, coeffs):
    return tuple(
        gf_mul_oracle(col[0], coeffs[(0 - r) % 4])
        ^ gf_mul_oracle(col[1], coeffs[(1 - r) % 4])
        ^ gf_mul_oracle(col[2], coeffs[(2 - r) % 4])
        ^ gf_mul_oracle(col[3], coeffs[(3 - r) % 4])
        for r in range(4)
    )


MIX_COEFFS = (2, 3, 1, 1)  # c(x) = {03}x^3 + {01}x^2 + {01}x + {02}
INV_MIX_COEFFS = (14, 11, 13, 9)

rand_block = st.binary(min_size=16, max_size=16)
rand_key = st.binary(min_size=16, max_size=16)


class TestSbox:
    @pytest.mark.parametrize(
        "index,value", [(0x00, 0x63), (0x01, 0x7C), (0x53, 0xED), (0x10, 0xCA), (0xFF, 0x16)]
    )
    def test_reference_entries(self, index, value):
        assert aes.SBOX[index] == value

    def test_bijection_and_inverse(self):
        assert sorted(aes.SBOX) == list(range(256))
        for x in range(256):
            assert aes.INV_SBOX[aes.SBOX[x]] == x
            assert aes.SBOX[aes.INV_SBOX[x]] == x

    def test_matches_field_construction(self):
        # Rebuild each entry from first principles: brute-force inverse in
        # the field, then the bit-matrix affine map.
        for x in range(256):
            inv = 0
            if x:
                inv = next(y for y in range(1, 256) if gf_mul_oracle(x, y) == 1)
            acc = 0x63
            for shift in range(5):
                rot = ((inv << shift) | (inv >> (8 - shift))) & 0xFF
                acc ^= rot
            assert aes.SBOX[x] == acc, f"S-box mismatch at {x:#04x}"


class TestState:
    def test_column_major_mapping(self):
        block = bytes(range(16))
        s = AesState.from_block(block)
        assert s.cells[0][0] == 0 and s.cells[1][0] == 1
        assert s.cells[0][1] == 4 and s.cells[3][3] == 15

    @given(rand_block)
    def test_block_round_trip(self, block):
        assert AesState.from_block(block).to_block() == block

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            AesState.from_block(b"\x00" * 15)


class TestRoundTransformations:
    def test_sub_bytes_zero_state(self):
        s = sub_bytes(AesState.from_block(b"\x00" * 16))
        assert s.to_block() == b"\x63" * 16

    def test_sub_bytes_53(self):
        s = sub_bytes(AesState.from_block(b"\x53" * 16))
        assert s.to_block() == b"\xed" * 16

    @given(rand_block)
    def test_sub_bytes_inverse(self, block):
        s = AesState.from_block(block)
        assert inv_sub_bytes(sub_bytes(s)) == s
        assert sub_bytes(inv_sub_bytes(s)) == s

    def test_shift_rows_rotates_left(self):
        # Column-major block laid out so row r reads r0 r1 r2 r3.
        block = bytes(4 * c + r for c in range(4) for r in range(4))
        s = shift_rows(AesState.from_block(block))
        assert s.cells[0] == (0, 4, 8, 12)
        assert s.cells[1] == (5, 9, 13, 1)
        assert s.cells[2] == (10, 14, 2, 6)
        assert s.cells[3] == (15, 3, 7, 11)

    def test_shift_rows_constant_rows_unchanged(self):
        block = bytes(b for _ in range(4) for b in (1, 2, 3, 4))
        s = AesState.from_block(block)
        assert shift_rows(s) == s

    @given(rand_block)
    def test_shift_rows_order_four(self, block):
        s = AesState.from_block(block)
        t = s
        for _ in range(4):
            t = shift_rows(t)
        assert t == s
        assert inv_shift_rows(shift_rows(s)) == s

    def test_mix_columns_zero(self):
        s = AesState.from_block(b"\x00" * 16)
        assert mix_columns(s) == s

    def test_mix_columns_reference_column(self):
        block = bytes([0xDB, 0x13, 0x53, 0x45]) + b"\x00" * 12
        out = mix_columns(AesState.from_block(block)).to_block()
        assert out[:4] == bytes([0x8E, 0x4D, 0xA1, 0xBC])
        assert mix_column_oracle((0xDB, 0x13, 0x53, 0x45), MIX_COEFFS) == (0x8E, 0x4D, 0xA1, 0xBC)

    @given(rand_block)
    def test_mix_columns_against_oracle(self, block):
        s = AesState.from_block(block)
        mixed = mix_columns(s)
        inv_mixed = inv_mix_columns(s)
        for c in range(4):
            col = tuple(s.cells[r][c] for r in range(4))
            assert tuple(mixed.cells[r][c] for r in range(4)) == mix_column_oracle(col, MIX_COEFFS)
            assert tuple(inv_mixed.cells[r][c] for r in range(4)) == mix_column_oracle(
                col, INV_MIX_COEFFS
            )

    def test_mix_columns_inverse_exhaustive_single_byte_columns(self):
        for b in range(256):
            for pos in range(4):
                col = [0, 0, 0, 0]
                col[pos] = b
                block = bytes(col) + b"\x00" * 12
                s = AesState.from_block(block)
                assert inv_mix_columns(mix_columns(s)) == s

    @given(rand_block)
    def test_mix_columns_inverse_random(self, block):
        s = AesState.from_block(block)
        assert inv_mix_columns(mix_columns(s)) == s
        assert mix_columns(inv_mix_columns(s)) == s

    @given(rand_block, rand_key)
    def test_add_round_key_involution(self, block, rk):
        s = AesState.from_block(block)
        assert add_round_key(add_round_key(s, rk), rk) == s

    def test_add_round_key_identity_and_complement(self):
        s = AesState.from_block(bytes(range(16)))
        assert add_round_key(s, b"\x00" * 16) == s
        t = add_round_key(AesState.from_block(b"\xff" * 16), b"\xff" * 16)
        assert t.to_block() == b"\x00" * 16

    def test_add_round_key_refuses_a_short_key(self):
        with pytest.raises(ValueError, match="round key must be 16 bytes"):
            add_round_key(AesState.from_block(bytes(16)), bytes(15))


class TestKeyExpansion:
    def test_first_words_are_the_key(self):
        key = bytes(range(16))
        ks = key_expansion(key)
        assert b"".join(ks.words[:4]) == key

    @pytest.mark.parametrize("key_hex", EXPANSION_ANCHORS)
    def test_expansion_anchors(self, key_hex):
        ks = key_expansion(bytes.fromhex(key_hex))
        for i, want in EXPANSION_ANCHORS[key_hex].items():
            assert ks.words[i].hex() == want

    @given(rand_key)
    def test_recurrences(self, key):
        ks = key_expansion(key)
        for i in range(4, 44):
            if i % 4 != 0:
                want = bytes(a ^ b for a, b in zip(ks.words[i - 1], ks.words[i - 4]))
                assert ks.words[i] == want

    @pytest.mark.parametrize("n", [0, 12, 15, 17, 24, 32])
    def test_bad_key_length(self, n):
        with pytest.raises(BadKeyLength):
            key_expansion(b"\x00" * n)

    def test_round_keys_are_word_groups(self):
        ks = key_expansion(bytes(range(16)))
        assert len(ks.round_keys) == 11
        for r in range(11):
            assert ks.round_keys[r] == b"".join(ks.words[4 * r : 4 * r + 4])


def one_byte_state(i: int, x: int) -> AesState:
    """The state whose block byte i holds x and every other byte is zero."""
    block = bytearray(16)
    block[i] = x
    return AesState.from_block(bytes(block))


class TestLookupTables:
    # Entry [i][x] of either table set is a round's output for a state that
    # holds x at block byte i alone: SubBytes acts on that byte only (the
    # zero bytes would become 63 otherwise), then the linear layers.
    @staticmethod
    def substituted(i: int, x: int) -> AesState:
        return one_byte_state(i, sub_bytes(one_byte_state(i, x)).block[i])

    def test_every_round_table_entry(self):
        for i in range(16):
            for x in range(256):
                want = mix_columns(shift_rows(self.substituted(i, x))).block
                assert aes._ROUND_TABLES[i][x] == int.from_bytes(want, "big"), (i, x)

    def test_every_final_table_entry(self):
        for i in range(16):
            for x in range(256):
                want = shift_rows(self.substituted(i, x)).block
                assert aes._FINAL_TABLES[i][x] == int.from_bytes(want, "big"), (i, x)


class TestBlockCipher:
    @pytest.mark.parametrize("key_hex,pt_hex,ct_hex", KNOWN_ANSWERS)
    def test_known_answers(self, key_hex, pt_hex, ct_hex):
        ks = key_expansion(bytes.fromhex(key_hex))
        assert encrypt_block(bytes.fromhex(pt_hex), ks).hex() == ct_hex
        assert decrypt_block(bytes.fromhex(ct_hex), ks).hex() == pt_hex

    @given(rand_key, rand_block)
    def test_round_trip(self, key, block):
        ks = key_expansion(key)
        assert decrypt_block(encrypt_block(block, ks), ks) == block

    def test_zero_round_trip(self):
        ks = key_expansion(b"\x00" * 16)
        assert decrypt_block(encrypt_block(b"\x00" * 16, ks), ks) == b"\x00" * 16

    def test_distinct_plaintexts_distinct_ciphertexts(self):
        ks = key_expansion(b"\x11" * 16)
        rng = random.Random(5)
        seen = {}
        for _ in range(300):
            b = rng.randbytes(16)
            ct = encrypt_block(b, ks)
            assert seen.setdefault(ct, b) == b
        assert len(seen) >= 299  # essentially all distinct inputs

    def test_rejects_wrong_block_size(self):
        ks = key_expansion(b"\x00" * 16)
        with pytest.raises(ValueError):
            encrypt_block(b"\x00" * 15, ks)
        with pytest.raises(ValueError):
            decrypt_block(b"\x00" * 17, ks)

    def test_matches_unrolled_rounds(self):
        rng = random.Random(9)
        for _ in range(300):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            ks = key_expansion(key)
            assert encrypt_block(block, ks) == unrolled_encrypt(block, ks)

    @given(rand_key, rand_block)
    def test_matches_unrolled_rounds_property(self, key, block):
        ks = key_expansion(key)
        assert encrypt_block(block, ks) == unrolled_encrypt(block, ks)

    def test_matches_cryptography_ecb(self):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        rng = random.Random(13)
        for _ in range(200):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            cipher = ciphers.Cipher(ciphers.algorithms.AES(key), ciphers.modes.ECB())
            ks = key_expansion(key)
            enc = cipher.encryptor()
            ct = enc.update(block) + enc.finalize()
            assert encrypt_block(block, ks) == ct
            dec = cipher.decryptor()
            assert decrypt_block(ct, ks) == dec.update(ct) + dec.finalize()


class TestCounterMode:
    def test_counter_block_layout(self):
        # Block 7 of NAL 0x0203 is E(nonce || ordinal || 7), both integers
        # big-endian 32-bit, in the reference and in the engine.
        ks = key_expansion(bytes(range(16)))
        counter = b"\x01" * 8 + b"\x00\x00\x02\x03" + b"\x00\x00\x00\x07"
        want = encrypt_block(counter, ks)
        assert per_block_keystream(ks, b"\x01" * 8, 0x0203, 8 * 16)[7 * 16 :] == want
        assert ctr_keystream(ks, b"\x01" * 8, [(0x0203, 8 * 16)])[7 * 16 :] == want

    def test_empty_keystream(self):
        ks = key_expansion(b"\x00" * 16)
        assert ctr_keystream(ks, b"\x00" * 8, [(0, 0)]) == b""
        assert ctr_keystream(ks, b"\x00" * 8, []) == b""

    def test_first_block_is_encrypted_counter(self):
        ks = key_expansion(bytes(range(16)))
        nonce = b"\xab" * 8
        first = ctr_keystream(ks, nonce, [(3, 16)])
        assert first == encrypt_block(nonce + b"\x00\x00\x00\x03" + bytes(4), ks)

    def test_prefix_property(self):
        ks = key_expansion(bytes(range(16)))
        short = ctr_keystream(ks, b"\x00" * 8, [(9, 16)])
        long = ctr_keystream(ks, b"\x00" * 8, [(9, 40)])
        assert long[:16] == short
        assert len(long) == 40

    def test_partial_block_lengths(self):
        ks = key_expansion(bytes(range(16)))
        for n in (1, 15, 17, 33):
            assert len(ctr_keystream(ks, b"\x00" * 8, [(0, n)])) == n

    def test_distinct_ordinals_distinct_streams(self):
        ks = key_expansion(bytes(range(16)))
        a = ctr_keystream(ks, b"\x00" * 8, [(0, 32)])
        b = ctr_keystream(ks, b"\x00" * 8, [(1, 32)])
        assert a != b

    def test_counter_overflow(self):
        ks = key_expansion(b"\x00" * 16)
        with pytest.raises(CounterOverflow):
            ctr_keystream(ks, b"\x00" * 8, [(0, (1 << 32) * 16 + 1)])
        with pytest.raises(ValueError):
            ctr_keystream(ks, b"\x00" * 8, [(0, -1)])

    @pytest.mark.parametrize(
        "nonce,spans,refusal",
        [
            (b"\x01" * 7, [(0, 16)], "nonce must be 8 bytes"),
            (b"\x01" * 7, [(0, 0)], "nonce must be 8 bytes"),
            (b"\x01" * 9, [(5, 0)], "nonce must be 8 bytes"),
            (b"\x01" * 8, [(-1, 16)], "nal_ordinal must fit in 32 bits"),
            (b"\x01" * 8, [(-1, 0)], "nal_ordinal must fit in 32 bits"),
            (b"\x01" * 8, [(2**32, 16)], "nal_ordinal must fit in 32 bits"),
            (b"\x01" * 8, [(2**32, 0)], "nal_ordinal must fit in 32 bits"),
            # The nonce is judged before the ordinal.
            (b"\x01" * 7, [(2**32, 0)], "nonce must be 8 bytes"),
            # Each span is judged in turn, after the spans before it.
            (b"\x01" * 8, [(0, 40), (2**32, 0)], "nal_ordinal must fit in 32 bits"),
            # Every counter block holds the nonce, so even no span needs one.
            (b"\x01" * 7, [], "nonce must be 8 bytes"),
        ],
    )
    def test_counter_refusals(self, monkeypatch, nonce, spans, refusal):
        # Refused before any round table is read, and so before any
        # keystream block is computed.
        calls, ks = [], key_expansion(b"\x00" * 16)
        real = aes._rounds
        monkeypatch.setattr(aes, "_rounds", lambda s, k: calls.append(len(s[0])) or real(s, k))

        class WatchedTables(tuple):
            def __getitem__(self, i):
                calls.append(i)
                return super().__getitem__(i)

        monkeypatch.setattr(aes, "_ROUND_TABLES", WatchedTables(aes._ROUND_TABLES))
        with pytest.raises(ValueError) as got:
            ctr_keystream(ks, nonce, spans)
        assert type(got.value) is ValueError and str(got.value) == refusal
        assert calls == []

    @pytest.mark.parametrize(
        "nonce,spans,refusal",
        [
            (b"\x01" * 7, [(2**32, 16), (2**32, 0)], "nonce must be 8 bytes"),
            (b"\x01" * 7, [(2**32, -1)], "nonce must be 8 bytes"),
            (b"\x01" * 8, [(-1, -1)], "nbytes must be nonnegative"),
            (b"\x01" * 8, [(0, -1), (2**32, 16)], "nbytes must be nonnegative"),
            (b"\x01" * 8, [(2**32, 16), (0, -1)], "nal_ordinal must fit in 32 bits"),
            (b"\x01" * 7, [(0, 16), (1, -1)], "nonce must be 8 bytes"),
            (b"\x01" * 8, [(2**32, 16), (2**32, 0)], "a repeated NAL ordinal would reuse its keystream"),
            (b"\x01" * 8, [(2**32, -1)], "nbytes must be nonnegative"),
        ],
    )
    def test_refusal_order(self, nonce, spans, refusal):
        # The nonce is judged first, then the repeated-ordinal check, then
        # per span: nbytes, counter room, the ordinal.
        with pytest.raises(ValueError) as got:
            ctr_keystream(key_expansion(b"\x00" * 16), nonce, spans)
        assert str(got.value) == refusal

    def test_a_first_block_is_judged_with_the_counter_room(self):
        # A span may start at any block whose run fits the 32-bit counter.
        ks = key_expansion(b"\x00" * 16)
        with pytest.raises(ValueError) as got:
            ctr_keystream(ks, b"\x01" * 8, [(0, 16, -1)])
        assert type(got.value) is ValueError and str(got.value) == "first block must be nonnegative"
        assert ctr_keystream(ks, b"\x01" * 8, [(0, 16, 2**32 - 1)]) == encrypt_block(
            b"\x01" * 8 + bytes(4) + b"\xff" * 4, ks
        )
        with pytest.raises(CounterOverflow):
            ctr_keystream(ks, b"\x01" * 8, [(0, 17, 2**32 - 1)])
        with pytest.raises(CounterOverflow):
            ctr_keystream(ks, b"\x01" * 8, [(0, 0, 2**32 + 1)])

    def test_counter_overflow_comes_between_the_nonce_and_ordinal_checks(self):
        ks, nbytes = key_expansion(b"\x00" * 16), (1 << 32) * 16 + 1
        with pytest.raises(ValueError, match="^nonce must be 8 bytes$"):
            ctr_keystream(ks, b"\x01" * 7, [(2**32, nbytes)])
        with pytest.raises(CounterOverflow):
            ctr_keystream(ks, b"\x01" * 8, [(2**32, nbytes)])

    @pytest.mark.parametrize(
        "spans", [[(3, 16), (3, 16)], [(3, 16), (4, 8), (3, 0)], [(0, 0), (0, 0)]]
    )
    def test_repeated_ordinal_would_reuse_keystream(self, spans):
        # Two NALs under one (nonce, ordinal) would share a keystream, so
        # XORing their ciphertexts would cancel it.
        ks = key_expansion(b"\x00" * 16)
        with pytest.raises(ValueError, match="reuse"):
            ctr_keystream(ks, b"\x00" * 8, spans)

    @given(st.binary(max_size=100))
    def test_xor_symmetry(self, data):
        ks = key_expansion(b"\x42" * 16)
        mask = ctr_keystream(ks, b"\x10" * 8, [(2, len(data))])
        assert xor_bytes(xor_bytes(data, mask), mask) == data

    def test_xor_bytes_length_check(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")


def cryptography_keystream(key: bytes, nonce: bytes, ordinal: int, nbytes: int) -> bytes:
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    counter = nonce + ordinal.to_bytes(4, "big") + bytes(4)
    enc = ciphers.Cipher(ciphers.algorithms.AES(key), ciphers.modes.CTR(counter)).encryptor()
    return enc.update(bytes(nbytes)) + enc.finalize()


# Two whole chunks of the batched engine plus a partial block.
MULTI_CHUNK_BYTES = 2 * aes._CHUNK_BLOCKS * 16 + 9


class TestBatchedEngine:
    def test_keystream_matches_encrypt_block_at_engine_sizes(self):
        # Whole-block spans of 0 to one past a chunk, each under a fresh key,
        # against one encrypt_block call per counter block.
        rng = random.Random(21)
        for n in (0, 1, 2, 3, 16, 33, 64, 511, 512, aes._CHUNK_BLOCKS, aes._CHUNK_BLOCKS + 1):
            ks = key_expansion(rng.randbytes(16))
            nonce, ordinal = rng.randbytes(8), rng.randrange(1 << 32)
            want = per_block_keystream(ks, nonce, ordinal, 16 * n)
            assert ctr_keystream(ks, nonce, [(ordinal, 16 * n)]) == want, n

    # 32777 bytes is 2048 whole blocks and a partial one.
    @pytest.mark.parametrize("nbytes", [0, 1, 15, 16, 17, 100, 4096, 32777, MULTI_CHUNK_BYTES])
    @pytest.mark.parametrize("ordinal", [0, 2**32 - 1])
    def test_keystream_matches_per_block_calls(self, nbytes, ordinal):
        rng = random.Random(nbytes ^ ordinal)
        ks = key_expansion(rng.randbytes(16))
        nonce = rng.randbytes(8)
        assert ctr_keystream(ks, nonce, [(ordinal, nbytes)]) == per_block_keystream(
            ks, nonce, ordinal, nbytes
        )

    def test_keystream_matches_cryptography_every_length(self):
        rng = random.Random(4096)
        key, nonce = rng.randbytes(16), rng.randbytes(8)
        ks = key_expansion(key)
        want = cryptography_keystream(key, nonce, 2**32 - 1, 4096)
        for nbytes in range(4097):
            assert ctr_keystream(ks, nonce, [(2**32 - 1, nbytes)]) == want[:nbytes], nbytes

    @pytest.mark.parametrize("ordinal", [0, 2**32 - 1])
    def test_keystream_matches_cryptography_across_chunks(self, ordinal):
        rng = random.Random(ordinal + 1)
        key, nonce = rng.randbytes(16), rng.randbytes(8)
        got = ctr_keystream(key_expansion(key), nonce, [(ordinal, MULTI_CHUNK_BYTES)])
        assert got == cryptography_keystream(key, nonce, ordinal, MULTI_CHUNK_BYTES)


class TestPerKeyTables:
    """key_expansion builds the engine's per-key tables once; ctr_keystream
    and _rounds only read them, so no key's tables reach another key's
    keystream, and the tables stay out of equality and repr."""

    def test_interleaved_keys_match_per_block_calls(self):
        rng = random.Random(33)
        first, second = key_expansion(rng.randbytes(16)), key_expansion(rng.randbytes(16))
        nonce = rng.randbytes(8)
        spans = [(0, 40), (7, 16 * aes._CHUNK_BLOCKS + 9), (2**32 - 1, 17)]
        for ks in (first, second, first, second, second, first):
            want = b"".join(per_block_keystream(ks, nonce, o, n) for o, n in spans)
            assert ctr_keystream(ks, nonce, spans) == want

    def test_equality_and_repr_ignore_the_tables(self):
        key = bytes(range(16))
        ks, again = key_expansion(key), key_expansion(key)
        assert ks == again and hash(ks) == hash(again)
        assert ks.slab_tables is not again.slab_tables and ks.slab_tables == again.slab_tables
        assert ks != key_expansion(bytes(16))
        assert repr(ks) == (
            f"KeySchedule(words={ks.words!r}, round_keys={ks.round_keys!r}, "
            f"round_key_ints={ks.round_key_ints!r})"
        )

    def test_tables_follow_the_round_keys(self):
        # Rounds 4-9 SubBytes, then the final round composed with the last
        # round key; each slab position reads its ShiftRows source byte.
        ks = key_expansion(bytes(range(16, 32)))
        rk = ks.round_keys
        assert len(ks.slab_tables) == 7 and all(len(t) == 16 for t in ks.slab_tables)
        for r, tables in enumerate(ks.slab_tables[:-1], 3):
            assert tables == tuple(aes._KEYED_SBOX[rk[r][j]] for j in aes._GATHER)
        for table, j, i in zip(ks.slab_tables[-1], aes._GATHER, aes._SLAB_BYTE):
            assert table == bytes(aes.SBOX[x ^ rk[9][j]] ^ rk[10][i] for x in range(256))
        for b, table in enumerate(ks.column_x):
            factor = aes._MIX_ROW[(3 - b) % 4]
            assert table == bytes(factor[aes.SBOX[x ^ rk[0][15]]] for x in range(256))


# Span lists for one keystream pass: distinct ordinals, sizes with partial
# blocks, from empty to past one engine chunk.
SPAN_ORDINALS = (0, 1, 2, 7, 1000, 2**32 - 1)
PAST_ONE_CHUNK = 16 * aes._CHUNK_BLOCKS + 40
SPAN_LISTS = st.lists(
    st.tuples(
        st.sampled_from(SPAN_ORDINALS),
        st.integers(0, 80) | st.integers(0, PAST_ONE_CHUNK),
    ),
    max_size=6,
    unique_by=lambda span: span[0],
)
PASS_KEY, PASS_NONCE = bytes(range(16, 32)), b"\x5a" * 8
PASS_KS = key_expansion(PASS_KEY)


@functools.lru_cache(maxsize=None)
def longest_per_block_keystream(ordinal: int) -> bytes:
    # per_block_keystream(..., n) is this one's first n bytes by construction,
    # so each ordinal's encrypt_block calls are made once for every example.
    return per_block_keystream(PASS_KS, PASS_NONCE, ordinal, PAST_ONE_CHUNK)


class TestOnePassKeystream:
    @settings(max_examples=60, deadline=None)
    @given(SPAN_LISTS)
    def test_matches_per_span_keystreams(self, spans):
        want = b"".join(longest_per_block_keystream(o)[:n] for o, n in spans)
        assert ctr_keystream(PASS_KS, PASS_NONCE, spans) == want

    def test_matches_cryptography_across_a_chunk_boundary(self):
        # The first span ends in a partial block one block short of a chunk,
        # so the second span's counters straddle two engine calls.
        spans = [(5, 16 * (aes._CHUNK_BLOCKS - 2) + 3), (6, 100), (2**32 - 1, 33), (0, 0)]
        want = b"".join(cryptography_keystream(PASS_KEY, PASS_NONCE, o, n) for o, n in spans)
        assert ctr_keystream(PASS_KS, PASS_NONCE, spans) == want

    def test_one_engine_call_per_chunk(self, monkeypatch):
        # The spans' blocks run in block order, a whole chunk per call and
        # then the rest, all in this process.
        calls = []
        real = aes._rounds
        monkeypatch.setattr(aes, "_rounds", lambda s, k: calls.append(len(s[0])) or real(s, k))
        spans = [(o, 16 * aes._CHUNK_BLOCKS // 3 + 1) for o in range(7)]
        want = b"".join(longest_per_block_keystream(o)[:n] for o, n in spans)
        assert ctr_keystream(PASS_KS, PASS_NONCE, spans) == want
        blocks = 7 * (aes._CHUNK_BLOCKS // 3 + 1)
        assert calls == [aes._CHUNK_BLOCKS] * (blocks // aes._CHUNK_BLOCKS) + [
            blocks % aes._CHUNK_BLOCKS
        ]

    @settings(max_examples=60, deadline=None)
    @given(SPAN_LISTS, st.lists(st.integers(0, 300) | st.sampled_from([255, 256, 2047, 2048]), min_size=6, max_size=6))
    def test_spans_from_a_first_block_are_cuts_of_the_whole(self, spans, firsts):
        # Span (ordinal, nbytes, first) is bytes 16 * first on of the
        # keystream of (ordinal, 16 * first + nbytes).
        spans = [(o, n, f) for (o, n), f in zip(spans, firsts) if 16 * f + n <= PAST_ONE_CHUNK]
        want = b"".join(longest_per_block_keystream(o)[16 * f : 16 * f + n] for o, n, f in spans)
        assert ctr_keystream(PASS_KS, PASS_NONCE, spans) == want


# Block indices at the carries of block-index bytes 15, 14 and 13.
CARRY_INDICES = (0, 255, 256, 257, 65535, 65536)


class TestCounterBlocks:
    """ctr_keystream builds no counter block, so its blocks are checked
    against encrypt_block of the counter they stand for, at the
    carries of block-index bytes 15, 14 and 13 and at each span's last
    (partial) block."""

    def check(self, spans):
        got, pos = ctr_keystream(PASS_KS, PASS_NONCE, spans), 0
        assert len(got) == sum(n for _, n in spans)
        for ordinal, nbytes in spans:
            nblocks = -(-nbytes // 16)
            for i in {i for i in (*CARRY_INDICES, nblocks - 1) if 0 <= i < nblocks}:
                block = got[pos + 16 * i : pos + min(16 * i + 16, nbytes)]
                counter = PASS_NONCE + ordinal.to_bytes(4, "big") + i.to_bytes(4, "big")
                want = encrypt_block(counter, PASS_KS)
                assert block == want[: len(block)], (ordinal, i)
            pos += nbytes

    @pytest.mark.parametrize("blocks", [1, 255, 256, 257, 65536, 65537])
    @pytest.mark.parametrize("ordinal", [0, 2**32 - 1])
    def test_one_span(self, blocks, ordinal):
        self.check([(ordinal, 16 * blocks - 3)])

    def test_several_spans(self):
        self.check([(0, 16 * 255 + 1), (2**32 - 1, 16 * 257), (7, 0), (8, 16 * 65537 - 5), (9, 16)])

    @pytest.mark.parametrize("first", [1, 200, 255, 256, 65535, 65536, 2**32 - 3])
    def test_a_span_from_a_first_block(self, first):
        # Block i of span (ordinal, nbytes, first) is E(nonce||ordinal||first + i),
        # across the carries of index bytes 15, 14 and 13.
        nbytes = min(16 * 300 + 5, 16 * (2**32 - first))
        got = ctr_keystream(PASS_KS, PASS_NONCE, [(9, 40), (7, nbytes, first)])[40:]
        assert len(got) == nbytes
        for i in range(-(-nbytes // 16)):
            counter = PASS_NONCE + (7).to_bytes(4, "big") + (first + i).to_bytes(4, "big")
            block = got[16 * i : 16 * i + 16]
            assert block == encrypt_block(counter, PASS_KS)[: len(block)], i

    def test_matches_cryptography_past_a_byte_13_carry(self):
        nbytes = 16 * 65537
        got = ctr_keystream(PASS_KS, PASS_NONCE, [(2**32 - 1, nbytes)])
        assert got == cryptography_keystream(PASS_KEY, PASS_NONCE, 2**32 - 1, nbytes)


HELPER_MARKER = b"selenc keystream helper"


def helper_pids() -> "set[int]":
    """Processes whose command line holds the helper's marker."""
    pids = set()
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and HELPER_MARKER in (entry / "cmdline").read_bytes():
                pids.add(int(entry.name))
        except OSError:  # the process ended while the table was read
            pass
    return pids


def forget_helper():
    helper = aes._helpers.pop(os.getpid(), None)
    if helper is not None:
        helper.stop()


def key_frames(frames: int, payload_size: int, seed: int) -> list:
    """The NALs of an all-IDR stream: SPS, PPS and one IDR slice per frame."""
    from selenc.bitstream import split_annexb
    from selenc.pipeline import gen_test_stream

    return split_annexb(gen_test_stream(None, gop=1, frames=frames, payload_size=payload_size, seed=seed))[1]


def cipher_pass(nals, ks, nonce=PASS_NONCE):
    """encrypt_stream's output NALs under IDR_ONLY."""
    from selenc.selective import EncryptionPolicy, encrypt_stream, select

    return encrypt_stream(nals, ks, select(nals, EncryptionPolicy.IDR_ONLY), nonce)[0]


def one_process_payloads(nals, ks, nonce=PASS_NONCE, keystream=per_block_keystream) -> list:
    """Each IDR's escaped ciphertext, made whole here from one encrypt_block
    call per keystream block (or from ``keystream``), and every other
    payload as it is."""
    from selenc.bitstream import ebsp_to_rbsp, rbsp_to_ebsp

    out = []
    for n in nals:
        if n.header is not None and n.header.nal_unit_type == 5:
            rbsp = ebsp_to_rbsp(n.ebsp)
            out.append(rbsp_to_ebsp(xor_bytes(rbsp, keystream(ks, nonce, n.ordinal, len(rbsp)))))
        else:
            out.append(bytes(n.ebsp))
    return out


class TestKeystreamHelper:
    """The cipher pass offers every other piece of a pass of two or more
    to a helper process, which runs the piece's keystream, XOR and
    re-escape. Each test starts from a fresh helper and waits, with a
    timeout, until it is ready; what a test kills is forgotten after it."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        forget_helper()
        assert aes._helper_ready(timeout=60)
        yield aes._helper()
        forget_helper()

    @staticmethod
    def watch(monkeypatch) -> "list[int]":
        """Keystream blocks of each piece the helper ciphered."""
        ciphered, real = [], aes._cipher_off

        def cipher_off(ks, nonce, piece):
            receive = real(ks, nonce, piece)
            if receive is None:
                return None

            def counted():
                parts = receive()
                if parts is not None:
                    ciphered.append(sum(-(-len(rbsp) // 16) for _, _, rbsp in piece))
                return parts

            return counted

        monkeypatch.setattr(aes, "_cipher_off", cipher_off)
        return ciphered

    def test_three_chunks_match_cryptography_and_per_block_calls(self, monkeypatch):
        # 12 slices of 512 blocks are three pieces: the helper ciphers the
        # first while this process ciphers the second, and the third is
        # ciphered here.
        ciphered = self.watch(monkeypatch)
        nals = key_frames(12, 8192, 3)
        got = [n.ebsp for n in cipher_pass(nals, PASS_KS)]
        assert ciphered == [aes._CHUNK_BLOCKS]
        assert got == one_process_payloads(nals, PASS_KS)

        def cryptography(ks, nonce, o, n):
            return cryptography_keystream(PASS_KEY, nonce, o, n)

        assert got == one_process_payloads(nals, PASS_KS, keystream=cryptography)

    def test_matches_per_block_calls_and_cryptography_past_a_byte_13_carry(self, monkeypatch):
        # One slice of 65,537 blocks is cut into 33 pieces; the helper
        # ciphers every other one of the first 32, one of them from a
        # first block at or next to the carry into index byte 13.
        ciphered = self.watch(monkeypatch)
        nals = key_frames(1, 16 * 65537, 4)
        got = [n.ebsp for n in cipher_pass(nals, PASS_KS)]
        assert len(ciphered) == 16 and all(c <= aes._CHUNK_BLOCKS for c in ciphered)
        assert got == one_process_payloads(nals, PASS_KS)

        def cryptography(ks, nonce, o, n):
            return cryptography_keystream(PASS_KEY, nonce, o, n)

        assert got == one_process_payloads(nals, PASS_KS, keystream=cryptography)

    def test_a_piece_crosses_the_pipes_as_key_nonce_entries_and_rbsps(self, monkeypatch, fresh_helper):
        # A request is its 20-byte head, the 16-byte key, the nonce, 12
        # bytes per entry and the RBSPs; a reply is its length (u32), 4
        # bytes per entry and the escaped ciphertexts.
        from selenc.bitstream import ebsp_to_rbsp

        class Counted:
            def __init__(self, stream):
                self.stream, self.count = stream, 0

            def write(self, data):
                self.count += len(data)
                return self.stream.write(data)

            def read(self, size):
                data = self.stream.read(size)
                self.count += len(data)
                return data

            def __getattr__(self, name):
                return getattr(self.stream, name)

        sent = fresh_helper.proc.stdin = Counted(fresh_helper.proc.stdin)
        read = fresh_helper.proc.stdout = Counted(fresh_helper.proc.stdout)
        ciphered = self.watch(monkeypatch)
        nals = key_frames(8, 8192, 5)
        got = [n.ebsp for n in cipher_pass(nals, PASS_KS)]
        assert got == one_process_payloads(nals, PASS_KS)
        assert ciphered == [aes._CHUNK_BLOCKS]
        first = nals[2:6]  # the first piece: four slices of 512 blocks
        rbsp_bytes = sum(len(ebsp_to_rbsp(n.ebsp)) for n in first)
        escaped_bytes = sum(len(got[n.ordinal]) for n in first)
        assert (sent.count, read.count) == (20 + 16 + 8 + 12 * 4 + rbsp_bytes, 4 + 4 * 4 + escaped_bytes)

    def test_the_helper_follows_key_switches(self, monkeypatch, fresh_helper):
        # The child keeps a key's schedule while the key repeats: keys A, B,
        # then A again, each pass handing it one piece.
        ciphered = self.watch(monkeypatch)
        a, b = (key_expansion(bytes([k]) * 16) for k in (1, 2))
        nals = key_frames(8, 8192, 6)
        for ks in (a, b, a):
            assert [n.ebsp for n in cipher_pass(nals, ks)] == one_process_payloads(nals, ks)
        assert ciphered == [aes._CHUNK_BLOCKS] * 3 and not fresh_helper.failed

    def test_a_key_frame_of_over_two_chunks_runs_on_both_cores(self, monkeypatch):
        # The cipher pass cuts a one-slice key frame into pieces of about a
        # chunk, four here, and the helper ciphers the first and the third.
        from selenc.selective import EncryptionPolicy, encrypt_stream, select

        ciphered = self.watch(monkeypatch)
        nbytes = 16 * (3 * aes._CHUNK_BLOCKS + 1)
        nals = key_frames(1, nbytes, 0)
        selection = select(nals, EncryptionPolicy.IDR_ONLY)
        out, _ = encrypt_stream(nals, PASS_KS, selection, PASS_NONCE)
        assert selection.selected_ordinals == (2,)
        assert len(ciphered) == 2 and sum(ciphered) >= 2 * aes._CHUNK_BLOCKS - 4
        assert [n.ebsp for n in out] == one_process_payloads(nals, PASS_KS)
        assert out[2].rbsp_size == nbytes

    @pytest.mark.parametrize("after_send", [False, True])
    def test_a_killed_helper_leaves_the_process_serial(self, monkeypatch, fresh_helper, after_send):
        # Killed between two passes, or right after a piece was sent to it:
        # both passes return the same bytes, and nothing is offered again.
        nals = key_frames(12, 8192, 7)
        first = cipher_pass(nals, PASS_KS)
        if after_send:
            real = aes._cipher_off

            def cipher_off(ks, nonce, piece):
                receive = real(ks, nonce, piece)
                fresh_helper.proc.kill()
                fresh_helper.proc.wait()
                return receive

            monkeypatch.setattr(aes, "_cipher_off", cipher_off)
        else:
            fresh_helper.proc.kill()
            fresh_helper.proc.wait()
        assert cipher_pass(nals, PASS_KS) == first
        assert fresh_helper.failed and fresh_helper.proc.returncode is not None
        monkeypatch.undo()
        ciphered = self.watch(monkeypatch)
        assert cipher_pass(nals, PASS_KS) == first
        assert ciphered == [] and not aes._helper_ready(timeout=0)
        assert aes._helper() is fresh_helper

    def test_two_threads_share_one_helper(self, monkeypatch, fresh_helper):
        # One thread at a time holds the helper; the other ciphers its
        # pieces itself. Both passes must come out whole.
        ciphered = self.watch(monkeypatch)
        keys = [key_expansion(bytes([k]) * 16) for k in (1, 2)]
        nals = key_frames(12, 8192, 8)
        want = [one_process_payloads(nals, ks) for ks in keys]
        got = {0: [], 1: []}

        def work(i):
            for _ in range(6):
                got[i].append([n.ebsp for n in cipher_pass(nals, keys[i])])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {0: [want[0]] * 6, 1: [want[1]] * 6}
        assert ciphered and not fresh_helper.failed

    @pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
    def test_cli_leaves_no_helper(self, tmp_path, fresh_helper):
        # 10 IDR slices of 512 blocks: the cipher pass has three pieces, so
        # the command starts a helper, and it must reap it.
        from selenc.pipeline import gen_test_stream

        clip = tmp_path / "clip.264"
        gen_test_stream(clip, gop=1, frames=10, payload_size=8192, seed=5)
        before = helper_pids()
        assert fresh_helper.proc.pid in before
        env = dict(os.environ, PYTHONPATH=str(Path(aes.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "selenc.cli", "encrypt", "--in", str(clip),
             "--out", str(tmp_path / "enc.264"), "--meta", str(tmp_path / "enc.seh"),
             "--key", "00" * 16],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert helper_pids() - before == set()

    def test_a_pass_of_one_piece_starts_no_helper(self, tmp_path):
        # A 16 KB clip of 256-byte slices, the passphrase workload's size,
        # is one piece: a fresh process that encrypts it never offers one,
        # so it imports no subprocess and starts no helper.
        from selenc.pipeline import gen_test_stream

        clip = tmp_path / "clip.264"
        gen_test_stream(clip, gop=4, frames=60, payload_size=256, seed=9)
        assert 15_000 <= clip.stat().st_size <= 17_000
        before = helper_pids() if Path("/proc/self/cmdline").exists() else set()
        code = (
            "import sys\n"
            "from selenc import aes\n"
            "from selenc.pipeline import KeySource, cmd_encrypt\n"
            "cmd_encrypt(sys.argv[1], sys.argv[2], sys.argv[3], KeySource.from_raw_hex('00' * 16))\n"
            "print('subprocess' in sys.modules, aes._helpers)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(aes.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, str(clip), str(tmp_path / "e.264"), str(tmp_path / "e.seh")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False {}\n", "")
        if Path("/proc/self/cmdline").exists():
            assert helper_pids() - before == set()


def zero_dense_frames(nbytes: int, seed: int) -> list:
    """Two IDR slices of ``nbytes`` RBSP bytes, over half of them 00."""
    from selenc.bitstream import NalUnit, parse_nal_header, rbsp_to_ebsp, split_annexb

    rng = random.Random(seed)
    nals = split_annexb(gen_stream(gop=1, frames=1, payload_size=64, seed=seed))[1][:2]
    for _ in range(2):
        rbsp = b"\xb8" + rng.randbytes(nbytes - 2).translate(bytes((0, 0, 0, 0, 1, 2, 3, 0x80) * 32)) + b"\x80"
        nals.append(NalUnit(len(nals), 4, parse_nal_header(0x65), rbsp_to_ebsp(rbsp)))
    return nals


def gen_stream(**kwargs) -> bytes:
    from selenc.pipeline import gen_test_stream

    return gen_test_stream(None, **kwargs)


class TestPieceSeams:
    """A NAL longer than a chunk is cut only before a block whose previous
    ciphered byte is not 00, so its cuts, escaped apart, here or in the
    helper, give the bytes of the whole NAL escaped at once."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        forget_helper()
        assert aes._helper_ready(timeout=60)
        yield aes._helper()
        forget_helper()

    @staticmethod
    def seams(monkeypatch) -> "list[tuple[int, int]]":
        """(first block, end) of each cut."""
        from selenc import selective

        cuts, real = [], selective._seam

        def seam(ks, nonce, ordinal, rbsp, first):
            end = real(ks, nonce, ordinal, rbsp, first)
            cuts.append((first, end))
            return end

        monkeypatch.setattr(selective, "_seam", seam)
        return cuts

    @pytest.mark.parametrize("helper", [True, False])
    def test_a_forced_00_before_a_chunk_boundary_moves_the_cut(self, monkeypatch, helper):
        # The ciphertext of NAL 2 is forced to 00 at bytes 16c - 17,
        # 16c - 2 and 16c - 1 and to 01 at 16c, c = _CHUNK_BLOCKS: escaped
        # whole it holds 00 00 03 01, and a cut at c would escape it to
        # 00 00 01. So the first cut moves back two blocks.
        from selenc.bitstream import NalUnit, ebsp_to_rbsp, rbsp_to_ebsp
        from selenc.selective import EncryptionPolicy, decrypt_stream, encrypt_stream, select

        c = aes._CHUNK_BLOCKS
        nals = zero_dense_frames(16 * (2 * c + 100) + 7, 1)
        rbsp = bytearray(ebsp_to_rbsp(nals[2].ebsp))
        keystream = per_block_keystream(PASS_KS, PASS_NONCE, 2, len(rbsp))
        for i, v in ((16 * c - 17, 0), (16 * c - 2, 0), (16 * c - 1, 0), (16 * c, 1)):
            rbsp[i] = keystream[i] ^ v
        nals[2] = NalUnit(2, 4, nals[2].header, rbsp_to_ebsp(bytes(rbsp)))
        if not helper:
            monkeypatch.setattr(aes, "_cipher_off", lambda ks, nonce, piece: None)
        ciphered = TestKeystreamHelper.watch(monkeypatch)
        cuts = self.seams(monkeypatch)
        selection = select(nals, EncryptionPolicy.IDR_ONLY)
        enc, header = encrypt_stream(nals, PASS_KS, selection, PASS_NONCE)
        want = one_process_payloads(nals, PASS_KS)
        assert bytes.fromhex("00000301") in want[2]
        assert [n.ebsp for n in enc] == want
        assert cuts[0] == (0, c - 2)
        assert bool(ciphered) == helper
        assert decrypt_stream(enc, PASS_KS, header) == nals

    def test_zero_dense_plaintexts_move_cuts_and_round_trip(self, monkeypatch):
        # Decrypting gives back RBSPs over half of whose bytes are 00, so
        # many a cut moves; every payload must come out as it went in.
        from selenc.selective import EncryptionPolicy, decrypt_stream, encrypt_stream, select

        nals = zero_dense_frames(16 * 5 * aes._CHUNK_BLOCKS + 3, 2)
        selection = select(nals, EncryptionPolicy.IDR_ONLY)
        enc, header = encrypt_stream(nals, PASS_KS, selection, PASS_NONCE)
        assert [n.ebsp for n in enc] == one_process_payloads(nals, PASS_KS)
        ciphered = TestKeystreamHelper.watch(monkeypatch)
        cuts = self.seams(monkeypatch)
        assert decrypt_stream(enc, PASS_KS, header) == nals
        assert ciphered and any(end != first + aes._CHUNK_BLOCKS for first, end in cuts)
        assert [end - first for first, end in cuts] and all(
            0 < end - first <= aes._CHUNK_BLOCKS for first, end in cuts
        )


def judge_stream(shape: str) -> bytes:
    """A stream of 64 KiB or more in one of three shapes, whose back half
    holds forbidden runs, 00 00 03 tails, a header byte 00 and, last, a
    start code with no header byte after it."""
    from selenc.bitstream import BitWriter, NalUnit, parse_nal_header, rbsp_to_ebsp, split_annexb
    from selenc.pipeline import gen_test_stream

    if shape == "sparse":
        nals = split_annexb(gen_test_stream(None, gop=30, frames=40, payload_size=4096, seed=11))[1]
    elif shape == "all_idr":
        nals = split_annexb(gen_test_stream(None, gop=1, frames=12, payload_size=8192, seed=12))[1]
    else:  # pictures of four slices, every slice after the first behind a 3-byte start code
        rng = random.Random(13)
        nals = split_annexb(gen_test_stream(None, gop=1, frames=1, payload_size=64, seed=13))[1][:2]
        for p in range(10):
            for i in range(4):
                w = BitWriter()
                w.write_ue(40 * i)  # first_mb_in_slice
                w.write_ue(7 if p == 0 else (2, 0, 5, 7)[i])  # slice_type
                filler = rng.randbytes(2000).translate(bytes((0, 0, 1, 3, 7, 200, 9, 0xFF) * 32))
                header = parse_nal_header(0x65 if p == 0 else 0x41)
                nals.append(NalUnit(len(nals), 3 if i else 4, header, rbsp_to_ebsp(w.to_bytes() + filler + b"\x80")))
    n = len(nals)
    defects = {
        n * 6 // 10: b"\x00\x00\x02",  # a run that mimics a start code
        n * 7 // 10: b"\x00\x00\x03\x07",  # an escape of a byte above 03
        n * 8 // 10: b"\x00\x00\x00\x05",
    }
    parts = []
    for k, nal in enumerate(nals):
        ebsp = bytes(nal.ebsp)
        if k in defects:
            ebsp = ebsp[:100] + defects[k] + ebsp[100:]
        elif k % 5 == 4:
            ebsp += b"\x00\x00\x03" * (k % 3 + 1)  # cabac_zero_word tails
        parts.append(NalUnit(k, nal.start_code_len, nal.header, ebsp).to_bytes())
        if k == n * 9 // 10:  # a header byte 00, judged here: its run starts at the header byte
            parts.append(b"\x00\x00\x00\x01\x00\x00\x02\x11")
    data = b"".join(parts) + b"\x00\x00\x00\x01"
    assert len(data) >= 64 * 1024
    return data


class TestJudgeHelper:
    """classify_stream hands the back half of the payloads it must judge to
    the helper, when one is ready, and judges the front half itself. Each
    test starts from a fresh helper, as TestKeystreamHelper's do."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        forget_helper()
        assert aes._helper_ready(timeout=60)
        yield aes._helper()
        forget_helper()

    @staticmethod
    def watch(monkeypatch) -> "tuple[list[int], list[int]]":
        """Payloads of each judge request offered, and of each the helper
        answered."""
        offered, judged, real = [], [], aes._judge_off

        def judge_off(payloads):
            offered.append(len(payloads))
            receive = real(payloads)
            if receive is None:
                return None

            def counted():
                verdicts = receive()
                if verdicts is not None:
                    judged.append(len(payloads))
                return verdicts

            return counted

        monkeypatch.setattr(aes, "_judge_off", judge_off)
        return offered, judged

    @staticmethod
    def serial(data: bytes, monkeypatch):
        """classify_stream's rows, verdicts and RBSP sizes with the seam
        declining, so every payload is judged in this process."""
        from selenc.bitstream import classify_stream, split_annexb

        with monkeypatch.context() as m:
            m.setattr(aes, "_judge_off", lambda payloads: None)
            nals = split_annexb(data)[1]
            return classify_stream(nals), [(n.escape_violation, n.rbsp_size) for n in nals if n.header]

    @pytest.mark.parametrize("shape", ["sparse", "all_idr", "multislice"])
    def test_rows_match_the_serial_rows(self, monkeypatch, shape):
        from selenc.bitstream import classify_stream, split_annexb

        data = judge_stream(shape)
        rows, judged_here = self.serial(data, monkeypatch)
        offered, judged = self.watch(monkeypatch)
        nals = split_annexb(data)[1]
        assert classify_stream(nals) == rows
        assert [(n.escape_violation, n.rbsp_size) for n in nals if n.header] == judged_here
        assert judged == offered and len(judged) == 1
        # The defects and the 00 00 03 tails are in the half the helper judged.
        assert sum(r.malformed_escape for r in rows) == 4
        assert "00 00 02 at the header byte" in [v for v, _ in judged_here]
        assert judged[0] >= sum(n.header is not None for n in nals) * 3 // 10

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.sampled_from(b"\x00\x00\x00\x01\x02\x03\x04\xff"), max_size=40), min_size=1, max_size=8))
    def test_the_judge_job_matches_this_process(self, payloads):
        from selenc.bitstream import _escapes, _violation

        payloads = [bytes(p) for p in payloads]
        receive = aes._judge_off([memoryview(p) for p in payloads])
        assert receive is not None
        assert receive() == [(_violation(p), _escapes(p)) for p in payloads]

    def test_each_payload_is_scanned_once_here_or_there(self, monkeypatch):
        from selenc import bitstream
        from selenc.bitstream import classify_stream, split_annexb

        data = judge_stream("sparse")
        scans = []
        real = bitstream._EPB_VIOLATION.search
        proxy = types.SimpleNamespace(search=lambda *a: scans.append(1) or real(*a))
        monkeypatch.setattr(bitstream, "_EPB_VIOLATION", proxy)
        offered, judged = self.watch(monkeypatch)
        nals = split_annexb(data)[1]
        classify_stream(nals)
        assert judged and len(scans) + sum(judged) == sum(n.header is not None for n in nals)

    def test_a_back_half_under_a_chunk_offers_nothing(self, monkeypatch):
        from selenc.bitstream import classify_stream, split_annexb
        from selenc.pipeline import gen_test_stream

        nals = split_annexb(gen_test_stream(None, gop=1, frames=7, payload_size=8192, seed=4))[1]
        assert sum(len(n.ebsp) for n in nals) < 2 * 16 * aes._CHUNK_BLOCKS
        offered, _ = self.watch(monkeypatch)
        classify_stream(nals)
        assert offered == []

    def test_a_process_that_only_inspects_starts_no_helper(self, tmp_path, fresh_helper):
        from selenc.pipeline import gen_test_stream

        clip = tmp_path / "clip.264"
        gen_test_stream(clip, gop=30, frames=480, payload_size=8192, seed=6)
        assert clip.stat().st_size >= 4_000_000
        before = helper_pids()
        code = (
            "import sys\n"
            "from selenc import aes\n"
            "from selenc.pipeline import cmd_inspect\n"
            "cmd_inspect(sys.argv[1])\n"
            "print('subprocess' in sys.modules, aes._helpers)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(aes.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, str(clip)], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False {}\n", "")
        if Path("/proc/self/cmdline").exists():
            assert helper_pids() - before == set()

    def test_a_helper_killed_after_a_judge_request_is_dropped(self, monkeypatch, fresh_helper):
        from selenc.bitstream import classify_stream, split_annexb

        data = judge_stream("all_idr")
        rows, judged_here = self.serial(data, monkeypatch)
        real = aes._judge_off

        def judge_off(payloads):
            receive = real(payloads)
            fresh_helper.proc.kill()
            fresh_helper.proc.wait()
            return receive

        monkeypatch.setattr(aes, "_judge_off", judge_off)
        nals = split_annexb(data)[1]
        assert classify_stream(nals) == rows
        assert [(n.escape_violation, n.rbsp_size) for n in nals if n.header] == judged_here
        assert fresh_helper.failed and fresh_helper.proc.returncode is not None
        monkeypatch.undo()
        offered, judged = self.watch(monkeypatch)
        assert classify_stream(split_annexb(data)[1]) == rows
        assert len(offered) == 1 and judged == []  # offered, and declined
        assert not aes._helper_ready(timeout=0)

    def test_threads_with_two_jobs_share_one_helper(self, monkeypatch, fresh_helper):
        # Two threads classify and a third ciphers, more threads than cores:
        # the lock keeps the two request kinds from interleaving on the pipes.
        from selenc.bitstream import classify_stream, split_annexb

        data = judge_stream("sparse")
        rows, _ = self.serial(data, monkeypatch)
        _, judged = self.watch(monkeypatch)
        ciphered = TestKeystreamHelper.watch(monkeypatch)
        nals = key_frames(12, 8192, 10)
        payloads = one_process_payloads(nals, PASS_KS)
        got = {"rows": [], "payloads": []}

        def classify():
            for _ in range(4):
                got["rows"].append(classify_stream(split_annexb(data)[1]))

        def cipher():
            for _ in range(8):
                got["payloads"].append([n.ebsp for n in cipher_pass(nals, PASS_KS)])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=f) for f in (classify, classify, cipher)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {"rows": [rows] * 8, "payloads": [payloads] * 8}
        assert (judged or ciphered) and not fresh_helper.failed
