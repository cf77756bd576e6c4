import functools
import random

import pytest
from hypothesis import given, settings
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
        ],
    )
    def test_counter_refusals(self, monkeypatch, nonce, spans, refusal):
        # Refused before any keystream block is computed.
        calls = []
        real = aes._rounds
        monkeypatch.setattr(aes, "_rounds", lambda s, k: calls.append(len(s[0])) or real(s, k))
        with pytest.raises(ValueError) as got:
            ctr_keystream(key_expansion(b"\x00" * 16), nonce, spans)
        assert type(got.value) is ValueError and str(got.value) == refusal
        assert calls == []

    @pytest.mark.parametrize(
        "nonce,spans,refusal",
        [
            (b"\x01" * 7, [(2**32, 16), (2**32, 0)], "a repeated NAL ordinal would reuse its keystream"),
            (b"\x01" * 7, [(2**32, -1)], "nbytes must be nonnegative"),
            (b"\x01" * 8, [(-1, -1)], "nbytes must be nonnegative"),
            (b"\x01" * 8, [(0, -1), (2**32, 16)], "nbytes must be nonnegative"),
            (b"\x01" * 8, [(2**32, 16), (0, -1)], "nal_ordinal must fit in 32 bits"),
            (b"\x01" * 7, [(0, 16), (1, -1)], "nonce must be 8 bytes"),
        ],
    )
    def test_refusal_order(self, nonce, spans, refusal):
        # The repeated-ordinal check comes first, then per span: nbytes, the
        # nonce, the ordinal.
        with pytest.raises(ValueError) as got:
            ctr_keystream(key_expansion(b"\x00" * 16), nonce, spans)
        assert str(got.value) == refusal

    def test_counter_overflow_comes_before_the_counter_checks(self):
        with pytest.raises(CounterOverflow):
            ctr_keystream(key_expansion(b"\x00" * 16), b"\x01" * 7, [(2**32, (1 << 32) * 16 + 1)])

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
        calls = []
        real = aes._rounds
        monkeypatch.setattr(aes, "_rounds", lambda s, k: calls.append(len(s[0])) or real(s, k))
        spans = [(o, 16 * aes._CHUNK_BLOCKS // 3 + 1) for o in range(7)]
        ctr_keystream(PASS_KS, PASS_NONCE, spans)
        blocks = 7 * (aes._CHUNK_BLOCKS // 3 + 1)
        assert calls == [aes._CHUNK_BLOCKS] * (blocks // aes._CHUNK_BLOCKS) + [
            blocks % aes._CHUNK_BLOCKS
        ]


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

    def test_matches_cryptography_past_a_byte_13_carry(self):
        nbytes = 16 * 65537
        got = ctr_keystream(PASS_KS, PASS_NONCE, [(2**32 - 1, nbytes)])
        assert got == cryptography_keystream(PASS_KEY, PASS_NONCE, 2**32 - 1, nbytes)
