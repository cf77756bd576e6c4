"""AES-128 block cipher built from its four round transformations.

The S-box and multiplication tables are derived at import time from GF(2^8)
arithmetic (reduction polynomial x^8 + x^4 + x^3 + x + 1) rather than typed
in as constants. The state-matrix transformations expose the algebra for
testing. Two flat paths run the same cipher fast enough for real work:

- encrypt_block/decrypt_block take one block at a time. They serve the
  single-block callers (key check, passphrase KDF, known-answer checks) and
  are, with the state-matrix round functions, the reference the batched
  engine is tested against. encrypt_block is table-driven: 16 lookup tables,
  built at import from SBOX, _MUL2 and _MUL3, fold SubBytes, ShiftRows and
  MixColumns into one lookup per input byte, so a full round is 16 lookups
  XORed with the round key as 128-bit integers (the T-table formulation of
  Daemen & Rijmen, The Design of Rijndael, 2002, section 4.2).
- encrypt_blocks runs N concatenated blocks in lockstep, each byte a lane of
  one big integer: SubBytes is one ``bytes.translate`` over all N*16 bytes,
  ShiftRows and the MixColumns column rotations are shifts ANDed with
  repeating lane masks, and AddRoundKey is one XOR. The counter-mode
  keystream (ctr_keystream) is built on it. This is the lockstep idea behind
  bitsliced AES (Kasper & Schwabe, CHES 2009) with bytes as the lanes.

Not constant-time, and not meant to protect real secrets: the table lookups
in encrypt_block are indexed by secret-dependent bytes, so their cache
footprint leaks key material to a co-resident observer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import BadKeyLength, CounterOverflow

_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

BLOCK_SIZE = 16
KEY_SIZE = 16

# Per-round constants applied to the first byte of a word by the key-schedule
# transformation: successive doublings in GF(2^8).
ROUND_CONSTANTS = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    a <<= 1
    return a ^ _POLY if a & 0x100 else a


def _gf_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a = _xtime(a)
        b >>= 1
    return acc


def _rotl8(v: int, n: int) -> int:
    return ((v << n) | (v >> (8 - n))) & 0xFF


def _build_sbox() -> bytes:
    # Multiplicative inverses via log tables over the generator 0x03, then
    # the affine map y ^ rotl(y,1..4) ^ 0x63.
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # multiply by 0x03
    sbox = bytearray(256)
    for a in range(256):
        y = 0 if a == 0 else exp[(255 - log[a]) % 255]
        sbox[a] = y ^ _rotl8(y, 1) ^ _rotl8(y, 2) ^ _rotl8(y, 3) ^ _rotl8(y, 4) ^ 0x63
    return bytes(sbox)


SBOX = _build_sbox()
INV_SBOX = bytes(SBOX.index(i) for i in range(256))

_MUL2 = bytes(_gf_mul(a, 2) for a in range(256))
_MUL3 = bytes(_gf_mul(a, 3) for a in range(256))
_MUL9 = bytes(_gf_mul(a, 9) for a in range(256))
_MUL11 = bytes(_gf_mul(a, 11) for a in range(256))
_MUL13 = bytes(_gf_mul(a, 13) for a in range(256))
_MUL14 = bytes(_gf_mul(a, 14) for a in range(256))

# ShiftRows as a permutation of the flat column-major block: row r of the
# state rotates left by r, i.e. new[r + 4c] = old[r + 4((c + r) % 4)].
_SHIFT_PERM = tuple((i & 3) + 4 * (((i >> 2) + (i & 3)) & 3) for i in range(16))
_INV_SHIFT_PERM = tuple((i & 3) + 4 * (((i >> 2) - (i & 3)) & 3) for i in range(16))


def _build_round_tables() -> "tuple[tuple[int, ...], ...]":
    """Entry [i][x]: the 128-bit state that block byte i holding x becomes
    after SubBytes, ShiftRows and MixColumns, all other bytes being zero.

    MixColumns turns a row-0 byte v into the column (2v, v, v, 3v); a byte in
    row r gives that column rotated down r rows. ShiftRows decides which
    column it lands in.
    """
    column = [_MUL2[v] << 24 | v << 16 | v << 8 | _MUL3[v] for v in SBOX]
    tables = []
    for i in range(16):
        j = _SHIFT_PERM.index(i)  # block offset of byte i after ShiftRows
        rot = 8 * (j & 3)
        shift = 8 * (12 - (j & 12))
        tables.append(
            tuple(((w >> rot | w << (32 - rot)) & 0xFFFFFFFF) << shift for w in column)
        )
    return tuple(tables)


_ROUND_TABLES = _build_round_tables()


def _lanes(keep) -> bytes:
    """0xFF at each block byte whose (row, column) satisfies ``keep``."""
    return bytes(0xFF if keep(i & 3, i >> 2) else 0 for i in range(16))


# Lane masks for encrypt_blocks, one block wide; each call repeats them N
# times. In the big-endian integer of N blocks a byte at a higher offset sits
# at lower bits, so "read the byte k places later" is a left shift by 8k.
_ROW0 = _lanes(lambda r, c: r == 0)
# ShiftRows moves row r left by r columns: the 4 - r bytes that stay inside
# the block come from 4r bytes later, the r that wrap from 16 - 4r earlier.
_SHIFT_STAY = tuple(_lanes(lambda row, c, r=r: row == r and c < 4 - r) for r in (1, 2, 3))
_SHIFT_WRAP = tuple(_lanes(lambda row, c, r=r: row == r and c >= 4 - r) for r in (1, 2, 3))
# Column rotations for MixColumns: row r reads row r + 1 (resp. r + 2) of
# its own column, wrapping at the bottom.
_ROT1_LANES = (_lanes(lambda r, c: r < 3), _lanes(lambda r, c: r == 3))
_ROT2_LANES = (_lanes(lambda r, c: r < 2), _lanes(lambda r, c: r >= 2))
_LOW7 = b"\x7f" * 16
_BIT0 = b"\x01" * 16


def _xor16(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(16, "big")


def xor_bytes(data: bytes, mask: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(data) != len(mask):
        raise ValueError("xor_bytes needs equal lengths")
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(mask, "big")).to_bytes(n, "big")


@dataclass(frozen=True)
class AesState:
    """4x4 byte matrix, column-major over a 16-byte block.

    Block byte i lands in row i % 4, column i // 4.
    """

    cells: "tuple[tuple[int, ...], ...]"

    @classmethod
    def from_block(cls, block: bytes) -> "AesState":
        if len(block) != BLOCK_SIZE:
            raise ValueError("state block must be 16 bytes")
        return cls(tuple(tuple(block[4 * c + r] for c in range(4)) for r in range(4)))

    def to_block(self) -> bytes:
        return bytes(self.cells[r][c] for c in range(4) for r in range(4))


def _map_cells(s: AesState, table: bytes) -> AesState:
    return AesState(tuple(tuple(table[b] for b in row) for row in s.cells))


def sub_bytes(s: AesState) -> AesState:
    """Substitute every cell through the S-box, independent of position."""
    return _map_cells(s, SBOX)


def inv_sub_bytes(s: AesState) -> AesState:
    return _map_cells(s, INV_SBOX)


def _rot(row: "tuple[int, ...]", k: int) -> "tuple[int, ...]":
    k %= 4
    return row[k:] + row[:k]


def shift_rows(s: AesState) -> AesState:
    """Rotate row r left by r positions."""
    return AesState(tuple(_rot(row, r) for r, row in enumerate(s.cells)))


def inv_shift_rows(s: AesState) -> AesState:
    return AesState(tuple(_rot(row, -r) for r, row in enumerate(s.cells)))


def mix_columns(s: AesState) -> AesState:
    """Multiply each column by {03}x^3 + {01}x^2 + {01}x + {02} in GF(2^8)."""
    r0, r1, r2, r3 = s.cells
    out = ([], [], [], [])
    for c in range(4):
        a0, a1, a2, a3 = r0[c], r1[c], r2[c], r3[c]
        out[0].append(_MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3)
        out[1].append(a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3)
        out[2].append(a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3])
        out[3].append(_MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3])
    return AesState(tuple(tuple(row) for row in out))


def inv_mix_columns(s: AesState) -> AesState:
    """Multiply each column by the inverse polynomial {0b}x^3+{0d}x^2+{09}x+{0e}."""
    r0, r1, r2, r3 = s.cells
    out = ([], [], [], [])
    for c in range(4):
        a0, a1, a2, a3 = r0[c], r1[c], r2[c], r3[c]
        out[0].append(_MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3])
        out[1].append(_MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3])
        out[2].append(_MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3])
        out[3].append(_MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3])
    return AesState(tuple(tuple(row) for row in out))


def add_round_key(s: AesState, round_key: bytes) -> AesState:
    """XOR the state with one 16-byte round key. Its own inverse."""
    if len(round_key) != BLOCK_SIZE:
        raise ValueError("round key must be 16 bytes")
    return AesState(
        tuple(
            tuple(s.cells[r][c] ^ round_key[4 * c + r] for c in range(4)) for r in range(4)
        )
    )


@dataclass(frozen=True)
class KeySchedule:
    """Expanded AES-128 key: 44 four-byte words, grouped into 11 round keys.

    ``round_key_ints`` holds the same 11 round keys as big-endian integers,
    the form encrypt_block XORs into its state.
    """

    words: "tuple[bytes, ...]"
    round_keys: "tuple[bytes, ...]"
    round_key_ints: "tuple[int, ...]"

    NK = 4  # four-byte words in the cipher key


def _t_transform(word: bytes, rcon: int) -> bytes:
    """Rotate left one byte, substitute through the S-box, XOR the constant."""
    rotated = word[1:] + word[:1]
    substituted = rotated.translate(SBOX)
    return bytes((substituted[0] ^ rcon,)) + substituted[1:]


def key_expansion(key: bytes) -> KeySchedule:
    """Expand a 16-byte key into the 44-word schedule.

    The key fills words 0..3; afterwards W[i] = W[i-1] XOR W[i-4], except
    every fourth word where W[i] = T(W[i-1]) XOR W[i-4].
    """
    if len(key) != KEY_SIZE:
        raise BadKeyLength(f"key must be 16 bytes, got {len(key)}")
    words = [bytes(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        prev = words[i - 1]
        if i % 4 == 0:
            prev = _t_transform(prev, ROUND_CONSTANTS[i // 4 - 1])
        words.append(bytes(a ^ b for a, b in zip(prev, words[i - 4])))
    round_keys = tuple(b"".join(words[4 * r : 4 * r + 4]) for r in range(11))
    round_key_ints = tuple(int.from_bytes(k, "big") for k in round_keys)
    return KeySchedule(tuple(words), round_keys, round_key_ints)


def encrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Encrypt one 16-byte block: initial key add, 9 full rounds, final round
    without the column mix.

    Each full round is one lookup in _ROUND_TABLES per state byte, XORed
    together with the round key. The final round reads ``SBOX`` at call time.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be 16 bytes")
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _ROUND_TABLES
    rk = ks.round_key_ints
    s = int.from_bytes(block, "big") ^ rk[0]
    for k in rk[1:10]:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = s.to_bytes(16, "big")
        s = (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
            ^ k
        )
    t = s.to_bytes(16, "big").translate(SBOX)
    t = bytes(map(t.__getitem__, _SHIFT_PERM))
    return (int.from_bytes(t, "big") ^ rk[10]).to_bytes(16, "big")


def decrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block: inverse transformations in reverse order."""
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be 16 bytes")
    rk = ks.round_keys
    s = _xor16(block, rk[10])
    for r in range(9, 0, -1):
        s = bytes(map(s.__getitem__, _INV_SHIFT_PERM)).translate(INV_SBOX)
        s = _xor16(s, rk[r])
        out = bytearray(16)
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        s = bytes(out)
    s = bytes(map(s.__getitem__, _INV_SHIFT_PERM)).translate(INV_SBOX)
    return _xor16(s, rk[0])


def encrypt_blocks(data: bytes, ks: KeySchedule) -> bytes:
    """Encrypt N concatenated 16-byte blocks in lockstep.

    Equal to encrypt_block over each block in turn. The N*16 bytes live in
    one big integer, so every step of a round is a handful of C-speed
    operations over all blocks at once. ``SBOX`` is read at call time.
    """
    size = len(data)
    if size % BLOCK_SIZE:
        raise ValueError(f"data must be whole 16-byte blocks, got {size} bytes")
    n = size // BLOCK_SIZE

    def lanes(pattern: bytes) -> int:
        return int.from_bytes(pattern * n, "big")

    row0 = lanes(_ROW0)
    stay1, stay2, stay3 = map(lanes, _SHIFT_STAY)
    wrap1, wrap2, wrap3 = map(lanes, _SHIFT_WRAP)
    up1, down1 = map(lanes, _ROT1_LANES)
    up2, down2 = map(lanes, _ROT2_LANES)
    low7, bit0 = lanes(_LOW7), lanes(_BIT0)
    rk = [lanes(k) for k in ks.round_keys]
    sbox = SBOX

    def sub_shift(s: int) -> int:
        t = int.from_bytes(s.to_bytes(size, "big").translate(sbox), "big")
        return (
            (t & row0)
            | (t << 32 & stay1) | (t >> 96 & wrap1)
            | (t << 64 & stay2) | (t >> 64 & wrap2)
            | (t << 96 & stay3) | (t >> 32 & wrap3)
        )

    s = int.from_bytes(data, "big") ^ rk[0]
    for key in rk[1:10]:
        a = sub_shift(s)
        # MixColumns per column: 2a0 ^ 3a1 ^ a2 ^ a3 = r1 ^ rot2(v) ^ 2v with
        # r1 = rot1(a) and v = a ^ r1; 2v doubles each lane in GF(2^8).
        r1 = (a << 8 & up1) | (a >> 24 & down1)
        v = a ^ r1
        double = ((v & low7) << 1) ^ ((v >> 7 & bit0) * 0x1B)
        s = r1 ^ (v << 16 & up2) ^ (v >> 16 & down2) ^ double ^ key
    return (sub_shift(s) ^ rk[10]).to_bytes(size, "big")


@dataclass(frozen=True)
class CounterBlock:
    """16-byte counter-mode input: nonce || NAL ordinal || block index.

    Integers are big-endian. Structural uniqueness: within one stream and
    nonce, every (ordinal, index) pair names a distinct block.
    """

    nonce: bytes
    nal_ordinal: int
    block_index: int

    def __post_init__(self) -> None:
        if len(self.nonce) != 8:
            raise ValueError("nonce must be 8 bytes")
        if not (0 <= self.nal_ordinal < 1 << 32):
            raise ValueError("nal_ordinal must fit in 32 bits")
        if not (0 <= self.block_index < 1 << 32):
            raise ValueError("block_index must fit in 32 bits")

    def to_bytes(self) -> bytes:
        return (
            self.nonce
            + self.nal_ordinal.to_bytes(4, "big")
            + self.block_index.to_bytes(4, "big")
        )


MAX_KEYSTREAM_BYTES = (1 << 32) * BLOCK_SIZE


# Blocks per encrypt_blocks call: the engine's per-byte speed peaked at 512 to
# 1024 blocks and fell off at 4096.
_CHUNK_BLOCKS = 1024


def ctr_keystream(ks: KeySchedule, nonce: bytes, nal_ordinal: int, nbytes: int) -> bytes:
    """First ``nbytes`` of E(nonce||ordinal||0) || E(nonce||ordinal||1) || ...

    Deterministic in all inputs; applying the same keystream twice by XOR
    restores the plaintext. The counter blocks go through encrypt_blocks in
    chunks of _CHUNK_BLOCKS.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be nonnegative")
    if nbytes > MAX_KEYSTREAM_BYTES:
        raise CounterOverflow(f"{nbytes} bytes exceeds the 32-bit block counter")
    if nbytes == 0:
        return b""
    prefix = CounterBlock(nonce, nal_ordinal, 0).to_bytes()[:12]
    nblocks = -(-nbytes // BLOCK_SIZE)
    chunks = []
    for first in range(0, nblocks, _CHUNK_BLOCKS):
        count = min(_CHUNK_BLOCKS, nblocks - first)
        counters = struct.pack(f">{count}I", *range(first, first + count))
        blocks = bytearray(prefix + bytes(4)) * count
        for k in range(4):
            blocks[12 + k :: 16] = counters[k::4]
        chunks.append(encrypt_blocks(blocks, ks))
    return b"".join(chunks)[:nbytes]
