"""AES-128 block cipher built from its four round transformations.

The S-box and multiplication tables are derived at import time from GF(2^8)
arithmetic (reduction polynomial x^8 + x^4 + x^3 + x + 1) rather than typed
in as constants. The round functions expose the algebra for testing. Their
AesState is the block's 16 bytes in column-major order, each round function
is one whole-block operation on those bytes, and decrypt_block is the
composition of the inverse round functions. Two flat paths run the cipher
forward fast enough for real work:

- _encrypt_int takes one block at a time, as a 128-bit integer. It is the
  one single-block core: encrypt_block wraps it for the key check and the
  known-answer checks, and the passphrase KDF chains its integer digest
  through it without a bytes round trip per step. With the round functions
  it is the reference the batched engine is tested against. It is
  table-driven: 16 lookup tables, built at import from SBOX, _MUL2 and
  _MUL3, fold SubBytes, ShiftRows and MixColumns into one lookup per input
  byte, so a full round is 16 lookups XORed with the round key as 128-bit
  integers (the T-table formulation of Daemen & Rijmen, The Design of
  Rijndael, 2002, section 4.2). The final round is 16 lookups too, through
  16 more import-time tables that fold SubBytes and ShiftRows.
- encrypt_blocks runs N concatenated blocks in lockstep, byte-sliced: slab j
  holds byte j of every block, and each state row of four slabs is one big
  integer. AddRoundKey and SubBytes are one ``bytes.translate`` per slab
  through an import-time table of SBOX[x ^ k] for that slab's round-key byte
  k, ShiftRows is the order in which the slabs are joined into rows, and
  MixColumns XORs whole rows. This is the byte-level variant of bitsliced
  AES (Kasper & Schwabe, CHES 2009). The counter-mode keystream
  (ctr_keystream) joins the counter blocks of all the NALs it is given and
  runs them through encrypt_blocks a chunk at a time. One call holds its
  whole counter buffer, so the commands call it once per group of NALs.

Not constant-time, and not meant to protect real secrets: the table lookups
in _encrypt_int are indexed by secret-dependent bytes, and encrypt_blocks
picks one of 256 S-box tables per slab by round-key byte, so the cache
footprint of both leaks key material to a co-resident observer.
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

_MUL1 = bytes(range(256))
_MUL2 = bytes(_gf_mul(a, 2) for a in range(256))
_MUL3 = bytes(_gf_mul(a, 3) for a in range(256))
_MUL9 = bytes(_gf_mul(a, 9) for a in range(256))
_MUL11 = bytes(_gf_mul(a, 11) for a in range(256))
_MUL13 = bytes(_gf_mul(a, 13) for a in range(256))
_MUL14 = bytes(_gf_mul(a, 14) for a in range(256))

# ShiftRows as a permutation of the flat column-major block: row r of the
# state rotates left by r, i.e. new[r + 4c] = old[r + 4((c + r) % 4)].
_SHIFT_PERM = tuple((i & 3) + 4 * (((i >> 2) + (i & 3)) & 3) for i in range(16))
_INV_SHIFT_PERM = tuple(_SHIFT_PERM.index(i) for i in range(16))
# Rotating every column up k rows, new[r + 4c] = old[(r + k) % 4 + 4c], is
# rotating each 32-bit word of the block's big-endian integer left by 8k bits;
# _COLUMN_KEEP[k] marks the bytes that stay inside their word.
_COLUMN_KEEP = tuple(int.from_bytes((b"\xff" * (4 - k) + bytes(k)) * 4, "big") for k in range(4))


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
# Entry [i][x]: the 128-bit state that block byte i holding x becomes after
# SubBytes and ShiftRows, all other bytes being zero (the final round).
_FINAL_TABLES = tuple(tuple(v << 8 * (15 - j) for v in SBOX) for j in _INV_SHIFT_PERM)


# Byte-sliced tables for encrypt_blocks. _XOR_TABLES[k] maps x to x ^ k and
# _KEYED_SBOX[k] maps x to SBOX[x ^ k], so one ``bytes.translate`` adds a
# round-key byte and substitutes. About 130 KB; whole-table XORs build them
# in under a millisecond at import, where a per-entry loop took 5 ms.
_BYTE_VALUES = int.from_bytes(bytes(range(256)), "big")
_XOR_TABLES = tuple(
    (_BYTE_VALUES ^ int.from_bytes(bytes((k,)) * 256, "big")).to_bytes(256, "big")
    for k in range(256)
)
_KEYED_SBOX = tuple(t.translate(SBOX) for t in _XOR_TABLES)

# encrypt_blocks keeps the state of N blocks as 16 slabs: the slab at
# position p = 4r + c holds state cell (row r, column c), block byte r + 4c,
# of every block. Four consecutive positions form one state row.
_SLAB_BYTE = tuple((p >> 2) + 4 * (p & 3) for p in range(16))
# After ShiftRows, position p holds what block byte _GATHER[p] held before.
_GATHER = tuple(_SHIFT_PERM[i] for i in _SLAB_BYTE)


def xor_bytes(data: bytes, mask: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(data) != len(mask):
        raise ValueError("xor_bytes needs equal lengths")
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(mask, "big")).to_bytes(n, "big")


@dataclass(frozen=True)
class AesState:
    """4x4 byte matrix, stored as the 16-byte column-major block itself.

    Block byte i is the cell in row i % 4, column i // 4.
    """

    block: bytes

    @classmethod
    def from_block(cls, block: bytes) -> "AesState":
        if len(block) != BLOCK_SIZE:
            raise ValueError("state block must be 16 bytes")
        return cls(bytes(block))

    def to_block(self) -> bytes:
        return self.block

    @property
    def cells(self) -> "tuple[tuple[int, ...], ...]":
        """The four rows, each as its four cells."""
        return tuple(tuple(self.block[r::4]) for r in range(4))


def sub_bytes(s: AesState) -> AesState:
    """Substitute every cell through the S-box, independent of position."""
    return AesState(s.block.translate(SBOX))


def inv_sub_bytes(s: AesState) -> AesState:
    return AesState(s.block.translate(INV_SBOX))


def shift_rows(s: AesState) -> AesState:
    """Rotate row r left by r positions."""
    return AesState(bytes(map(s.block.__getitem__, _SHIFT_PERM)))


def inv_shift_rows(s: AesState) -> AesState:
    return AesState(bytes(map(s.block.__getitem__, _INV_SHIFT_PERM)))


def _mix_circulant(block: bytes, tables: "tuple[bytes, ...]") -> bytes:
    """Multiply every column by the circulant matrix whose first row is
    ``tables``: out[r] = XOR over k of tables[k][a[(r + k) % 4]]."""
    acc = 0
    for k, table in enumerate(tables):
        x = int.from_bytes(block.translate(table), "big")
        acc ^= (x << 8 * k) & _COLUMN_KEEP[k] | (x >> 32 - 8 * k) & ~_COLUMN_KEEP[k]
    return acc.to_bytes(BLOCK_SIZE, "big")


def mix_columns(s: AesState) -> AesState:
    """Multiply each column by {03}x^3 + {01}x^2 + {01}x + {02} in GF(2^8)."""
    return AesState(_mix_circulant(s.block, (_MUL2, _MUL3, _MUL1, _MUL1)))


def inv_mix_columns(s: AesState) -> AesState:
    """Multiply each column by the inverse polynomial {0b}x^3+{0d}x^2+{09}x+{0e}."""
    return AesState(_mix_circulant(s.block, (_MUL14, _MUL11, _MUL13, _MUL9)))


def add_round_key(s: AesState, round_key: bytes) -> AesState:
    """XOR the state with one 16-byte round key. Its own inverse."""
    if len(round_key) != BLOCK_SIZE:
        raise ValueError("round key must be 16 bytes")
    return AesState(xor_bytes(s.block, round_key))


@dataclass(frozen=True)
class KeySchedule:
    """Expanded AES-128 key: 44 four-byte words, grouped into 11 round keys.

    ``round_key_ints`` holds the same 11 round keys as big-endian integers,
    the form _encrypt_int XORs into its state.
    """

    words: "tuple[bytes, ...]"
    round_keys: "tuple[bytes, ...]"
    round_key_ints: "tuple[int, ...]"


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


def _encrypt_int(s: int, rk: "tuple[int, ...]") -> int:
    """Encrypt one block held as a big-endian 128-bit integer under the
    round keys ``rk`` (KeySchedule.round_key_ints): initial key add, 9 full
    rounds, final round without the column mix.

    Every round is one lookup per state byte, XORed together with the round
    key: full rounds through _ROUND_TABLES, the final round through
    _FINAL_TABLES.
    """
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _ROUND_TABLES
    s ^= rk[0]
    for k in rk[1:10]:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = s.to_bytes(16, "big")
        s = (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
            ^ k
        )
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15 = _FINAL_TABLES
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = s.to_bytes(16, "big")
    return (
        f0[b0] ^ f1[b1] ^ f2[b2] ^ f3[b3] ^ f4[b4] ^ f5[b5] ^ f6[b6] ^ f7[b7]
        ^ f8[b8] ^ f9[b9] ^ f10[b10] ^ f11[b11] ^ f12[b12] ^ f13[b13] ^ f14[b14] ^ f15[b15]
        ^ rk[10]
    )


def encrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Encrypt one 16-byte block: _encrypt_int on the block's big-endian
    integer, so every round, the final one included, runs through tables
    built from SBOX at import."""
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be 16 bytes")
    return _encrypt_int(int.from_bytes(block, "big"), ks.round_key_ints).to_bytes(16, "big")


def decrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block: the inverse round functions composed
    in reverse order."""
    rk = ks.round_keys
    s = add_round_key(AesState.from_block(block), rk[10])
    for r in range(9, 0, -1):
        s = inv_mix_columns(add_round_key(inv_sub_bytes(inv_shift_rows(s)), rk[r]))
    return add_round_key(inv_sub_bytes(inv_shift_rows(s)), rk[0]).to_block()


def encrypt_blocks(data: bytes, ks: KeySchedule) -> bytes:
    """Encrypt N concatenated 16-byte blocks in lockstep.

    Equal to encrypt_block over each block in turn. The state is byte-sliced:
    slab j holds byte j of all N blocks, and each state row of four slabs is
    one 4N-byte big integer, so every step of a round is a handful of
    C-speed operations over all blocks at once:

    - AddRoundKey and SubBytes are one translate per slab through the
      _KEYED_SBOX table of that slab's round-key byte;
    - ShiftRows is the order in which the translated slabs are joined;
    - MixColumns XORs whole rows, so its column rotations are renamings.

    The last round key goes in through the same per-slab translate while
    the slabs are put back in block order. The tables are built from SBOX
    at import, so patching ``SBOX`` later does not reach this path.
    """
    size = len(data)
    if size % BLOCK_SIZE:
        raise ValueError(f"data must be whole 16-byte blocks, got {size} bytes")
    n = size // BLOCK_SIZE
    width = 4 * n  # bytes in one state row
    bit0 = int.from_bytes(b"\x01" * width, "big")
    low7 = bit0 * 0x7F
    # Per slab position: (row, start, end) of its ShiftRows source within the
    # row bytes, and the block byte that source holds.
    cuts = [(j & 3, (j >> 2) * n, (j >> 2) * n + n, j) for j in _GATHER]
    rows = [b"".join([data[i::16] for i in _SLAB_BYTE[4 * r : 4 * r + 4]]) for r in range(4)]
    keyed = _KEYED_SBOX
    rk = ks.round_keys
    for key in rk[:9]:
        t = [rows[r][lo:hi].translate(keyed[key[j]]) for r, lo, hi, j in cuts]
        a0, a1, a2, a3 = [int.from_bytes(b"".join(t[i : i + 4]), "big") for i in (0, 4, 8, 12)]
        # MixColumns, rows indexed mod 4: row r becomes
        # 2a[r] ^ 3a[r+1] ^ a[r+2] ^ a[r+3] = a[r+1] ^ v[r+2] ^ 2v[r] with
        # v[r] = a[r] ^ a[r+1]. Doubling each byte in GF(2^8) is linear, so
        # 2v[3] = 2v[0] ^ 2v[1] ^ 2v[2].
        v0, v1, v2, v3 = a0 ^ a1, a1 ^ a2, a2 ^ a3, a3 ^ a0
        d0, d1, d2 = [((v & low7) << 1) ^ ((v >> 7 & bit0) * 0x1B) for v in (v0, v1, v2)]
        mixed = (a1 ^ v2 ^ d0, a2 ^ v3 ^ d1, a3 ^ v0 ^ d2, a0 ^ v1 ^ d0 ^ d1 ^ d2)
        rows = [x.to_bytes(width, "big") for x in mixed]
    last, final = rk[9], rk[10]
    out = bytearray(size)
    for (r, lo, hi, j), i in zip(cuts, _SLAB_BYTE):
        out[i::16] = rows[r][lo:hi].translate(keyed[last[j]].translate(_XOR_TABLES[final[i]]))
    return bytes(out)


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


# Blocks per encrypt_blocks call. Over an 8192-block keystream the engine took
# 1.09, 0.85, 0.72, 0.64 and 0.62 us per block in chunks of 256, 512, 1024,
# 2048 and 4096 blocks, and 0.65 at 8192; 2048 is within 3% of the fastest at
# half its working set.
_CHUNK_BLOCKS = 2048


def ctr_keystream(ks: KeySchedule, nonce: bytes, spans: "list[tuple[int, int]]") -> bytes:
    """The keystreams of ``spans``, concatenated: span (nal_ordinal, nbytes) gets
    the first nbytes of E(nonce||ordinal||0) || E(nonce||ordinal||1) || ...
    Counter blocks are independent (NIST SP 800-38A, 6.5), so the counters of
    all spans are joined and encrypt_blocks takes them a _CHUNK_BLOCKS chunk
    at a time. One call holds all its counters, 16 bytes per keystream block:
    the commands keep that small by calling it once per group of about
    _CHUNK_BLOCKS blocks.
    An ordinal may appear once: two NALs on one keystream would leak their XOR.
    """
    if len({ordinal for ordinal, _ in spans}) < len(spans):
        raise ValueError("a repeated NAL ordinal would reuse its keystream")
    counters, cuts, start = [], [], 0
    for ordinal, nbytes in spans:
        if nbytes < 0:
            raise ValueError("nbytes must be nonnegative")
        if nbytes > MAX_KEYSTREAM_BYTES:
            raise CounterOverflow(f"{nbytes} bytes exceeds the 32-bit block counter")
        nblocks = -(-nbytes // BLOCK_SIZE)
        blocks = bytearray(CounterBlock(nonce, ordinal, 0).to_bytes() * nblocks)
        indices = struct.pack(f">{nblocks}I", *range(nblocks))
        for k in range(4):
            blocks[12 + k :: 16] = indices[k::4]
        counters.append(blocks)
        cuts.append((start, nbytes))
        start += BLOCK_SIZE * nblocks
    data, step = b"".join(counters), BLOCK_SIZE * _CHUNK_BLOCKS
    view = memoryview(b"".join([encrypt_blocks(data[i : i + step], ks) for i in range(0, start, step)]))
    return b"".join([view[s : s + n] for s, n in cuts])
