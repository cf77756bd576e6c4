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
- _rounds runs N blocks in lockstep, byte-sliced: slab j holds byte j of
  every block, and each state row of four slabs is one big integer.
  AddRoundKey and SubBytes are one ``bytes.translate`` per slab through an
  import-time table of SBOX[x ^ k] for that slab's round-key byte k,
  ShiftRows is the order in which the slabs are joined into rows, and
  MixColumns XORs whole rows. This is the byte-level variant of bitsliced
  AES (Kasper & Schwabe, CHES 2009). It is the one batched round loop, and
  the counter-mode keystream (ctr_keystream) is its one caller. It enters
  the loop at round 3 and builds no counter block: its counters differ only
  in the last two bytes, so the first two rounds are computed once per run
  of 256 blocks from byte tables (counter-mode caching, Bernstein &
  Schwabe, INDOCRYPT 2008). One call holds the round-3 slabs of all its
  spans, so the cipher pass calls it once per piece of about one chunk.

What depends only on the key is built once per key: key_expansion keeps the
loop's per-round slab tables and the keystream's column_x tables on the
KeySchedule, and the engine only reads them.

CTR's block calls are independent (NIST SP 800-38A, section 6.5), and so
are the NALs of a stream, so the cipher pass runs on two cores. It cuts the
listed payloads into pieces of about one _CHUNK_BLOCKS chunk
(selective._pieces) and offers one piece at a time to a helper, a child
interpreter (_serve_helper), through _cipher_off, while the caller ciphers
the next piece. The helper is sent the key, the nonce and each entry's
ordinal, first block and RBSP, and runs the keystream, the XOR and the
re-escape of the whole piece (_ciphered_here); it expands each new key
itself. Each process id has one helper, started by the first offer of a
pass of two or more pieces and never waited for: until its ready byte has
come, and whenever another thread holds it, pieces are ciphered by the
caller. The same helper also judges payloads for
bitstream.classify_stream: _judge_off sends it the back half of the
payloads to judge, and it replies with each one's escape verdict and
00 00 03 count, from its own import of selenc.bitstream. That offer never
starts a helper, so a process that only inspects stays serial. If the
helper cannot start or fails an exchange it is killed, the work runs
locally, and the process stays serial; the results are the same in every
case. The helper exits at the end of its stdin, and an atexit hook of the
process that started it kills and reaps it.

Not constant-time, and not meant to protect real secrets: the table lookups
in _encrypt_int are indexed by secret-dependent bytes, _rounds picks one of
256 S-box tables per slab by round-key byte, and ctr_keystream's first two
rounds look up tables by counter bytes XORed with key bytes, so the cache
footprint of all three leaks key material to a co-resident observer. The
key the helper is sent, and the clear payloads it ciphers or judges, cross
an anonymous pipe to a child of the same user.
"""

from __future__ import annotations

import _thread
import os
import sys
from dataclasses import dataclass, field

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


# Byte-sliced tables for _rounds. _XOR_TABLES[k] maps x to x ^ k and
# _KEYED_SBOX[k] maps x to SBOX[x ^ k], so one ``bytes.translate`` adds a
# round-key byte and substitutes. About 130 KB; whole-table XORs build them
# in under a millisecond at import, where a per-entry loop took 5 ms.
_BYTE_VALUES = int.from_bytes(bytes(range(256)), "big")
_XOR_TABLES = tuple(
    (_BYTE_VALUES ^ int.from_bytes(bytes((k,)) * 256, "big")).to_bytes(256, "big")
    for k in range(256)
)
_KEYED_SBOX = tuple(t.translate(SBOX) for t in _XOR_TABLES)

# MixColumns multiplies the byte in row b of a column by _MIX_ROW[(b - r) % 4]
# on its way to row r. ctr_keystream follows counter byte 15 through its first
# two rounds with it: round 1 moves byte 15, in row 3, to column 0, and round
# 2's ShiftRows moves row b of column 0 to column -b % 4. Entry j of
# _ROUND2_FROM_COLUMN0 is (b, (b - r) % 4) for the row b of column 0 that
# reaches block byte j, in row r = j & 3.
_MIX_ROW = (_MUL2, _MUL3, _MUL1, _MUL1)
_ROUND2_FROM_COLUMN0 = tuple((-(j >> 2) % 4, (-(j >> 2) - (j & 3)) % 4) for j in range(16))

# _rounds keeps the state of N blocks as 16 slabs: the slab at
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
    the form _encrypt_int XORs into its state. The keystream engine's
    per-key tables are built here once, from the round keys and
    import-time tables, and left out of repr and equality:

    - ``slab_tables``: per round from round 4's SubBytes on, the table each
      _rounds slab position is translated through, the last one composed
      with the final round key;
    - ``column_x``: ctr_keystream's round-1 term of counter byte 15, one
      256-byte table per row of column 0.
    """

    words: "tuple[bytes, ...]"
    round_keys: "tuple[bytes, ...]"
    round_key_ints: "tuple[int, ...]"
    slab_tables: "tuple[tuple[bytes, ...], ...]" = field(repr=False, compare=False)
    column_x: "tuple[bytes, ...]" = field(repr=False, compare=False)


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
    # The tables' tuples are made from lists: tuples grown from generators
    # raised peak RSS by about 0.5 MB over 3,000 expansions (CPython 3.11).
    keyed, last, final = _KEYED_SBOX, round_keys[9], round_keys[10]
    slab_tables = [tuple([keyed[rk[j]] for j in _GATHER]) for rk in round_keys[3:9]]
    slab_tables.append(
        tuple([keyed[last[j]].translate(_XOR_TABLES[final[i]]) for j, i in zip(_GATHER, _SLAB_BYTE)])
    )
    column_x = tuple([keyed[round_keys[0][15]].translate(_MIX_ROW[(3 - b) % 4]) for b in range(4)])
    return KeySchedule(tuple(words), round_keys, round_key_ints, tuple(slab_tables), column_x)


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


def _rounds(slabs: "list[bytes]", ks: KeySchedule) -> bytes:
    """Finish encrypting N blocks whose state has been through round 3's
    SubBytes: slab j holds byte j of all N blocks. Returns the N ciphertext
    blocks concatenated.

    Each state row of four slabs is one 4N-byte big integer, so every step
    of a round is a handful of C-speed operations over all blocks at once:

    - AddRoundKey and SubBytes are one translate per slab through the
      _KEYED_SBOX table of that slab's round-key byte;
    - ShiftRows is the order in which the translated slabs are joined;
    - MixColumns XORs whole rows, so its column rotations are renamings.

    The final round's SubBytes and last round key are one translate per slab
    too, through the _KEYED_SBOX table composed with an _XOR_TABLES one.
    Every table comes from ks.slab_tables, built once per key.
    """
    n = len(slabs[0])
    width = 4 * n  # bytes in one state row
    bit0 = int.from_bytes(b"\x01" * width, "big")
    low7 = bit0 * 0x7F
    # Per slab position: (row, start, end) of its ShiftRows source within the
    # row bytes.
    cuts = [(j & 3, (j >> 2) * n, (j >> 2) * n + n) for j in _GATHER]
    t = [slabs[j] for j in _GATHER]
    for round_tables in ks.slab_tables:
        a0, a1, a2, a3 = [int.from_bytes(b"".join(t[i : i + 4]), "big") for i in (0, 4, 8, 12)]
        # MixColumns, rows indexed mod 4: row r becomes
        # 2a[r] ^ 3a[r+1] ^ a[r+2] ^ a[r+3] = a[r+1] ^ v[r+2] ^ 2v[r] with
        # v[r] = a[r] ^ a[r+1]. Doubling each byte in GF(2^8) is linear, so
        # 2v[3] = 2v[0] ^ 2v[1] ^ 2v[2].
        v0, v1, v2, v3 = a0 ^ a1, a1 ^ a2, a2 ^ a3, a3 ^ a0
        d0, d1, d2 = [((v & low7) << 1) ^ ((v >> 7 & bit0) * 0x1B) for v in (v0, v1, v2)]
        mixed = (a1 ^ v2 ^ d0, a2 ^ v3 ^ d1, a3 ^ v0 ^ d2, a0 ^ v1 ^ d0 ^ d1 ^ d2)
        rows = [x.to_bytes(width, "big") for x in mixed]
        t = [rows[r][lo:hi].translate(table) for (r, lo, hi), table in zip(cuts, round_tables)]
    out = bytearray(BLOCK_SIZE * n)
    for slab, i in zip(t, _SLAB_BYTE):
        out[i::16] = slab
    return bytes(out)


MAX_KEYSTREAM_BYTES = (1 << 32) * BLOCK_SIZE


# Blocks per _rounds call in ctr_keystream. Over an 8192-block keystream the
# engine took 1.09, 0.85, 0.72, 0.64 and 0.62 us per block in chunks of 256,
# 512, 1024, 2048 and 4096 blocks, and 0.65 at 8192; 2048 is within 3% of the
# fastest at half its working set. It is also the size of a piece of the
# cipher pass (selective._pieces), so a piece is one _rounds call.
_CHUNK_BLOCKS = 2048

# The helper protocol. Every request opens with a 20-byte head: its kind
# (u32), its entry count m and its body's size (u64 each), then the body.
# Every reply is its body's length as a big-endian u32, then the body.
# - Cipher: the body is the 16-byte key, the 8-byte nonce, m entries of
#   ordinal, RBSP size and first block (u32 each), then the m RBSPs; the
#   reply body is each RBSP XORed with its keystream and re-escaped: the m
#   escaped sizes (u32 each), then the escaped bytes.
# - Judge: the body is m payload sizes (u32 each), then the payloads; the
#   reply body is one line per payload, its 00 00 03 count, a space and its
#   escape verdict text, empty when clean.
_JUDGE, _CIPHER = 0, 1
_READY = b"R"
_HELPER_ERRORS = (OSError, ValueError, EOFError)


def _serve_helper() -> None:
    """The helper's loop, run in the child process: write the ready byte,
    then answer each request on stdin until stdin reaches its end. A cipher
    request gets _ciphered_here: the child expands each new key with its own
    import of this module and keeps the schedule while the key repeats, so a
    patch of the parent's module (of SBOX or of _rounds) never reaches it. A
    judge request gets _judged_here. The whole request is read before any
    work, so the parent's write never waits on it."""
    read, out = sys.stdin.buffer.read, sys.stdout.buffer
    out.write(_READY)
    out.flush()
    ks = None
    while len(head := read(20)) == 20:
        kind, m, size = (int.from_bytes(head[i:j], "big") for i, j in ((0, 4), (4, 12), (12, 20)))
        if len(body := read(size)) != size:
            return
        if kind == _CIPHER:
            if ks is None or ks.round_keys[0] != body[:16]:
                ks = key_expansion(body[:16])
            reply = _ciphered_here(body, m, ks)
        else:
            reply = _judged_here(body, m)
        out.write(len(reply).to_bytes(4, "big") + reply)
        out.flush()


def _ciphered_here(body: bytes, m: int, ks: KeySchedule) -> bytes:
    """The reply to a cipher request of m entries: one ctr_keystream call
    for the whole piece, one XOR over its joined RBSPs, then each entry
    re-escaped on its own by the child's own import of selenc.bitstream,
    made on its first cipher request."""
    from .bitstream import rbsp_to_ebsp

    table = 24 + 12 * m
    spans = [
        tuple(int.from_bytes(body[j : j + 4], "big") for j in (i, i + 4, i + 8)) for i in range(24, table, 12)
    ]
    rbsps = body[table:]
    ciphered = xor_bytes(rbsps, ctr_keystream(ks, body[16:24], spans))
    parts, pos = [], 0
    for _, nbytes, _ in spans:
        parts.append(rbsp_to_ebsp(ciphered[pos : pos + nbytes]))
        pos += nbytes
    return b"".join([len(p).to_bytes(4, "big") for p in parts] + parts)


def _judged_here(body: bytes, m: int) -> bytes:
    """The reply to a judge request of m payloads: the same escape verdict
    and 00 00 03 count code that classify_stream runs, from the child's own
    import of selenc.bitstream, made on its first judge request."""
    from .bitstream import _escapes, _violation

    lines, pos = [], 4 * m
    for i in range(0, 4 * m, 4):
        end = pos + int.from_bytes(body[i : i + 4], "big")
        payload, pos = body[pos:end], end
        lines.append(f"{_escapes(payload)} {_violation(payload) or ''}")
    return "\n".join(lines).encode()


class _Helper:
    """One process's helper: a child interpreter that runs _serve_helper
    over two pipes. Every method but stop is called with ``lock`` held,
    which callers take without blocking, from a request's send to its
    reply. Each step of an exchange runs in ``with self``: any exception in
    it, an interruption included, could leave a frame half written or half
    read, so it drops the child for good, and only _HELPER_ERRORS are not
    re-raised."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.lock = _thread.allocate_lock()
        self.proc = None
        self.booted = False
        self.failed = False

    def __enter__(self) -> "_Helper":
        return self

    def __exit__(self, kind, exc, traceback) -> bool:
        if exc is not None:
            self.failed = True
            self.stop()
        return isinstance(exc, _HELPER_ERRORS)

    def ready(self, timeout: float) -> bool:
        """Start the child if need be, without waiting for it to boot, and
        say whether its ready byte has come within ``timeout`` s."""
        with self:
            if not (self.failed or self.booted):
                if self.proc is None:
                    self._start()
                if self.select([self.proc.stdout], [], [], timeout)[0]:
                    if self.proc.stdout.read(1) != _READY:
                        raise EOFError("the keystream helper exited before it was ready")
                    self.booted = True
        return self.booted and not self.failed

    def _start(self) -> None:
        # The child imports only selenc.aes and selenc.errors, from this
        # package's directory, and selenc.bitstream on its first request.
        # The marker on the first line of its -c text names it in a process
        # list, where tests and CI look for it; it keeps the keystream's
        # name although the child ciphers and judges whole payloads.
        import atexit
        import select
        import subprocess

        if not sys.executable:
            raise OSError("no interpreter to run the keystream helper")
        code = (
            "# selenc keystream helper\n"
            "import sys, types\n"
            "package = types.ModuleType('selenc')\n"
            f"package.__path__ = [{os.path.dirname(os.path.abspath(__file__))!r}]\n"
            "sys.modules['selenc'] = package\n"
            "from selenc.aes import _serve_helper\n"
            "_serve_helper()\n"
        )
        flags = ["-I", "-S"] + ["-B"] * sys.flags.dont_write_bytecode
        self.select = select.select
        self.proc = subprocess.Popen(
            [sys.executable, *flags, "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        atexit.register(self.stop)

    def send(self, parts: "list[bytes | memoryview]") -> bool:
        """Send one request, its parts in order and unjoined; whether it
        was sent."""
        with self:
            write = self.proc.stdin.write
            for part in parts:
                write(part)
            self.proc.stdin.flush()
        return not self.failed

    def receive(self, unpack, limit: "int | None" = None):
        """Read the reply to the request just sent and return unpack of its
        body, or None if the child failed; release ``lock``. A body longer
        than ``limit`` bytes is refused before it is read; unpack raises
        EOFError on a body out of frame."""
        try:
            with self:
                head = self.proc.stdout.read(4)
                n = int.from_bytes(head, "big")
                if len(head) == 4 and (limit is None or n <= limit):
                    body = self.proc.stdout.read(n)
                    if len(body) == n:
                        return unpack(body)
                raise EOFError("the helper's reply is out of frame or short")
        finally:
            self.lock.release()
        return None

    def stop(self) -> None:
        """Kill and reap the child, from the process that started it only."""
        if self.proc is not None and os.getpid() == self.pid:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            try:
                self.proc.stdin.close()
            except OSError:  # a request that never reached the child
                pass


# The keystream helper of each process id; a forked child starts its own.
_helpers: "dict[int, _Helper]" = {}


def _helper() -> _Helper:
    pid = os.getpid()
    return _helpers.get(pid) or _helpers.setdefault(pid, _Helper())


def _offer(helper: _Helper, parts: "list[bytes | memoryview]", unpack, limit: "int | None" = None):
    """Send one request to ``helper`` unless it declines: while another
    thread holds it, while it boots (an offer to a helper whose child has
    not been started starts it), and for good once it has failed. Returns
    None if it declines; otherwise a function that returns unpack of the
    reply, or None if the helper failed on it. The caller must call it."""
    if not helper.lock.acquire(blocking=False):
        return None
    sent = False
    try:
        sent = helper.ready(0) and helper.send(parts)
    finally:
        if not sent:
            helper.lock.release()
    return (lambda: helper.receive(unpack, limit)) if sent else None


def _head(kind: int, m: int, size: int) -> bytes:
    return kind.to_bytes(4, "big") + m.to_bytes(8, "big") + size.to_bytes(8, "big")


def _cipher_off(ks: KeySchedule, nonce: bytes, piece: "list[tuple[int, int, bytes]]"):
    """Offer one piece of the cipher pass, its (ordinal, first block, RBSP)
    entries, to this process's helper, starting it on the first offer.
    Returns None if it declines: the caller ciphers the piece itself.
    Otherwise the result is a function that returns each entry's RBSP XORed
    with its keystream from that block on and re-escaped, in order, or None
    if the helper failed on it (see _offer)."""
    m, rbsps = len(piece), [rbsp for _, _, rbsp in piece]
    entries = b"".join([b"".join(v.to_bytes(4, "big") for v in (o, len(r), first)) for o, first, r in piece])
    size = sum(map(len, rbsps))
    # Escaping adds at most one byte per two.
    limit = 4 * m + size + size // 2 + m
    parts = [_head(_CIPHER, m, 24 + 12 * m + size), ks.round_keys[0], nonce, entries, *rbsps]
    return _offer(_helper(), parts, lambda body: _unpack_ciphered(body, m), limit)


def _unpack_ciphered(body: bytes, m: int) -> "list[bytes]":
    sizes = [int.from_bytes(body[i : i + 4], "big") for i in range(0, 4 * m, 4)]
    if 4 * m + sum(sizes) != len(body):
        raise EOFError("the helper's cipher reply is out of frame")
    parts, pos = [], 4 * m
    for n in sizes:
        parts.append(body[pos : pos + n])
        pos += n
    return parts


def _judge_off(payloads: "list[bytes | memoryview]"):
    """Offer payloads that follow a non-zero header byte to this process's
    helper to judge, only if the helper is already ready: this never starts
    one, so a process that only inspects stays serial. Returns None if it
    declines; otherwise a function that returns each payload's (escape
    verdict, 00 00 03 count), in order, or None if the helper failed."""
    helper = _helpers.get(os.getpid())
    if helper is None or helper.proc is None:
        return None
    m = len(payloads)
    sizes = b"".join([len(p).to_bytes(4, "big") for p in payloads])
    head = _head(_JUDGE, m, len(sizes) + sum(map(len, payloads)))
    return _offer(helper, [head, sizes, *payloads], lambda body: _unpack_judged(body, m))


def _unpack_judged(body: bytes, m: int) -> "list[tuple[str | None, int]]":
    lines = body.decode().split("\n")
    if len(lines) != m:
        raise EOFError("the helper's judge reply is out of frame")
    return [(verdict or None, int(count)) for count, _, verdict in (line.partition(" ") for line in lines)]


def _helper_ready(timeout: float) -> bool:
    """Start this process's helper if need be and wait up to ``timeout`` s
    for it to be ready. For tests: the cipher pass never waits."""
    helper = _helper()
    with helper.lock:
        return helper.ready(timeout)


def ctr_keystream(ks: KeySchedule, nonce: bytes, spans: "list[tuple[int, ...]]") -> bytes:
    """The keystreams of ``spans``, concatenated: span (nal_ordinal, nbytes)
    gets the first nbytes of E(nonce||ordinal||0) || E(nonce||ordinal||1) ||
    ..., each counter the 8-byte nonce, then the ordinal and the block index
    as big-endian 32-bit integers, and span (nal_ordinal, nbytes, first) the
    nbytes from block ``first`` on. Structural uniqueness: within one stream
    and nonce every (ordinal, index) pair names a distinct counter, so an
    ordinal may appear once: two NALs on one keystream would leak their XOR.

    No counter block is built. Within a span, counter bytes 0-13 stay fixed
    for 65,536 blocks, byte 14 (t) steps every 256 blocks and byte 15 (x)
    takes every value, so the first two rounds are computed once per run
    rather than once per block (counter-mode caching, Bernstein & Schwabe,
    INDOCRYPT 2008). With T = _ROUND_TABLES and k = the first round key,
    round 1 gives R ^ T15[x ^ k15] ^ T14[t ^ k14], where R holds the terms
    of bytes 0-13 and round 1's key; T15 fills column 0 only and T14 column
    1 only. ShiftRows sends each column-0 byte of that to a different column
    in round 2, so round 3's input byte j is P_j[x] ^ D_j(t):

    - P_j, a 256-byte table per run of 65,536 blocks, is what row
      -(j >> 2) % 4 of column 0 adds to byte j through round 2;
    - D(t), once per 256 blocks, is the third round key XORed with round 2
      over the other twelve bytes, the column-1 ones holding t's terms.

    A run of up to 256 blocks, x from x0 to x1 - 1, then enters round 3's
    SubBytes as one translate per slab, P_j[x0:x1] through
    _KEYED_SBOX[D_j(t)], and _rounds, resolved through the module, takes
    the slabs of all spans in block order a _CHUNK_BLOCKS chunk at a time.
    The tables that depend only on the key come from ks. The slabs hold 16
    bytes per keystream block: the cipher pass keeps that small by calling
    this once per piece of about one chunk.

    Not constant-time: besides the engine's own lookups, the tables that
    build R, P and D are indexed by counter bytes XORed with key bytes.
    """
    if len(nonce) != 8:
        raise ValueError("nonce must be 8 bytes")
    if len({span[0] for span in spans}) < len(spans):
        raise ValueError("a repeated NAL ordinal would reuse its keystream")
    spans = [(ordinal, nbytes, first[0] if first else 0) for ordinal, nbytes, *first in spans]
    for ordinal, nbytes, first in spans:
        if nbytes < 0 or first < 0:
            raise ValueError("nbytes must be nonnegative" if nbytes < 0 else "first block must be nonnegative")
        if BLOCK_SIZE * first + nbytes > MAX_KEYSTREAM_BYTES:
            raise CounterOverflow(f"{nbytes} bytes from block {first} exceed the 32-bit block counter")
        if not 0 <= ordinal < 1 << 32:
            raise ValueError("nal_ordinal must fit in 32 bits")
    tables, k, rk = _ROUND_TABLES, ks.round_keys[0], ks.round_key_ints
    t14, t4, t5, t6, t7 = tables[14], *tables[4:8]
    # Round 1 up to its round key, from the nonce (bytes 0-7); x's term is
    # rows 0-3 of column 0, each a table over x in ks.column_x.
    base = rk[1]
    for i, c in enumerate(nonce):
        base ^= tables[i][c ^ k[i]]
    segments, cuts, start = [], [], 0
    for ordinal, nbytes, first in spans:
        end = first + -(-nbytes // BLOCK_SIZE)
        for high in range(first >> 16 << 16, end, 1 << 16):
            # Blocks high to high + 65,535, whose bytes 0-13 do not step;
            # the span takes those from high + lo to high + hi - 1.
            lo, hi = max(first - high, 0), min(end - high, 1 << 16)
            r = base
            for i, c in enumerate((ordinal << 16 | high >> 16).to_bytes(6, "big"), 8):
                r ^= tables[i][c ^ k[i]]
            rb = r.to_bytes(16, "big")
            # P: row b of column 0 through round 2's SubBytes, then times
            # each _MIX_ROW factor (2, 3, 1, 1) for MixColumns.
            sub = [x.translate(_KEYED_SBOX[rb[b]]) for b, x in enumerate(ks.column_x)]
            mixed = [(v.translate(_MUL2), v.translate(_MUL3), v, v) for v in sub]
            p = [mixed[b][m] for b, m in _ROUND2_FROM_COLUMN0]
            # D(t) less the column-1 terms, which t changes.
            fixed = rk[2]
            for i in range(8, 16):
                fixed ^= tables[i][rb[i]]
            for t in range(lo >> 8, -(-hi // 256)):
                s1 = (r ^ t14[t ^ k[14]]).to_bytes(16, "big")
                d = (fixed ^ t4[s1[4]] ^ t5[s1[5]] ^ t6[s1[6]] ^ t7[s1[7]]).to_bytes(16, "big")
                x0, x1 = max(lo - 256 * t, 0), min(hi - 256 * t, 256)
                segments.append([pj[x0:x1].translate(_KEYED_SBOX[dj]) for pj, dj in zip(p, d)])
        cuts.append((BLOCK_SIZE * start, nbytes))
        start += end - first
    slabs = [b"".join(slab) for slab in zip(*segments)]
    chunks = [_rounds([slab[i : i + _CHUNK_BLOCKS] for slab in slabs], ks) for i in range(0, start, _CHUNK_BLOCKS)]
    view = memoryview(b"".join(chunks))
    return b"".join([view[s : s + n] for s, n in cuts])
