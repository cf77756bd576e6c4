"""Benchmark of selective vs naive encryption work, plus the self-check
suite that executes every cross-module invariant and reports failures
individually."""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import aes, pipeline
from .aes import KeySchedule, ctr_keystream, key_expansion, xor_bytes
from .bitstream import (
    VCL_TYPES,
    BitReader,
    BitWriter,
    NalUnit,
    SliceInfo,
    ebsp_to_rbsp,
    find_escape_violation,
    rbsp_to_ebsp,
    serialize_annexb,
    split_annexb,
)
from .errors import MalformedEscape, OutOfRange, WrongKey
from .pipeline import KeySource, derive_key, gen_test_stream
from .selective import (
    EncryptionPolicy, SelectionResult, check_cipherable, decrypt_stream, encrypt_stream, select,
)

_BENCH_NONCE = bytes(range(8))


@dataclass(frozen=True)
class BenchResult:
    """Byte counts, exact AES block counts and informative wall times for a
    selective pass versus a naive everything-encrypted pass."""

    total_bytes: int
    vcl_payload_bytes: int
    selective_encrypted_bytes: int
    naive_encrypted_bytes: int
    selective_fraction: float
    aes_blocks_selective: int
    aes_blocks_naive: int
    wall_time_selective: float
    wall_time_naive: float

    def to_dict(self) -> dict:
        return asdict(self)


def bench(nals: Sequence[NalUnit], ks: KeySchedule, policy: EncryptionPolicy) -> BenchResult:
    """Encrypt the same stream selectively and naively and account the work.

    The naive pass runs encrypt_stream with every NAL that has a header byte
    selected; check_cipherable first judges them as a cipher command would
    (bench writes no stream, so the write-back rule has no job here). Block
    counts are exact arithmetic; wall times are informative only.
    """
    everything = SelectionResult(policy, tuple(n.ordinal for n in nals if n.header is not None))
    check_cipherable(nals, everything.selected_ordinals)
    result = select(nals, policy)

    t0 = time.perf_counter()
    encrypt_stream(nals, ks, result, _BENCH_NONCE)
    wall_selective = time.perf_counter() - t0

    t0 = time.perf_counter()
    encrypt_stream(nals, ks, everything, _BENCH_NONCE)
    wall_naive = time.perf_counter() - t0

    total = sum(n.wire_size() for n in nals)
    selective = pipeline.summarize(nals, result, b"", total)
    naive = pipeline.summarize(nals, everything, b"", total)
    vcl = sum(
        n.rbsp_size for n in nals if n.header is not None and n.header.nal_unit_type in VCL_TYPES
    )
    return BenchResult(
        total_bytes=total,
        vcl_payload_bytes=vcl,
        selective_encrypted_bytes=selective.selected_bytes,
        naive_encrypted_bytes=naive.selected_bytes,
        selective_fraction=selective.selected_bytes / vcl if vcl else 0.0,
        aes_blocks_selective=selective.aes_blocks,
        aes_blocks_naive=naive.aes_blocks,
        wall_time_selective=wall_selective,
        wall_time_naive=wall_naive,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OracleReport:
    seed: int
    checks: "tuple[CheckResult, ...]"

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> "list[CheckResult]":
        return [c for c in self.checks if not c.passed]


# Frozen answers and straight-line references, shared with the tests.

# (key, plaintext, ciphertext): FIPS-197 C.1 and B, SP 800-38A F.1.1.
KNOWN_ANSWERS = (
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    ),
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "6bc1bee22e409f96e93d7e117393172a",
        "3ad77bb40d7a3660a89ecaf32466ef97",
    ),
)

# Key hex -> {word index: expanded word}: FIPS-197 A.1 and the all-zero key.
EXPANSION_ANCHORS = {
    "2b7e151628aed2a6abf7158809cf4f3c": {
        4: "a0fafe17", 5: "88542cb1", 6: "23a33939", 7: "2a6c7605",
        40: "d014f9a8", 41: "c9ee2589", 42: "e13f0cc8", 43: "b6630ca6",
    },
    "00000000000000000000000000000000": {4: "62636363", 5: "62636363"},
}

# (passphrase, iterations, key hex): computed once with kdf_oracle and
# frozen, so drift in the cipher or the padding rule shows up.
KDF_VECTORS = (
    ("a", 1, "5e032572a8bddda63df07808e7f3fbad"),
    ("a", 2, "2900a13c3341823438db2622ed48c704"),
    ("password", 1, "f1739600dc522bab751a35a4d5d5bc39"),
    ("open sesame", 3, "2a3a6506c47136680caf48d62960cde7"),
    ("sixteen byte msg", 2, "7de49d49f033dff947cedd01d80929d5"),
    ("päss", 4, "a0dc66e99c9756688fa9af08e82c9c9b"),
    # The byte 0xe9 alone is not UTF-8; Python hands it over from argv as a
    # lone surrogate, and the key is derived from the bytes typed.
    ("pa\udce9ss", 2, "4eae4812d0193fc9833533de02b8f35b"),
)

# Frozen the same way at realistic iteration counts; checked against
# derive_key only, since kdf_oracle re-expands every key per step.
LONG_KDF_VECTORS = (
    ("password", 10_000, "8e535f33124380ec7aafaa239073eb80"),
    ("bench passphrase deadbeef", 10_000, "585bc40380367cff28ad8a8c5990caa7"),
    ("a longer passphrase spanning three blocks, ü", 1000, "56a15daa8fa5b905b6c038fac93aced0"),
    ("correct horse battery staple", 10_000, "f08f1ce1d0d675c3df7e0470f102342a"),
)


def unrolled_encrypt(block: bytes, ks: KeySchedule) -> bytes:
    """Literal composition of the four transformations, round by round."""
    s = aes.add_round_key(aes.AesState.from_block(block), ks.round_keys[0])
    for r in range(1, 10):
        s = aes.sub_bytes(s)
        s = aes.shift_rows(s)
        s = aes.mix_columns(s)
        s = aes.add_round_key(s, ks.round_keys[r])
    s = aes.sub_bytes(s)
    s = aes.shift_rows(s)
    s = aes.add_round_key(s, ks.round_keys[10])
    return s.to_block()


def per_block_keystream(ks: KeySchedule, nonce: bytes, ordinal: int, nbytes: int) -> bytes:
    """Counter-mode keystream of one NAL, one encrypt_block call per block."""
    counters = (nonce + ordinal.to_bytes(4, "big") + j.to_bytes(4, "big") for j in range(-(-nbytes // 16)))
    return b"".join(aes.encrypt_block(c, ks) for c in counters)[:nbytes]


def bitreader_slice_info(rbsp: bytes) -> SliceInfo:
    """bitstream.parse_slice_info read bit by bit: two BitReader.read_ue
    calls, each range-checked as soon as it is read."""
    r = BitReader(rbsp)
    first_mb = r.read_ue()
    if first_mb >= 139_264:
        raise OutOfRange(f"first_mb_in_slice {first_mb} outside [0, 139263]")
    slice_type = r.read_ue()
    if slice_type > 9:
        raise OutOfRange(f"slice_type {slice_type} outside [0, 9]")
    return SliceInfo(first_mb, slice_type)


def kdf_oracle(passphrase: str, iterations: int) -> bytes:
    """Straight-line restatement of the key-stretching definition, kept
    independent of pipeline._kdf on purpose: each step runs unrolled_encrypt,
    so the oracle shares no lookup table with the cipher core _kdf calls."""
    message = passphrase.encode("utf-8", "surrogateescape") + b"\x80"
    while len(message) % 16 != 0:
        message += b"\x00"
    h = b"\x00" * 16
    for _ in range(iterations):
        for i in range(0, len(message), 16):
            block_key = message[i : i + 16]
            encrypted = unrolled_encrypt(h, key_expansion(block_key))
            h = bytes(x ^ y for x, y in zip(encrypted, h))
    return h


def _require(ok: bool, detail: str) -> None:
    """Fail the running check with ``detail`` unless ``ok``. Checks fail
    through this, not assert, so they still fail under python -O."""
    if not ok:
        raise AssertionError(detail)


def _require_refusal(error: "type[Exception]", call: Callable[[], object], detail: str) -> None:
    """Fail the running check with ``detail`` unless ``call()`` raises ``error``."""
    try:
        call()
    except error:
        return
    _require(False, detail)


def _check_cipher_known_answers(rng: random.Random) -> str:
    for key_hex, pt_hex, ct_hex in KNOWN_ANSWERS:
        ks = key_expansion(bytes.fromhex(key_hex))
        got = aes.encrypt_block(bytes.fromhex(pt_hex), ks)
        _require(got.hex() == ct_hex, f"encrypt({pt_hex}) -> {got.hex()}, want {ct_hex}")
        back = aes.decrypt_block(bytes.fromhex(ct_hex), ks)
        _require(back.hex() == pt_hex, f"decrypt({ct_hex}) -> {back.hex()}, want {pt_hex}")
    for key_hex, words in EXPANSION_ANCHORS.items():
        ks = key_expansion(bytes.fromhex(key_hex))
        for i, want in words.items():
            got = ks.words[i].hex()
            _require(got == want, f"{key_hex}: W[{i}] = {got}, want {want}")
    anchors = sum(map(len, EXPANSION_ANCHORS.values()))
    return f"{len(KNOWN_ANSWERS)} cipher vectors, {anchors} schedule anchors"


def _check_key_schedule_recurrences(rng: random.Random) -> str:
    trials = 1_000
    for _ in range(trials):
        key = rng.randbytes(16)
        ks = key_expansion(key)
        _require(b"".join(ks.words[:4]) == key, f"W[0..3] are not the key {key.hex()}")
        for i in range(4, 44):
            if i % 4 == 0:
                t = aes._t_transform(ks.words[i - 1], aes.ROUND_CONSTANTS[i // 4 - 1])
                want = bytes(a ^ b for a, b in zip(t, ks.words[i - 4]))
            else:
                want = bytes(a ^ b for a, b in zip(ks.words[i - 1], ks.words[i - 4]))
            _require(ks.words[i] == want, f"W[{i}] recurrence broken for key {key.hex()}")
    return f"{trials} random keys, all 44 words"


def _check_cipher_round_trip(rng: random.Random) -> str:
    trials = 2_000
    plain_of = {}
    for t in range(trials):
        if t % 200 == 0:
            ks = key_expansion(rng.randbytes(16))
            plain_of.clear()
        block = rng.randbytes(16)
        ct = aes.encrypt_block(block, ks)
        _require(aes.decrypt_block(ct, ks) == block, f"decrypt(encrypt({block.hex()})) differs")
        _require(plain_of.setdefault(ct, block) == block, "two plaintexts share a ciphertext")
    return f"{trials} random round trips, no ciphertext collisions"


def _check_cipher_composition(rng: random.Random) -> str:
    trials = 10_000
    for t in range(trials):
        if t % 500 == 0:
            ks = key_expansion(rng.randbytes(16))
        block = rng.randbytes(16)
        _require(
            aes.encrypt_block(block, ks) == unrolled_encrypt(block, ks),
            f"fast path diverges from unrolled rounds on block {block.hex()}",
        )
    return f"{trials} (key, block) pairs agree with the unrolled rounds"


def _check_ctr_keystream(rng: random.Random) -> str:
    ks = key_expansion(rng.randbytes(16))
    nonce = rng.randbytes(8)
    first = ctr_keystream(ks, nonce, [(7, 16)])
    _require(
        first == aes.encrypt_block(nonce + (7).to_bytes(4, "big") + (0).to_bytes(4, "big"), ks),
        "one-block keystream is not the encrypted counter",
    )
    long = ctr_keystream(ks, nonce, [(7, 40)])
    _require(long[:16] == first and len(long) == 40, "40-byte keystream does not extend block 0")
    # Several NALs in one pass, one of them past an engine chunk, so a chunk
    # holds the end of one NAL's keystream blocks and the start of the next.
    spans = [(7, 40), (9, 0), (3, 16 * aes._CHUNK_BLOCKS + 5), (2**32 - 1, 17)]
    joined = b"".join(per_block_keystream(ks, nonce, o, n) for o, n in spans)
    _require(ctr_keystream(ks, nonce, spans) == joined, "multi-NAL keystream diverges")
    _require(
        ctr_keystream(ks, nonce, []) == ctr_keystream(ks, nonce, [(7, 0)]) == b"",
        "an empty keystream request returned bytes",
    )
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 200))
        mask = ctr_keystream(ks, nonce, [(3, len(data))])
        _require(xor_bytes(xor_bytes(data, mask), mask) == data, f"XOR twice changed {data.hex()}")
    return "counter layout, agreement with encrypt_block for one and several NALs, XOR symmetry"


def _check_escaping_round_trip(rng: random.Random) -> str:
    trials = 400
    alphabet = bytes([0, 0, 0, 1, 2, 3, 0x80, 0xFF])
    for _ in range(trials):
        n = rng.randrange(0, 64)
        rbsp = bytes(rng.choice(alphabet) for _ in range(n))
        ebsp = rbsp_to_ebsp(rbsp)
        _require(find_escape_violation(ebsp) == -1, f"violation left in {ebsp.hex()}")
        _require(ebsp_to_rbsp(ebsp) == rbsp, f"round trip broke on {rbsp.hex()}")
    for bad in (b"\x00\x00\x00", b"\x00\x00\x01", b"\xaa\x00\x00\x02", b"\x00\x00\x03\x04"):
        _require_refusal(MalformedEscape, lambda: ebsp_to_rbsp(bad),
                         f"{bad.hex()} accepted as escaped payload")
    return f"{trials} zero-heavy payloads plus rejection cases"


def _check_exp_golomb_exhaustive(rng: random.Random) -> str:
    for n in range(65536):
        w = BitWriter()
        w.write_ue(n)
        want_bits = 2 * ((n + 1).bit_length() - 1) + 1
        _require(w.bit_length == want_bits, f"ue({n}) used {w.bit_length} bits")
        r = BitReader(w.to_bytes())
        _require(r.read_ue() == n, f"ue round trip broke at {n}")
        _require(r.position == want_bits, f"ue({n}) consumed {r.position} bits")
    return "values 0..65535, value and bit-count exact"


def _check_annexb_round_trip(rng: random.Random) -> str:
    trials = 200
    for _ in range(trials):
        data = gen_test_stream(
            None,
            gop=rng.randrange(1, 9),
            frames=rng.randrange(1, 13),
            payload_size=rng.randrange(8, 97),
            seed=rng.randrange(1 << 30),
        )
        leading, nals = split_annexb(data)
        _require(leading == b"" and serialize_annexb(nals) == data, "stream does not re-serialize")
        _require([n.ordinal for n in nals] == list(range(len(nals))), "ordinals are not 0..n-1")
    return f"{trials} generated streams re-serialize byte-exactly"


def _check_stream_compliance(rng: random.Random) -> str:
    ks = key_expansion(rng.randbytes(16))
    streams = 0
    for policy in EncryptionPolicy:
        for gop, frames in ((1, 6), (4, 13), (12, 30)):
            data = gen_test_stream(None, gop=gop, frames=frames, payload_size=128,
                                   seed=rng.randrange(1 << 30))
            nals = split_annexb(data)[1]
            nonce = rng.randbytes(8)
            selection = select(nals, policy)
            enc_nals, header = encrypt_stream(nals, ks, selection, nonce)
            for n in enc_nals:
                _require(find_escape_violation(n.ebsp) == -1, f"NAL {n.ordinal} escaping violated")
            enc_data = serialize_annexb(enc_nals)
            rescan = split_annexb(enc_data)[1]
            _require(len(rescan) == len(nals), "encryption changed the NAL count")
            for a, b in zip(nals, rescan):
                layout = (a.ordinal, a.start_code_len, a.header)
                _require(layout == (b.ordinal, b.start_code_len, b.header),
                         f"NAL {a.ordinal} layout changed after encryption")
            dec = decrypt_stream(rescan, ks, header)
            for n in dec:
                _require(find_escape_violation(n.ebsp) == -1, f"NAL {n.ordinal} decrypt escaping")
            _require(serialize_annexb(dec) == data, "decryption did not restore the stream")
            streams += 1
    return f"{streams} encrypted streams keep NAL layout and decrypt byte-exactly"


def _check_selectivity_arithmetic(rng: random.Random) -> str:
    data = gen_test_stream(None, gop=12, frames=60, payload_size=256, seed=7)
    nals = split_annexb(data)[1]
    ks = key_expansion(rng.randbytes(16))
    res = bench(nals, ks, EncryptionPolicy.IDR_ONLY)
    sel = res.selective_encrypted_bytes
    _require(sel == 5 * 256, f"selective bytes {sel}")
    _require(res.vcl_payload_bytes == 60 * 256, f"VCL payload bytes {res.vcl_payload_bytes}")
    _require(abs(res.selective_fraction - 5 / 60) < 1e-12, f"fraction {res.selective_fraction}")
    # 256-byte payloads are 16 blocks each.
    _require(res.aes_blocks_selective == 5 * 16, f"selective blocks {res.aes_blocks_selective}")
    _require(sel <= res.naive_encrypted_bytes, "selective pass ciphered more than naive")
    sizes = [len(ebsp_to_rbsp(n.ebsp)) for n in nals]
    naive = res.aes_blocks_naive
    _require(naive == sum(-(-s // 16) for s in sizes), f"naive blocks {naive}")
    return "5/60 fraction and exact block counts on the 60-frame stream"


def _check_end_to_end_files(rng: random.Random) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        plain = tmp / "plain.264"
        enc = tmp / "enc.264"
        meta = tmp / "enc.seh"
        out = tmp / "round.264"
        gen_test_stream(plain, gop=4, frames=12, payload_size=96, seed=11)
        key = KeySource.from_passphrase("open sesame", iterations=3)
        pipeline.cmd_encrypt(plain, enc, meta, key, EncryptionPolicy.ALL_INTRA,
                             nonce=rng.randbytes(8))
        pipeline.cmd_decrypt(enc, meta, out, key)
        _require(out.read_bytes() == plain.read_bytes(), "file round trip not byte-identical")
        wrong = KeySource.from_passphrase("wrong", iterations=3)
        _require_refusal(WrongKey, lambda: pipeline.cmd_decrypt(enc, meta, out, wrong),
                         "wrong passphrase was accepted")
    return "encrypt/decrypt file round trip and wrong-key rejection"


def _check_kdf_oracle(rng: random.Random) -> str:
    for phrase, iters, frozen in KDF_VECTORS:
        got = derive_key(KeySource.from_passphrase(phrase, iterations=iters)).hex()
        want = kdf_oracle(phrase, iters).hex()
        detail = f"KDF({phrase!r}, {iters}) = {got}, oracle {want}, frozen {frozen}"
        _require(got == want == frozen, detail)
    a = derive_key(KeySource.from_passphrase("a", iterations=1))
    b = derive_key(KeySource.from_passphrase("a", iterations=2))
    _require(a != b, "iteration count has no effect")
    return f"{len(KDF_VECTORS)} passphrase vectors match the oracle and their frozen outputs"


_CHECKS: "tuple[tuple[str, Callable[[random.Random], str]], ...]" = (
    ("cipher_known_answers", _check_cipher_known_answers),
    ("key_schedule_recurrences", _check_key_schedule_recurrences),
    ("cipher_round_trip", _check_cipher_round_trip),
    ("cipher_composition", _check_cipher_composition),
    ("ctr_keystream", _check_ctr_keystream),
    ("escaping_round_trip", _check_escaping_round_trip),
    ("exp_golomb_exhaustive", _check_exp_golomb_exhaustive),
    ("annexb_round_trip", _check_annexb_round_trip),
    ("stream_compliance", _check_stream_compliance),
    ("selectivity_arithmetic", _check_selectivity_arithmetic),
    ("end_to_end_files", _check_end_to_end_files),
    ("kdf_oracle", _check_kdf_oracle),
)


def oracle_suite(seed: int = 0) -> OracleReport:
    """Run every cross-module invariant check; failures are data, not errors.

    Each check draws from its own RNG seeded off ``seed`` so one check's
    draw count never shifts another's inputs.
    """
    master = random.Random(seed)
    results = []
    for name, fn in _CHECKS:
        check_rng = random.Random(master.randrange(1 << 62))
        try:
            detail = fn(check_rng)
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - failures are reported, not raised
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return OracleReport(seed, tuple(results))
