"""Selective encryption for H.264/AVC Annex B streams.

Parses streams at the NAL-unit level, encrypts only the key-frame (IDR, or
all intra-slice) payloads with a from-scratch AES-128 in counter mode, and
restores them byte-exactly. Includes a stream inspector, a synthetic stream
generator and a selective-vs-naive benchmark.
"""

from .aes import (
    AesState,
    KeySchedule,
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
)
from .bitstream import (
    BitReader,
    BitWriter,
    NalHeader,
    NalUnit,
    ReportRow,
    SliceInfo,
    classify_stream,
    ebsp_to_rbsp,
    parse_nal_header,
    parse_slice_info,
    rbsp_to_ebsp,
    serialize_annexb,
    split_annexb,
)
from .errors import (
    BadHex,
    BadKeyLength,
    BadMagic,
    BadVersion,
    CounterOverflow,
    EmptyPassphrase,
    EscapingViolation,
    MalformedEscape,
    MalformedHeader,
    NoStartCode,
    OrdinalOutOfRange,
    OutOfBits,
    OutOfRange,
    SelencError,
    WrongKey,
)
from .pipeline import (
    KeySource,
    RunSummary,
    StreamReport,
    cmd_decrypt,
    cmd_encrypt,
    cmd_inspect,
    derive_key,
    gen_test_stream,
)
from .selective import (
    CipherHeader,
    EncryptionPolicy,
    SelectionResult,
    decrypt_nal,
    decrypt_stream,
    encrypt_nal,
    encrypt_stream,
    select,
)

__version__ = "0.1.0"

# The benchmark harness, and the tempfile and random it imports, load on
# first use of one of its names (PEP 562), not with the package: a one-shot
# command never needs them.
_HARNESS_NAMES = frozenset({"BenchResult", "OracleReport", "bench", "oracle_suite"})


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AesState",
    "BadHex",
    "BadKeyLength",
    "BadMagic",
    "BadVersion",
    "BenchResult",
    "BitReader",
    "BitWriter",
    "CipherHeader",
    "CounterOverflow",
    "EmptyPassphrase",
    "EncryptionPolicy",
    "EscapingViolation",
    "KeySchedule",
    "KeySource",
    "MalformedEscape",
    "MalformedHeader",
    "NalHeader",
    "NalUnit",
    "NoStartCode",
    "OracleReport",
    "OrdinalOutOfRange",
    "OutOfBits",
    "OutOfRange",
    "ReportRow",
    "RunSummary",
    "SelectionResult",
    "SelencError",
    "SliceInfo",
    "StreamReport",
    "WrongKey",
    "add_round_key",
    "bench",
    "classify_stream",
    "cmd_decrypt",
    "cmd_encrypt",
    "cmd_inspect",
    "ctr_keystream",
    "decrypt_block",
    "decrypt_nal",
    "decrypt_stream",
    "derive_key",
    "ebsp_to_rbsp",
    "encrypt_block",
    "encrypt_nal",
    "encrypt_stream",
    "gen_test_stream",
    "inv_mix_columns",
    "inv_shift_rows",
    "inv_sub_bytes",
    "key_expansion",
    "mix_columns",
    "oracle_suite",
    "parse_nal_header",
    "parse_slice_info",
    "rbsp_to_ebsp",
    "select",
    "serialize_annexb",
    "shift_rows",
    "split_annexb",
    "sub_bytes",
]
