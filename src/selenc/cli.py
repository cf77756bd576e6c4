"""Command-line front end: encrypt, decrypt, inspect, gen-test, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .aes import key_expansion
from .errors import BadHex, SelencError, WrongKey
from .harness import bench
from .pipeline import (
    DEFAULT_KDF_ITERATIONS,
    KeySource,
    RunSummary,
    StreamReport,
    _read_stream,
    cmd_decrypt,
    cmd_encrypt,
    cmd_inspect,
    derive_key,
    gen_test_stream,
)
from .selective import EncryptionPolicy

_POLICY_NAMES = {"idr": EncryptionPolicy.IDR_ONLY, "all-i": EncryptionPolicy.ALL_INTRA}


def _add_key_options(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--key", metavar="HEX32", help="raw 128-bit key as 32 hex characters")
    g.add_argument("--passphrase", metavar="S", help="passphrase to stretch into a key")
    p.add_argument(
        "--kdf-iters",
        metavar="N",
        type=int,
        default=DEFAULT_KDF_ITERATIONS,
        help=f"key-stretching iterations (default {DEFAULT_KDF_ITERATIONS})",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="selenc",
        description="Selective encryption of key-frame NAL payloads in H.264 Annex B streams.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt the key-frame payloads of a stream")
    enc.add_argument("--in", dest="in_path", metavar="F", required=True)
    enc.add_argument("--out", dest="out_path", metavar="F", required=True)
    enc.add_argument("--meta", dest="meta_path", metavar="F", required=True)
    _add_key_options(enc)
    enc.add_argument("--policy", choices=sorted(_POLICY_NAMES), default="idr")
    enc.add_argument("--nonce", metavar="HEX16", help="8-byte nonce for deterministic output")

    dec = sub.add_parser("decrypt", help="restore a stream from ciphertext plus sidecar")
    dec.add_argument("--in", dest="in_path", metavar="F", required=True)
    dec.add_argument("--meta", dest="meta_path", metavar="F", required=True)
    dec.add_argument("--out", dest="out_path", metavar="F", required=True)
    _add_key_options(dec)

    ins = sub.add_parser("inspect", help="report the NAL layout of a stream")
    ins.add_argument("--in", dest="in_path", metavar="F", required=True)
    ins.add_argument("--policy", choices=sorted(_POLICY_NAMES), default="idr")
    ins.add_argument("--json", action="store_true")

    gen = sub.add_parser("gen-test", help="write a deterministic synthetic stream")
    gen.add_argument("--out", dest="out_path", metavar="F", required=True)
    gen.add_argument("--gop", metavar="N", type=int, required=True)
    gen.add_argument("--frames", metavar="N", type=int, required=True)
    gen.add_argument("--payload", metavar="N", type=int, default=256)
    gen.add_argument("--seed", metavar="N", type=int, default=0)

    ben = sub.add_parser("bench", help="compare selective vs naive encryption work")
    ben.add_argument("--in", dest="in_path", metavar="F", required=True)
    ben.add_argument("--key", metavar="HEX32", required=True)
    ben.add_argument("--policy", choices=sorted(_POLICY_NAMES), default="idr")
    ben.add_argument("--json", action="store_true")
    return p


def _key_source(args: argparse.Namespace) -> KeySource:
    if args.key is not None:
        return KeySource.from_raw_hex(args.key)
    return KeySource.from_passphrase(args.passphrase, iterations=args.kdf_iters)


def _parse_nonce(text: str) -> bytes:
    try:
        nonce = bytes.fromhex(text)
    except ValueError:
        nonce = b""
    if len(nonce) != 8:
        raise BadHex(f"nonce must be 16 hex characters, got {text!r}")
    return nonce


def _print_summary(report: RunSummary) -> None:
    print(
        f"nals={report.nal_count} total_bytes={report.total_bytes} "
        f"selected={len(report.selected_ordinals)} selected_bytes={report.selected_bytes} "
        f"fraction={report.encrypted_fraction:.4f} aes_blocks={report.aes_blocks}"
    )


def _print_table(report: StreamReport) -> None:
    print(f"{'ord':>4} {'type':>4} {'name':<8} {'bytes':>7} {'slice':<8} flags")
    for r in report.rows:
        if r.slice_info is not None:
            slice_kind = f"{r.slice_info.slice_type}" + ("/I" if r.slice_info.is_intra else "/P")
        else:
            slice_kind = "-"
        flags = []
        if r.unparsed:
            flags.append("unparsed")
        if r.forbidden_bit:
            flags.append("forbidden")
        if r.malformed_escape:
            flags.append("malformed")
        print(
            f"{r.ordinal:>4} {r.nal_type:>4} {r.type_name:<8} {r.size:>7} "
            f"{slice_kind:<8} {','.join(flags)}"
        )
    if report.leading_garbage:
        print(f"leading garbage: {report.leading_garbage} bytes")
    _print_summary(report)


def _warn_clear_intra_candidates(report: RunSummary) -> None:
    left = report.unparsed_ordinals
    if left:
        print(
            f"selenc: warning: all-i left {len(left)} slice(s) in the clear whose header "
            f"did not parse, at NAL ordinals {', '.join(map(str, left))}",
            file=sys.stderr,
        )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "encrypt":
        nonce = _parse_nonce(args.nonce) if args.nonce is not None else None
        report = cmd_encrypt(
            args.in_path,
            args.out_path,
            args.meta_path,
            _key_source(args),
            _POLICY_NAMES[args.policy],
            nonce,
        )
    elif args.command == "decrypt":
        try:
            report = cmd_decrypt(args.in_path, args.meta_path, args.out_path, _key_source(args))
        except WrongKey as exc:
            if args.passphrase is None:
                raise
            raise WrongKey(
                f"{exc} (a passphrase also needs encrypt's --kdf-iters; the sidecar does not record it)"
            ) from exc
    elif args.command == "inspect":
        report = cmd_inspect(args.in_path, _POLICY_NAMES[args.policy])
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            _print_table(report)
    elif args.command == "gen-test":
        data = gen_test_stream(args.out_path, args.gop, args.frames, args.payload, args.seed)
        print(f"wrote {len(data)} bytes to {args.out_path}")
    elif args.command == "bench":
        ks = key_expansion(derive_key(KeySource.from_raw_hex(args.key)))
        _, _, nals = _read_stream(args.in_path)
        result = bench(nals, ks, _POLICY_NAMES[args.policy])
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            for field, value in result.to_dict().items():
                print(f"{field}={value}")
    if args.command in ("encrypt", "decrypt"):
        _print_summary(report)
        _warn_clear_intra_candidates(report)
    sys.stdout.flush()  # inside main's try, so a closed stdout fails there
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # As the signal module's docs advise: the flush at exit must not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SelencError, OSError, ValueError) as exc:
        print(f"selenc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
