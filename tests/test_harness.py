import os
import subprocess
import sys
from pathlib import Path

import pytest

from selenc import aes
from selenc import selective as selective_mod
from selenc.aes import key_expansion
from selenc.bitstream import BitWriter, NalUnit, parse_nal_header, rbsp_to_ebsp, split_annexb
from selenc.harness import bench, oracle_suite
from selenc.pipeline import gen_test_stream
from selenc.selective import EncryptionPolicy

KS = key_expansion(b"\x5a" * 16)


def p_slice_nal(ordinal: int, payload: int) -> NalUnit:
    w = BitWriter()
    w.write_ue(0)
    w.write_ue(0)
    head = w.to_bytes()
    return NalUnit(ordinal, 4, parse_nal_header(0x41), rbsp_to_ebsp(head + b"\x33" * (payload - len(head))))


class TestBench:
    def test_equal_payload_fraction(self):
        nals = split_annexb(gen_test_stream(None, gop=12, frames=60, payload_size=256, seed=1))[1]
        res = bench(nals, KS, EncryptionPolicy.IDR_ONLY)
        assert res.selective_encrypted_bytes == 5 * 256
        assert res.vcl_payload_bytes == 60 * 256
        assert res.selective_fraction == pytest.approx(5 / 60, rel=1e-9)

    def test_block_counts_exact(self):
        nals = split_annexb(gen_test_stream(None, gop=5, frames=11, payload_size=100, seed=2))[1]
        res = bench(nals, KS, EncryptionPolicy.IDR_ONLY)
        # 100-byte payloads need 7 blocks each; 11 frames, 3 IDRs.
        assert res.aes_blocks_selective == 3 * 7
        sps_pps_blocks = sum(
            -(-len(n.ebsp) // 16) for n in nals[:2]
        )  # parameter payloads have no escapes at this size
        assert res.aes_blocks_naive == sps_pps_blocks + 11 * 7

    def test_nothing_selected(self):
        nals = [p_slice_nal(i, 64) for i in range(6)]
        res = bench(nals, KS, EncryptionPolicy.IDR_ONLY)
        assert res.selective_encrypted_bytes == 0
        assert res.aes_blocks_selective == 0
        assert res.selective_fraction == 0.0
        assert res.naive_encrypted_bytes == 6 * 64

    def test_gop_one_selective_equals_vcl(self):
        nals = split_annexb(gen_test_stream(None, gop=1, frames=9, payload_size=80, seed=3))[1]
        res = bench(nals, KS, EncryptionPolicy.IDR_ONLY)
        assert res.selective_encrypted_bytes == res.vcl_payload_bytes
        assert res.naive_encrypted_bytes == res.vcl_payload_bytes + sum(
            len(n.ebsp) for n in nals[:2]
        )

    def test_invariants(self):
        for gop, frames, payload in ((1, 5, 33), (4, 16, 64), (7, 21, 129)):
            nals = split_annexb(
                gen_test_stream(None, gop=gop, frames=frames, payload_size=payload, seed=gop)
            )[1]
            res = bench(nals, KS, EncryptionPolicy.IDR_ONLY)
            assert res.selective_encrypted_bytes <= res.naive_encrypted_bytes
            assert res.aes_blocks_selective <= res.aes_blocks_naive
            assert res.wall_time_selective >= 0.0 and res.wall_time_naive >= 0.0
            assert 0.0 <= res.selective_fraction <= 1.0
            # block counts track byte counts within one block per NAL of rounding
            n_selected = len(
                [n for n in nals if n.header and n.header.nal_unit_type == 5]
            )
            assert abs(res.aes_blocks_selective - res.selective_encrypted_bytes / 16) <= n_selected
            assert abs(res.aes_blocks_naive - res.naive_encrypted_bytes / 16) <= len(nals)

    def test_to_dict_fields(self):
        nals = split_annexb(gen_test_stream(None, gop=2, frames=4, payload_size=48, seed=4))[1]
        d = bench(nals, KS, EncryptionPolicy.ALL_INTRA).to_dict()
        assert set(d) == {
            "total_bytes",
            "vcl_payload_bytes",
            "selective_encrypted_bytes",
            "naive_encrypted_bytes",
            "selective_fraction",
            "aes_blocks_selective",
            "aes_blocks_naive",
            "wall_time_selective",
            "wall_time_naive",
        }


class TestOracleSuite:
    def test_fresh_build_all_pass(self):
        report = oracle_suite(0)
        failures = report.failures()
        assert report.all_passed, [f"{c.name}: {c.detail}" for c in failures]
        assert len(report.checks) == 12

    def test_seed_changes_inputs_not_outcome(self):
        report = oracle_suite(20240517)
        assert report.all_passed, [f"{c.name}: {c.detail}" for c in report.failures()]

    def _result(self, report, name):
        return next(c for c in report.checks if c.name == name)

    def test_corrupted_sbox_fails_cipher_check_only(self, monkeypatch):
        # Flip the S-box entry every key schedule consults for a zero word;
        # the known-answer check must fail while parser-side checks hold.
        broken = bytearray(aes.SBOX)
        broken[0x00] ^= 0xFF
        monkeypatch.setattr(aes, "SBOX", bytes(broken))
        report = oracle_suite(0)
        assert not self._result(report, "cipher_known_answers").passed
        for untouched in ("escaping_round_trip", "exp_golomb_exhaustive", "annexb_round_trip"):
            assert self._result(report, untouched).passed, untouched

    def test_skipped_reescape_fails_compliance_check(self, monkeypatch):
        monkeypatch.setattr(selective_mod, "rbsp_to_ebsp", lambda data: bytes(data))
        report = oracle_suite(0)
        assert not self._result(report, "stream_compliance").passed
        for untouched in ("cipher_known_answers", "escaping_round_trip", "exp_golomb_exhaustive"):
            assert self._result(report, untouched).passed, untouched

    def test_broken_cipher_fails_under_python_O(self):
        # python -O strips assert statements, so the checks must fail
        # another way. With decrypt_block returning zeros, the two checks
        # that decrypt fail and no other.
        script = (
            "from selenc import aes\n"
            "from selenc.harness import oracle_suite\n"
            "aes.decrypt_block = lambda block, ks: bytes(16)\n"
            "print(*(c.name for c in oracle_suite(0).failures()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-B", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["cipher_known_answers", "cipher_round_trip"]
