"""Closed-loop benchmark of selenc's file commands on generated streams.

One client in one thread runs cmd_encrypt (fixed nonce), cmd_decrypt on its
output and cmd_inspect on the plain file, back to back, for --seconds, and
checks every output against the stream's truth outside the timed region.

    python3 bench/run.py --workload sparse_idr --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced for half
the time and traced for the other half, and prints the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object. See
README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
import streams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
COMMANDS = ("encrypt", "decrypt", "inspect")

# (name, unit) of the --trace 0 metrics, in BENCHMARK.json order.
END_TO_END = (
    ("encrypt_MBps", "MB/s"),
    ("decrypt_MBps", "MB/s"),
    ("inspect_MBps", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_MB", "MB"),
)


def import_selenc():
    """Import selenc from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "selenc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no selenc package under {src}")
    sys.path.insert(0, str(src))
    import selenc

    if Path(selenc.__file__).resolve().parent != (src / "selenc").resolve():
        raise SystemExit(f"run.py: imported selenc from {selenc.__file__}, not {src}")
    return selenc


class Files:
    """The plain input and every command output of one workload run."""

    def __init__(self, workdir: Path, stream: streams.Stream):
        workdir.mkdir(parents=True, exist_ok=True)
        self.plain = workdir / "plain.264"
        self.enc = workdir / "enc.264"
        self.meta = workdir / "enc.seh"
        self.rt = workdir / "rt.264"
        self.plain.write_bytes(stream.data)


def setup(workload: streams.Workload, seed: int, workdir: Path):
    """Everything before the first timed operation: import selenc, generate
    the stream and write it."""
    selenc = import_selenc()
    stream = streams.generate(workload, seed)
    return selenc, stream, Files(workdir, stream)


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median calibrated seconds from spawning a fresh interpreter to its
    setup() done."""
    times = []
    for i in range(SETUP_PROBES):
        before = calibrate.kernel()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--probe-setup", str(workdir / f"probe{i}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        elapsed = float(done.stdout.split()[-1]) - start
        times.append(elapsed * calibrate.scale(before, calibrate.kernel()))
    return statistics.median(times)


class Tally:
    """Checks attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def closed_loop(selenc, stream, files: Files, checker, tally: Tally,
                seconds: float, tracer=None) -> "dict[str, list[tuple[float, float, int]]]":
    """Run whole cycles until ``seconds`` have passed (at least one cycle).

    Returns each command's (wall seconds, calibrated seconds, input bytes)
    per call. A command that raises, or whose output cannot be read, fails
    every check it owns and gives no sample.
    """
    w = stream.workload
    if w.passphrase:
        key = selenc.KeySource.from_passphrase(stream.passphrase, w.kdf_iterations)
    else:
        key = selenc.KeySource.from_raw_hex(stream.key_hex)
    policy = (selenc.EncryptionPolicy.ALL_INTRA if w.policy == "all-i"
              else selenc.EncryptionPolicy.IDR_ONLY)
    ops = {
        "encrypt": (
            files.plain,
            lambda: selenc.cmd_encrypt(files.plain, files.enc, files.meta, key, policy, stream.nonce),
            lambda _: checker.encrypt(files.enc.read_bytes(), files.meta.read_bytes()),
            (files.enc, files.meta),
        ),
        "decrypt": (
            files.enc,
            lambda: selenc.cmd_decrypt(files.enc, files.meta, files.rt, key),
            lambda _: checker.decrypt(files.rt.read_bytes()),
            (files.rt,),
        ),
        "inspect": (
            files.plain,
            lambda: selenc.cmd_inspect(files.plain, policy),
            checker.inspect,
            (),
        ),
    }
    samples: "dict[str, list[tuple[float, float, int]]]" = {c: [] for c in COMMANDS}
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        for command in COMMANDS:
            source, call, check, outputs = ops[command]
            for path in outputs:
                path.unlink(missing_ok=True)
            before = calibrate.kernel()
            if tracer is not None:
                tracer.op = (cycle, command)
            try:
                size = source.stat().st_size
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.add(checker.owned[command], checker.owned[command])
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            scale = calibrate.scale(before, calibrate.kernel())
            try:
                tally.add(*check(result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.add(checker.owned[command], checker.owned[command])
                continue
            samples[command].append((elapsed, elapsed * scale, size))
        cycle += 1
    return samples


def _cycle_times(samples) -> "list[float]":
    """Calibrated seconds of each whole cycle."""
    return [sum(s[1] for s in cycle) for cycle in zip(*(samples[c] for c in COMMANDS))]


def measure(selenc, stream, files: Files, seconds: float, trace: bool, trace_out=None):
    """Run one workload; returns (metrics as {name: (value, unit)}, tally,
    notes). Untraced metrics are per-command MB/s medians and peak RSS; the
    caller adds setup_s. Traced metrics are the per-layer ones."""
    # Imported here, not at the top, so the setup probes never load the
    # oracle's AES and setup_s measures selenc's import, not the benchmark's.
    from oracle import Checker

    checker = Checker(stream)
    tally = Tally()
    notes = []
    if not checker.oracle:
        notes.append("cryptography is not importable: ciphertext and sidecar checks skipped")
    if not trace:
        samples = closed_loop(selenc, stream, files, checker, tally, seconds)
        metrics = {}
        for command in COMMANDS:
            calls = samples[command]
            if not calls:
                raise SystemExit(f"run.py: every {command} call failed")
            metrics[f"{command}_MBps"] = (statistics.median(n / 1e6 / c for _, c, n in calls), "MB/s")
            wall = statistics.median(n / 1e6 / w for w, _, n in calls)
            notes.append(f"{command}_MBps: median of {len(calls)} calls; "
                         f"uncalibrated wall-time median {wall:.6g} MB/s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_MB"] = (rss_kib * 1024 / 1e6, "MB")
        return metrics, tally, notes

    plain = closed_loop(selenc, stream, files, checker, tally, seconds / 2)
    rbsp_len = {n.ordinal: len(n.rbsp) for n in stream.nals}
    observers = dict(spans.OBSERVERS)
    observers["selective.encrypt_nal"] = lambda args, result: (
        ("selective.cipher_rbsp_bytes", rbsp_len[args[0].ordinal]),)
    with spans.Tracer("selenc", observers) as tracer:
        traced = closed_loop(selenc, stream, files, checker, tally, seconds / 2, tracer)
    values = spans.layer_metrics(tracer, len(stream.nals), stream.vcl_rbsp_bytes)
    traced, plain = _cycle_times(traced), _cycle_times(plain)
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics = {name: (values[name], unit) for name, unit in spans.LAYER_METRICS}
    notes.append(f"per-layer values: median over {len(traced)} traced cycles; "
                 f"overhead against {len(plain)} untraced cycles")
    notes.extend(f"{name}: absent, {spans.source(name)} no longer exists"
                 for name, (value, _) in metrics.items() if value is None)
    if trace_out is not None:
        tracer.dump(trace_out)
        notes.append(f"spans written to {trace_out}")
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(streams.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = streams.WORKLOADS[args.workload]

    if args.probe_setup:
        setup(workload, args.seed, Path(args.probe_setup))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        selenc, stream, files = setup(workload, args.seed, workdir / "run")
        if args.trace:
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            trace_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, tally, notes = measure(selenc, stream, files, args.seconds, True, trace_out)
        else:
            setup_s = time_setup(args.workload, args.seed, workdir)
            metrics, tally, notes = measure(selenc, stream, files, args.seconds, False)
            metrics["setup_s"] = (setup_s, "s")
            metrics = {name: metrics[name] for name, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(stream.data)} bytes, "
          f"{len(stream.nals)} NALs, {len(stream.selected_ordinals)} selected")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {'absent' if value is None else f'{value:.6g}':>12s} {unit}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'fail_share':34s} {share:>12.6g} share ({tally.failed} of {tally.attempted} checks)")
    print(json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
