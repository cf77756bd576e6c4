"""Run every workload, timed and then traced, and print one summary.

    python3 bench/report.py --seed 1 --seconds 30

Each run is its own ``run.py`` process, so every workload's setup_s starts
from a fresh interpreter. Ends with the selective-versus-naive line:
selective_saving_x = (encrypt s/MB on all_key) / (encrypt s/MB on
sparse_idr), next to each workload's selective.cipher_fraction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import streams

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"report.py: run.py --workload {workload} --trace {trace} failed")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    timed, fraction = {}, {}
    for name, workload in streams.WORKLOADS.items():
        print(f"== {name}: {workload.why}", flush=True)
        results = [run(name, args.seed, args.seconds, trace) for trace in (0, 1)]
        for result in results:
            for metric, m in result["metrics"].items():
                value = "absent" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {metric:34s} {value:>12s} {m['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  {'fail_share':34s} {failed / attempted:>12.6g} share "
              f"({failed} of {attempted} checks)", flush=True)
        timed[name] = results[0]["metrics"]
        fraction[name] = results[1]["metrics"]["selective.cipher_fraction"]["value"]

    saving = timed["sparse_idr"]["encrypt_MBps"]["value"] / timed["all_key"]["encrypt_MBps"]["value"]
    print(f"selective_saving_x {saving:.4g} x "
          "(encrypt s/MB on all_key / encrypt s/MB on sparse_idr)")
    for name, value in fraction.items():
        print(f"  selective.cipher_fraction {name:16s} "
              f"{'absent' if value is None else f'{value:.4g}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
