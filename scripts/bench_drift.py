#!/usr/bin/env python3
"""Drift gate for the checked-in experiment snapshots.

Each gated experiment binary prints ```json blocks. This script runs each
binary twice at its full preset, requires the two stdouts to be
byte-identical (the determinism check), extracts the last block, and
compares it with the matching BENCH_exp*.json. Keys starting with `_`
(`_regenerate`, the wall-clock `_perf`) are ignored at every level: the
rest is simulated and deterministic, so any difference means a number
moved.

Usage:
    scripts/bench_drift.py                 # check every gated experiment
    scripts/bench_drift.py exp15           # check a subset
    scripts/bench_drift.py --write exp15   # regenerate a snapshot: new
                                           # trailing JSON, `_perf`
                                           # re-timed (best of 3)

Binaries are read from target/release; build them first with
    cargo build --release -p requiem-bench --bin exp1_figure1 --bin exp4_myth3 \\
        --bin exp6_atomic --bin exp7_synergy --bin exp8_nameless --bin exp11_qd_sweep \\
        --bin exp12_fault_sweep --bin exp13_db_qd_sweep --bin exp14_cooperating_logs \\
        --bin exp15_pcm_wal --bin exp17_shard_sweep
"""

import argparse
import difflib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# snapshot key -> binary
GATED = {
    "exp1": "exp1_figure1",
    "exp4": "exp4_myth3",
    "exp6": "exp6_atomic",
    "exp7": "exp7_synergy",
    "exp8": "exp8_nameless",
    "exp11": "exp11_qd_sweep",
    "exp12": "exp12_fault_sweep",
    "exp13": "exp13_db_qd_sweep",
    "exp14": "exp14_cooperating_logs",
    "exp15": "exp15_pcm_wal",
    "exp17": "exp17_shard_sweep",
}


def run(binary: Path) -> tuple[str, float]:
    """Run one binary; return its stdout and wall-clock milliseconds."""
    start = time.perf_counter()
    proc = subprocess.run([str(binary)], capture_output=True, text=True)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"bench_drift: {binary.name} exited {proc.returncode}")
    return proc.stdout, wall_ms


def trailing_json(stdout: str) -> dict:
    """The last ```json block of a binary's stdout."""
    start = stdout.rfind("```json")
    if start < 0:
        raise SystemExit("bench_drift: no ```json block in the output")
    body = stdout[start + len("```json"):]
    end = body.find("```")
    return json.loads(body if end < 0 else body[:end])


def simulated(value):
    """Drop `_`-prefixed keys at every level."""
    if isinstance(value, dict):
        return {k: simulated(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, list):
        return [simulated(v) for v in value]
    return value


def differences(old, new, path="$"):
    """Paths where two JSON values differ, with both sides."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            if k not in new:
                yield f"{path}.{k}: removed"
            elif k not in old:
                yield f"{path}.{k}: added"
            else:
                yield from differences(old[k], new[k], f"{path}.{k}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif old != new:
        yield f"{path}: {json.dumps(old)} -> {json.dumps(new)}"


def dump(snapshot: dict) -> str:
    """The BENCH file layout: `_` keys compact on one line, data indented."""
    parts = []
    for k, v in snapshot.items():
        if k.startswith("_"):
            body = json.dumps(v, separators=(",", ":"), ensure_ascii=False)
        else:
            body = json.dumps(v, indent=2, ensure_ascii=False).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(k)}: {body}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def runs(name: str, binary: Path, count: int) -> list[tuple[str, float]]:
    """Run a binary `count` times; fail unless every stdout is identical."""
    outputs = [run(binary) for _ in range(count)]
    first = outputs[0][0]
    for out, _ in outputs[1:]:
        if out != first:
            diff = difflib.unified_diff(
                first.splitlines(), out.splitlines(), "run 1", "run 2", lineterm=""
            )
            sys.stderr.write("\n".join(list(diff)[:40]) + "\n")
            raise SystemExit(f"bench_drift: {name} is not deterministic across runs")
    return outputs


def check(name: str, binary: Path, snapshot: Path) -> bool:
    (stdout, wall_ms), _ = runs(name, binary, 2)
    new = simulated(trailing_json(stdout))
    old = simulated(json.loads(snapshot.read_text()))
    diffs = list(differences(old, new))
    if not diffs:
        print(f"  {name}: matches {snapshot.name} ({wall_ms:.0f} ms)")
        return True
    print(f"  {name}: DRIFT vs {snapshot.name} ({len(diffs)} values moved)")
    for d in diffs[:20]:
        print(f"    {d}")
    if len(diffs) > 20:
        print(f"    ... {len(diffs) - 20} more")
    return False


def write(name: str, binary: Path, snapshot: Path) -> None:
    old = json.loads(snapshot.read_text())
    outputs = runs(name, binary, 3)
    first = trailing_json(outputs[0][0])
    best_ms = max(1, round(min(ms for _, ms in outputs)))
    fresh = {k: v for k, v in old.items() if k.startswith("_")}
    if "_perf" in fresh:
        perf = dict(fresh["_perf"])
        perf["wall_ms"] = best_ms
        perf["events_per_sec"] = perf["events"] * 1000 // best_ms
        fresh["_perf"] = perf
    fresh.update(first)
    snapshot.write_text(dump(fresh))
    print(f"  {name}: wrote {snapshot.name} (best of 3: {best_ms} ms)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiments", nargs="*", help="subset of " + ", ".join(GATED))
    ap.add_argument("--write", action="store_true", help="regenerate instead of checking")
    args = ap.parse_args()
    names = args.experiments or list(GATED)
    unknown = [n for n in names if n not in GATED]
    if unknown:
        ap.error(f"unknown experiment(s) {unknown}; gated: {list(GATED)}")
    ok = True
    print("bench_drift: " + ("regenerating" if args.write else "checking") + " " + ", ".join(names))
    for name in names:
        binary = ROOT / "target" / "release" / GATED[name]
        snapshot = ROOT / f"BENCH_{name}.json"
        if not binary.exists():
            raise SystemExit(f"bench_drift: {binary} missing; build it first (see --help)")
        if args.write:
            write(name, binary, snapshot)
        else:
            ok &= check(name, binary, snapshot)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
