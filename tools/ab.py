"""Paired benchmark runs of two git revisions.

    python3 tools/ab.py --base HEAD~1 --change HEAD --workload gpf-caustic \\
        --seeds 12001-12010 --seconds 30 --tag field-pass

Each revision (any tree-ish, such as a commit or ``git write-tree``'s
output) is exported with ``git archive`` into its own directory under
``--scratch``, and ``perfbench/run.py --trace 0`` runs there, so each side
runs its own sources and its own copy of the benchmark. Before the pairs,
each side builds its kernel library once, so no timed run pays for the
compile. For every workload, pair i runs both sides on seed i, one after
the other, and the side that runs first alternates. The tool prints, per
workload and end-to-end metric, each side's median and quartiles and the
change's wins out of the pairs (ties count for neither side) and a
verdict against the metric's bound in ``BENCHMARK.json`` (see
:func:`verdict`), and writes ``BENCH_<tag>.json`` with the raw runs, that
summary, both revisions and the machine. It warns when the two revisions
hold different benchmarks (``perfbench/`` or ``BENCHMARK.json``), since a
gain measured across two benchmarks does not count; the record keeps that
as ``benchmark_identical``. Before the pairs it also runs ``tools/digest.py``'s
recipe on both revisions and records ``digests_equal`` and
``digests_differ``, the outputs that differ or exist on one side only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM = "import sys; sys.path.insert(0, 'src'); import photonfield.geometry as g; g.load_kernels()"


def parse_seeds(text: str) -> list[int]:
    """``"12001-12010"`` or ``"5,9,13"`` (or both, comma-separated) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) of ``values``, inclusive method; all equal for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, change, direction, bound):
    """The verdict on one metric's runs, "no worse", "worse" or
    "unresolved", for a bound relative to the base's median.

    The change is worse when its median is worse than the base's by more
    than ``bound`` of the base's median. The runs cannot tell that apart
    ("unresolved") when either side's quartile spread exceeds ``bound`` of
    its median, unless every change run beats every base run.
    """
    sign = 1.0 if direction == "higher" else -1.0
    if min(sign * c for c in change) > max(sign * b for b in base):
        return "no worse"
    bq, cq = quartiles(base), quartiles(change)
    if any(q3 - q1 > bound * abs(med) for q1, med, q3 in (bq, cq)):
        return "unresolved"
    return "worse" if sign * (bq[1] - cq[1]) > bound * abs(bq[1]) else "no worse"


def summarize(runs, metrics):
    """Per workload and metric: each side's quartiles, the change's wins,
    losses and ties over the pairs, the ratio of medians, whether the
    change is clearly better (it wins at least nine tenths of the pairs and
    its median beats the base's by more than the base's quartile spread),
    and its :func:`verdict`.

    ``runs`` are dicts with ``workload``, ``seed``, ``side`` ("base" or
    "change") and ``metrics`` ({name: value}, or None for a run that
    failed); ``metrics`` maps each metric to ("lower" or "higher" is
    better, its relative bound).
    """
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        by_seed = {}
        for r in runs:
            if r["workload"] == wl:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = [(p["base"], p["change"]) for _, p in sorted(by_seed.items()) if p.get("base") and p.get("change")]
        out[wl] = {"pairs": len(pairs), "failed_runs": sum(1 for r in runs if r["workload"] == wl and not r["metrics"])}
        for name, (direction, bound) in metrics.items():
            both = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
            if not both:
                continue
            base, change = [x for x, _ in both], [y for _, y in both]
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(1 for x, y in both if sign * (y - x) > 0)
            losses = sum(1 for x, y in both if sign * (y - x) < 0)
            bq, cq = quartiles(base), quartiles(change)
            out[wl][name] = {
                "better": direction,
                "base": dict(zip(("q1", "median", "q3"), bq)),
                "change": dict(zip(("q1", "median", "q3"), cq)),
                "ratio": cq[1] / bq[1] if bq[1] else None,
                "wins": wins,
                "losses": losses,
                "ties": len(both) - wins - losses,
                "clear_gain": wins >= 0.9 * len(both) and sign * (cq[1] - bq[1]) > bq[2] - bq[0],
                "bound": bound,
                "verdict": verdict(base, change, direction, bound),
            }
    return out


def format_summary(summary) -> str:
    lines = []
    for wl, metrics in summary.items():
        lines.append(f"{wl}: {metrics['pairs']} pairs, {metrics['failed_runs']} failed runs")
        for name, m in metrics.items():
            if not isinstance(m, dict):
                continue
            b, c = m["base"], m["change"]
            ratio = f"x{m['ratio']:.3f}" if m["ratio"] is not None else "x-"
            lines.append(
                f"  {name:18s} base {b['median']:.4g} [{b['q1']:.4g}-{b['q3']:.4g}]  "
                f"change {c['median']:.4g} [{c['q1']:.4g}-{c['q3']:.4g}]  {ratio}  "
                f"wins {m['wins']}/{m['wins'] + m['losses'] + m['ties']} ({m['better']} is better)"
                + ("  clear gain" if m["clear_gain"] else "")
                + f"  {m['verdict']} (bound {m['bound']})"
            )
    return "\n".join(lines)


def export(rev: str, scratch: Path) -> tuple[str, Path]:
    """The object id of ``rev`` and a directory holding its files."""
    oid = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    dest = scratch / oid
    if not dest.is_dir():
        tar = subprocess.run(["git", "archive", "--format=tar", oid], cwd=ROOT, capture_output=True, check=True).stdout
        tmp = scratch / f"{oid}.partial"
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp, filter="data")
        tmp.rename(dest)
    return oid, dest


def benchmark_identical(base: str, change: str, repo: Path = ROOT) -> bool:
    """Whether ``base`` and ``change`` hold the same ``perfbench/`` and ``BENCHMARK.json``."""
    cmd = ["git", "diff", "--quiet", base, change, "--", "perfbench", "BENCHMARK.json"]
    res = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if res.returncode not in (0, 1):
        raise RuntimeError(f"git diff failed: {res.stderr.strip()}")
    return res.returncode == 0


def digest_record(base: str, change: str, scratch: Path) -> dict:
    """Whether the recipe of ``tools/digest.py`` gives equal outputs on ``base`` and ``change``, and which do not."""
    from digest import compare, revision_digests  # not at the top: digest imports this module

    (_, base_digests), (_, change_digests) = (revision_digests(rev, scratch) for rev in (base, change))
    differ = sorted(name for name, state in compare(base_digests, change_digests).items() if state != "equal")
    return {"digests_equal": not differ, "digests_differ": differ}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its metric values, or None and the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        report = json.loads(res.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"metrics": None, "error": f"exit {res.returncode}: {res.stderr[-2000:]}"}
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    keep = ("correct", "attempted", "failed")
    return {"metrics": metrics if report["correct"] else None, **{k: report[k] for k in keep}}


def machine() -> dict:
    import numpy

    cc = subprocess.run(["cc", "--version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc.stdout.splitlines()[0] if cc.returncode == 0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision measured as the parent")
    ap.add_argument("--change", required=True, help="git revision measured as the change")
    ap.add_argument("--workload", action="append", required=True, help="a perfbench workload; repeat for more")
    ap.add_argument("--seeds", required=True, help="one seed per pair, e.g. 12001-12010")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    ap.add_argument("--scratch", type=Path, default=Path(os.environ.get("TMPDIR", "/tmp")) / "photonfield-ab")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    identical = benchmark_identical(args.base, args.change)
    if not identical:
        print("warning: perfbench/ or BENCHMARK.json differs between the revisions; "
              "their runs measure two different benchmarks", file=sys.stderr)
    args.scratch.mkdir(parents=True, exist_ok=True)
    sides = {}
    for side in ("base", "change"):
        oid, path = export(getattr(args, side), args.scratch)
        subprocess.run([sys.executable, "-c", WARM], cwd=path, check=True)
        sides[side] = {"rev": getattr(args, side), "oid": oid, "path": path}
    digests = digest_record(args.base, args.change, args.scratch)
    print(f"output digests equal: {digests['digests_equal']}; differ: {digests['digests_differ']}", file=sys.stderr)

    runs = []
    seeds = parse_seeds(args.seeds)
    for wl in args.workload:
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                t0 = time.time()
                r = run_side(sides[side]["path"], wl, seed, args.seconds)
                runs.append({"workload": wl, "seed": seed, "side": side, "first": order[0], "started": t0, **r})
                status = "ok" if r["metrics"] else f"FAILED {r.get('error', '')[:200]}"
                print(f"{wl} seed {seed} {side}: {status}", file=sys.stderr, flush=True)

    summary = summarize(runs, metrics)
    print(format_summary(summary))
    record = {
        "tag": args.tag,
        "command": ["python3", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])],
        "base": {k: sides["base"][k] for k in ("rev", "oid")},
        "change": {k: sides["change"][k] for k in ("rev", "oid")},
        "benchmark_identical": identical,
        **digests,
        "seconds": args.seconds,
        "seeds": seeds,
        "machine": machine(),
        "summary": summary,
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.tag}.json"
    tmp = out.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    tmp.replace(out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
