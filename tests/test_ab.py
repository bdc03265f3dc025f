"""The paired-run tool's summary logic (tools/ab.py), on synthetic runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _runs(workload, metric, base, change):
    runs = []
    for seed, (b, c) in enumerate(zip(base, change)):
        runs.append({"workload": workload, "seed": seed, "side": "base", "metrics": {metric: b} if b is not None else None})
        runs.append({"workload": workload, "seed": seed, "side": "change", "metrics": {metric: c} if c is not None else None})
    return runs


def test_seeds_parse_as_ranges_and_lists():
    assert ab.parse_seeds("5") == [5]
    assert ab.parse_seeds("12001-12004,7") == [12001, 12002, 12003, 12004, 7]


def test_quartiles_of_one_and_of_many_values():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_higher_is_better_counts_wins_losses_and_ties():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [20.0, 11.0, 10.0, 26.0, 28.0]
    s = ab.summarize(_runs("w", "rate", base, change), {"rate": ("higher", 0.25)})["w"]
    m = s["rate"]
    assert s["pairs"] == 5 and s["failed_runs"] == 0
    assert (m["wins"], m["losses"], m["ties"]) == (3, 1, 1)
    assert m["base"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert m["change"]["median"] == 20.0 and m["ratio"] == pytest.approx(20.0 / 12.0)
    assert not m["clear_gain"]  # 3 of 5 wins is short of nine tenths


def test_lower_is_better_clear_gain_needs_nine_tenths_and_the_spread():
    base = [1.0 + 0.01 * i for i in range(10)]
    s = ab.summarize(_runs("w", "t", base, [b - 0.5 for b in base]), {"t": ("lower", 0.25)})["w"]["t"]
    assert s["wins"] == 10 and s["clear_gain"]
    # every pair won, but by less than the base's quartile spread
    s = ab.summarize(_runs("w", "t", base, [b - 0.02 for b in base]), {"t": ("lower", 0.25)})["w"]["t"]
    assert s["wins"] == 10 and not s["clear_gain"]
    # 8 of 10 pairs won is not enough
    change = [b - 0.5 for b in base[:8]] + [b + 0.5 for b in base[8:]]
    s = ab.summarize(_runs("w", "t", base, change), {"t": ("lower", 0.25)})["w"]["t"]
    assert s["wins"] == 8 and not s["clear_gain"]


def test_failed_runs_drop_their_pair_and_are_counted():
    runs = _runs("w", "t", [1.0, None, 3.0], [0.5, 2.0, None])
    s = ab.summarize(runs, {"t": ("lower", 0.25)})["w"]
    assert s["pairs"] == 1 and s["failed_runs"] == 2
    assert s["t"]["wins"] == 1


def test_workloads_are_summarized_apart_and_formatted():
    runs = _runs("a", "t", [1.0, 2.0], [0.5, 1.0]) + _runs("b", "t", [1.0, 2.0], [2.0, 4.0])
    s = ab.summarize(runs, {"t": ("lower", 0.25), "absent": ("lower", 0.25)})
    assert s["a"]["t"]["wins"] == 2 and s["b"]["t"]["losses"] == 2
    assert "absent" not in s["a"]
    text = ab.format_summary(s)
    assert text.splitlines()[0] == "a: 2 pairs, 0 failed runs" and "wins 2/2" in text


def test_verdict_is_worse_only_beyond_the_bound():
    base = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, spread 4%
    assert ab.verdict(base, [b * 1.2 for b in base], "lower", 0.25) == "no worse"
    assert ab.verdict(base, [b * 1.3 for b in base], "lower", 0.25) == "worse"
    assert ab.verdict(base, [b * 0.7 for b in base], "higher", 0.25) == "worse"
    assert ab.verdict(base, [b * 0.8 for b in base], "higher", 0.25) == "no worse"
    assert ab.verdict(base, list(base), "lower", 0.2) == "no worse"  # equal runs, as train_final_mse must be


def test_verdict_is_unresolved_when_a_spread_exceeds_the_bound():
    tight = [1.0, 1.0, 1.0, 1.0, 1.0]
    wide = [0.5, 0.8, 1.0, 1.3, 1.6]  # quartiles 0.8-1.3: half the median
    assert ab.verdict(wide, tight, "lower", 0.25) == "unresolved"
    assert ab.verdict(tight, wide, "lower", 0.25) == "unresolved"
    assert ab.verdict(tight, wide, "lower", 0.6) == "no worse"
    # unless every change run beats every base run
    assert ab.verdict([w + 2.0 for w in wide], wide, "lower", 0.25) == "no worse"
    assert ab.verdict(wide, [w + 2.0 for w in wide], "higher", 0.25) == "no worse"
    assert ab.verdict(wide, [w + 2.0 for w in wide], "lower", 0.25) == "unresolved"


def test_summary_holds_and_prints_each_verdict():
    base = [1.0 + 0.01 * i for i in range(10)]
    runs = _runs("w", "t", base, [b * 1.5 for b in base]) + _runs("v", "t", [0.5, 1.0, 1.5, 2.0], [1.0] * 4)
    s = ab.summarize(runs, {"t": ("lower", 0.25)})
    assert (s["w"]["t"]["verdict"], s["w"]["t"]["bound"]) == ("worse", 0.25)
    assert s["v"]["t"]["verdict"] == "unresolved"
    text = ab.format_summary(s)
    assert "  worse (bound 0.25)" in text and "  unresolved (bound 0.25)" in text


def test_benchmark_identical_compares_perfbench_and_benchmark_json(tmp_path):
    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, capture_output=True, text=True, check=True).stdout.strip()

    def commit(path, text):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
        git("add", "-A")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", path)
        return git("rev-parse", "HEAD")

    git("init", "-q")
    base = commit("perfbench/run.py", "a\n")
    src = commit("src/code.py", "b\n")
    bench = commit("perfbench/run.py", "c\n")
    spec = commit("BENCHMARK.json", "{}\n")
    assert ab.benchmark_identical(base, src, repo=tmp_path)
    assert ab.benchmark_identical(src, src, repo=tmp_path)
    assert not ab.benchmark_identical(src, bench, repo=tmp_path)
    assert not ab.benchmark_identical(bench, spec, repo=tmp_path)
    with pytest.raises(RuntimeError, match="git diff failed"):
        ab.benchmark_identical(base, "no-such-rev", repo=tmp_path)
