"""The etacheck benchmark: time real CLI checks, each in a fresh process.

    python3 perfbench/run.py --workload rr-cold --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds ``src/etacheck``.  Each check
is one ``etacheck.cli.main(argv)`` call in a fresh child process (see
child.py) with a private temporary cache directory; children run one at a
time and ``--threads`` stays at its default of 1.  Every check's exit code,
verdict line, valuation sequence, oracle witness and (for the cold table)
image digest is compared with golden.json, recorded on the seed commit.

With ``--trace 0`` whole passes over the workload's checks repeat until
``--seconds`` have passed.  Then set-up-only passes, which stop every check
at its set-up boundary, repeat until SETUP_SAMPLES passes have timed set-up
or another ``--seconds`` / 2 have passed.  The medians over passes of the
end-to-end metrics are printed.  Both times are scaled by the child's speed
probes (see child.py and ``scaled``), so that they do not swing with the
speed of a shared host.  With ``--trace 1`` one untraced pass and
one traced pass run, and the per-layer metrics of the traced pass are
printed together with the tracing overhead; the spans are written to
``.perfbench_out/spans-<workload>.jsonl``.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170  # every run ends within this many seconds of its start
SETUP_SAMPLES = 5  # passes that time set-up, in a run without tracing
REF_PROBE_S = 0.0005  # child._probe on an uncontended 2-vCPU Xeon, Python 3.11


@dataclass(frozen=True)
class Check:
    name: str           # key into golden.json
    argv: tuple         # etacheck arguments after --cache-dir
    digest: bool = False


RR_B5 = Check("rr-B5", ("verify", "rogers-ramanujan", "--B", "5"), digest=True)
AS_B5 = Check("as-B5", ("verify", "andrews-sellers", "--B", "5"))

# (checks, whether each check starts from a copy of the pre-filled cache)
WORKLOADS = {
    "rr-cold": ((RR_B5,), False),
    "warm-recheck": ((
        RR_B5,
        Check("rr-B3", ("verify", "rogers-ramanujan", "--B", "3")),
        AS_B5,
        Check("as-B3", ("verify", "andrews-sellers", "--B", "3")),
    ), True),
    "cross-check": ((
        Check("rr-25n+24-mod5", ("direct-check", "rogers-ramanujan", "25", "24", "1", "100")),
        Check("rr-125n+99-mod5", ("direct-check", "rogers-ramanujan", "125", "99", "1", "50")),
        Check("rr-125n+99-mod25", ("direct-check", "rogers-ramanujan", "125", "99", "2", "50")),
        Check("as-5n+3-mod5", ("direct-check", "andrews-sellers", "5", "3", "1", "200")),
    ), False),
    # harness self-test on a level-5 spec; not a timed workload of BENCHMARK.json
    "smoke": ((Check("p5-B4", ("verify", str(HERE / "fixtures" / "partition-level5.json"))),), False),
}
PREFILL = (RR_B5, AS_B5)


class Harness:
    def __init__(self, tmp: Path, golden: dict, deadline: float):
        self.tmp = tmp
        self.golden = golden
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ETACHECK_CACHE", "PYTHONPATH")}
        self.env.update(HOME=str(tmp), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures = []

    def launch(self, check: Check, cache: Path, *, trace=False, setup_only=False) -> dict:
        """Run one check in a fresh child; adds launch-relative times."""
        req = {
            "src": str(SRC),
            "argv": ["--cache-dir", str(cache), *check.argv],
            "cache_dir": str(cache),
            "trace": trace,
            "setup_only": setup_only,
            "digest_keys": self.golden[check.name]["image_keys"] if check.digest else None,
        }
        timeout = max(1.0, self.deadline - time.perf_counter())
        launched = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(req)],
                                  cwd=self.tmp, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crash": f"timed out after {timeout:.0f} s"}
        try:
            res = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"crash": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        if "verdict" in res:
            res["wall_s"] = res["verdict"] - launched
            res["verdict_s"] = scaled(launched, res["verdict"], res["probes"])
            res["probe_s"] = statistics.fmean(dt for _, dt in res["probes"])
        if "crash" not in res:
            res["setup_s"] = (None if res["work"] is None
                              else scaled(launched, res["work"], res["probes"]))
        return res

    def judge(self, check: Check, res: dict) -> list:
        """Differences between a check's result and its golden values."""
        if "crash" in res:
            return [f"crashed: {res['crash']}"]
        if res.get("setup_only"):
            return []
        gold = self.golden[check.name]
        problems = []
        observed = observe(res)
        for field in ("exit", "verdict", "V", "witness"):
            if field in gold and observed[field] != gold[field]:
                problems.append(f"{field} {observed[field]!r} != golden {gold[field]!r}")
        if check.digest and res.get("image_digest") != gold["image_digest"]:
            problems.append(f"image digest {res.get('image_digest')} != golden")
        if res["setup_s"] is None:
            problems.append("the run never reached u_step or direct_oracle")
        return problems

    def run_pass(self, checks, seed_cache, rng, *, trace=False, setup_only=False) -> list:
        order = list(checks)
        rng.shuffle(order)
        results = []
        for i, check in enumerate(order):
            cache = self.tmp / f"cache-{self.attempted}"
            if seed_cache is not None:
                shutil.copytree(seed_cache, cache)
            else:
                cache.mkdir()
            res = self.launch(check, cache, trace=trace, setup_only=setup_only)
            shutil.rmtree(cache, ignore_errors=True)
            self.attempted += 1
            problems = self.judge(check, res)
            if problems:
                self.failures.append((check.name, problems))
                print(f"FAIL {check.name}: " + "; ".join(problems), file=sys.stderr)
            res["check"] = f"{i}:{check.name}"
            results.append(res)
        return results

    def prefill(self) -> Path:
        """The cache the B=5 runs leave behind, made by the code under test.

        It is untimed workload set-up, kept under .perfbench_tmp keyed by a
        hash of the source tree and the interpreter, so later runs of the
        same checkout reuse it and another commit never does.
        """
        h = hashlib.sha256(sys.version.encode())
        for p in sorted(SRC.rglob("*.py")):
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
        final = ROOT / ".perfbench_tmp" / f"prefill-{h.hexdigest()[:16]}"
        if final.is_dir():
            return final
        staging = Path(tempfile.mkdtemp(dir=final.parent, prefix="staging-"))
        for check in PREFILL:
            res = self.launch(check, staging)
            problems = self.judge(check, res)
            if problems:
                shutil.rmtree(staging, ignore_errors=True)
                raise RuntimeError(f"pre-fill {check.name} failed: {'; '.join(problems)}")
        try:
            staging.rename(final)
        except OSError:  # another run finished the same pre-fill first
            shutil.rmtree(staging, ignore_errors=True)
        return final


def scaled(launched: float, end: float, probes) -> float:
    """Seconds from `launched` to `end`, less the probes run in between,
    scaled to a host as fast as the one REF_PROBE_S was taken on: times
    REF_PROBE_S over the mean time of those probes.  The child runs its first probe as soon as it starts, so
    there is always at least one."""
    inside = [dt for start, dt in probes if start < end] or [probes[0][1]]
    return (end - launched - sum(inside)) * REF_PROBE_S / statistics.fmean(inside)


def observe(res: dict) -> dict:
    """The fields golden.json pins, read from a check's exit code and output."""
    out = res["stdout"]
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    witness = re.search(r"FAILS at n = (\d+)", out)
    return {
        "exit": res["exit"],
        "verdict": lines[-1] if lines else "",
        "V": [int(v) for v in re.findall(r"alpha=\s*\d+\s+v=(\d+)", out)],
        "witness": int(witness.group(1)) if witness else None,
    }


def set_up_s(passes) -> float:
    """Median over passes of the set-up seconds summed over a pass's checks."""
    return statistics.median(sum(r.get("setup_s") or 0.0 for r in p) for p in passes)


def end_to_end(passes, setup_passes=()) -> dict:
    """Per whole pass: verdict seconds summed over its checks, and the
    largest peak RSS of any check; per pass of either kind: set-up seconds
    summed over its checks.  Each is reported as its median over passes."""
    verdict = statistics.median(sum(r.get("verdict_s", 0.0) for r in p) for p in passes)
    rss = statistics.median(max(r.get("rss_mb", 0.0) for r in p) for p in passes)
    return {"verdict_s": verdict, "setup_s": set_up_s([*passes, *setup_passes]),
            "peak_rss_mb": rss}


def per_layer(results, untraced) -> dict:
    """Per-layer metrics of one traced pass, summed over its checks, and
    the host figures of the untraced pass."""
    calls, total, own, counts, maxima = {}, {}, {}, {}, {}
    for res in results:
        trace = res.get("trace", {"layers": {}, "counts": {}, "maxima": {}})
        for name, (n, tot, slf) in trace["layers"].items():
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            own[name] = own.get(name, 0.0) + slf
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for key, v in trace["maxima"].items():
            maxima[key] = max(maxima.get(key, v), v)
        counts["store_bytes"] = counts.get("store_bytes", 0) + res.get("store_bytes", 0)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    candidates, hits = counts.get("search_candidates", 0), counts.get("search_hits", 0)
    traced_verdict_s = sum(r.get("verdict_s", 0.0) for r in results)
    untraced_verdict_s = end_to_end([untraced])["verdict_s"]
    return {
        "series.convolve_ints.calls": c("series.convolve_ints"),
        "series.convolve_ints.busy_s": total.get("series.convolve_ints", 0.0),
        "series.convolve_ints.operand_bytes": counts.get("convolve_operand_bytes", 0),
        "series.convolve_ints.max_bits": maxima.get("convolve_max_bits", 0),
        "series.inv.calls": c("series.inv"),
        "series.inv.self_s": s("series.inv"),
        "eta.eta_expand.calls": c("eta.eta_expand"),
        "eta.eta_expand.self_s": s("eta.eta_expand"),
        "eta.euler_product.calls": c("eta.euler_product"),
        "basis.workspace_rebuilds": counts.get("workspace_rebuilds", 0),
        "basis.workspace_max_prec": maxima.get("workspace_max_prec", 0),
        "basis.monomial.calls": c("basis.monomial"),
        "basis.monomial.self_s": s("basis.monomial"),
        "basis.mw_reduce.calls": c("basis.mw_reduce"),
        "basis.mw_reduce.self_s": s("basis.mw_reduce"),
        "ujump.images_computed": c("ujump.compute"),
        "ujump.images_loaded": counts.get("images_loaded", 0),
        "ujump.compute.self_s": s("ujump.compute"),
        "ujump.image_compute_max_s": maxima.get("image_compute_max_s", 0.0),
        "ujump.precision_retries": c("ujump.u_ell") - c("ujump.compute"),
        "ujump.u_ell.self_s": s("ujump.u_ell"),
        "ujump.image_max_bits": maxima.get("image_max_bits", 0),
        "ujump.load.self_s": s("ujump.load"),
        "ujump.store.self_s": s("ujump.store"),
        "ujump.store.bytes": counts["store_bytes"],
        "ujump.compute_m_constants.self_s": s("ujump.compute_m_constants"),
        "tfinder.find_t.calls": c("tfinder.find_t"),
        "tfinder.find_t.self_s": s("tfinder.find_t"),
        "tfinder.compute_pole_sets.self_s": s("tfinder.compute_pole_sets"),
        "search.candidates": candidates,
        "search.hits": hits,
        "search.hit_ratio": hits / candidates if candidates else 0.0,
        "search.self_s": s("search.search_modular_quotients"),
        "modcurve.eta_order_at_cusp.calls": c("modcurve.eta_order_at_cusp"),
        "modcurve.self_s": sum(v for k, v in own.items() if k.startswith("modcurve.")),
        "verifier.iterate.self_s": s("verifier.iterate"),
        "verifier.u_step.calls": c("verifier.u_step"),
        "verifier.u_step.terms_in": counts.get("u_step_terms_in", 0),
        "verifier.direct_oracle.self_s": s("verifier.direct_oracle"),
        "verifier.direct_oracle.coeffs": counts.get("oracle_coeffs", 0),
        "cli.resolve_basis.self_s": s("cli.resolve_basis"),
        "trace.verdict_s": traced_verdict_s,
        "trace.overhead_s": traced_verdict_s - untraced_verdict_s,
        "host.wall_verdict_s": sum(r.get("wall_s", 0.0) for r in untraced),
        "host.probe_ms": 1000 * statistics.median([r["probe_s"] for r in untraced
                                                   if "probe_s" in r] or [0.0]),
    }


def fits(since: float, limit: float, pass_s: float, deadline: float) -> bool:
    """Whether to start another pass: fewer than `limit` seconds have passed
    since `since`, and a pass of `pass_s` seconds ends before `deadline`."""
    now = time.perf_counter()
    return now - since < limit and now + pass_s <= deadline


def write_spans(workload: str, results) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}.jsonl"
    with path.open("w") as f:
        for res in results:
            for i, (name, start, end, parent) in enumerate(res.get("spans", ())):
                f.write(json.dumps({"check": res["check"], "span": i, "name": name,
                                    "start": start, "end": end, "parent": parent}) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "etacheck" / "cli.py").is_file():
        print(f"no etacheck sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root, prefix="run-") as tmp:
        h = Harness(Path(tmp), golden, start + BUDGET_S)
        checks, warm = WORKLOADS[args.workload]
        seed_cache = h.prefill() if warm else None
        rng = random.Random(args.seed)
        t0 = time.perf_counter()
        first = h.run_pass(checks, seed_cache, rng)
        if args.trace:
            traced = h.run_pass(checks, seed_cache, rng, trace=True)
            metrics = per_layer(traced, first)
            print(f"spans written to {write_spans(args.workload, traced)}")
            spec = bench["per_layer"]
        else:
            passes = [first]
            while fits(t0, args.seconds, (time.perf_counter() - t0) / len(passes), h.deadline):
                passes.append(h.run_pass(checks, seed_cache, rng))
            setup_passes = []
            t1 = time.perf_counter()
            while (len(passes) + len(setup_passes) < SETUP_SAMPLES
                   and fits(t1, args.seconds / 2, set_up_s([*passes, *setup_passes]), h.deadline)):
                setup_passes.append(h.run_pass(checks, seed_cache, rng, setup_only=True))
            metrics = end_to_end(passes, setup_passes)
            wall = statistics.median(sum(r.get("wall_s", 0.0) for r in p) for p in passes)
            probe = statistics.median([r["probe_s"] for p in passes for r in p
                                       if "probe_s" in r] or [0.0])
            print(f"{len(passes)} passes and {len(setup_passes)} set-up-only passes "
                  f"of {len(checks)} checks; unscaled verdict {wall:.3f} s, "
                  f"probe {1000 * probe:.3f} ms")
            spec = bench["end_to_end"]
    if set(metrics) != {m["name"] for m in spec}:
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    failed = len(h.failures)
    print(f"check_fail_ratio {failed}/{h.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": h.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
