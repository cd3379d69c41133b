"""Run one etacheck CLI invocation in this fresh process and report on it.

    python3 child.py REQUEST_JSON

REQUEST_JSON holds ``src`` (the source tree to import from), ``argv`` (for
``etacheck.cli.main``), ``cache_dir``, ``trace`` (install the layer tracer),
``setup_only`` (stop the check at its set-up boundary) and ``digest_keys``
(images to read back and hash afterwards, or null).  One JSON object is
printed on stdout: the exit code, the captured output, CLOCK_MONOTONIC
timestamps of the set-up boundary and of the verdict, the peak RSS, the
speed probes, and, when tracing, the trace summary, the spans and the growth
of the cache directory.  A set-up-only check reports only its set-up
timestamp and its probes.

The set-up boundary is the first call of ``u_step`` (for ``verify``, after
``iterate`` has built its image table) or the call of ``direct_oracle`` (for
``direct-check``).  Both timestamps come from ``time.perf_counter``, which
reads the system-wide monotonic clock, so the parent can subtract its launch
time from them.

Speed probes: a host whose processors are shared with other tenants can
switch between full and about half speed several times a second.  So the
process times a fixed bit of big-integer and interpreter work (``_probe``)
once at start and then every PROBE_EVERY_S seconds from a SIGALRM handler,
which Python runs between bytecodes of the check.  Each probe is reported as [start, seconds];
the harness scales the check's times by how fast the probes ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


PROBE_EVERY_S = 0.05
_PROBE_INT = 3 ** 12000


def _probe() -> float:
    """Seconds taken by a fixed bit of work: big-integer multiplies, as in
    the series arithmetic, and small-dict updates, as in the interpreter-
    bound search.  About 0.5 ms on an idle 2-vCPU Xeon."""
    start = time.perf_counter()
    for i in range(2):
        (_PROBE_INT * (_PROBE_INT + i)).bit_length()
    counts = {}
    for i in range(1000):
        counts[i & 255] = counts.get(i & 255, 0) + i * i
    return time.perf_counter() - start


def _start_probes(probes):
    def tick(_signum, _frame):
        start = time.perf_counter()
        probes.append([start, _probe()])

    tick(None, None)
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)


def _stop_probes():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_IGN)


def _tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


class _SetupDone(BaseException):
    """Stops a set-up-only check at its set-up boundary; a BaseException so
    that no handler inside etacheck catches it."""


def _mark_first_call(module, attr, marks, stop):
    inner = getattr(module, attr)

    def first_call(*args, **kwargs):
        marks.setdefault("work", time.perf_counter())
        if stop:
            raise _SetupDone
        return inner(*args, **kwargs)

    setattr(module, attr, first_call)


def _image_digest(argv, cache_dir, keys) -> str:
    """sha256 over (key, sorted terms) of each image, read back through the
    public UImageTable.image on a fresh table over the same cache."""
    from etacheck.basis import load_basis_n20
    from etacheck.cli import load_family_spec
    from etacheck.ujump import UImageTable, build_A

    spec = load_family_spec(argv[argv.index("verify") + 1])
    table = UImageTable(load_basis_n20(), build_A(spec.gen), spec.gen.ell, cache_dir=cache_dir)
    h = hashlib.sha256()
    for key in sorted(tuple(k) for k in keys):
        h.update(repr((key, sorted(table.image(*key).terms.items()))).encode())
    return h.hexdigest()


def run(req, probes) -> dict:
    sys.path.insert(0, req["src"])
    tracer = None
    if req["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    import etacheck.cli as cli
    import etacheck.verifier as verifier

    marks = {}
    _mark_first_call(verifier, "u_step", marks, req["setup_only"])
    _mark_first_call(cli, "direct_oracle", marks, req["setup_only"])
    if tracer is not None:
        cache_bytes = _tree_bytes(req["cache_dir"])
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req["argv"])
    except _SetupDone:
        _stop_probes()
        return {"setup_only": True, "work": marks["work"], "probes": probes}
    verdict = time.perf_counter()
    _stop_probes()
    res = {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "work": marks.get("work"),
        "verdict": verdict,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probes": probes,
    }
    if tracer is not None:
        res["store_bytes"] = _tree_bytes(req["cache_dir"]) - cache_bytes
        res["trace"] = tracer.summary()
        res["spans"] = tracer.spans[:]  # the digest below adds no spans
    if req["digest_keys"]:
        res["image_digest"] = _image_digest(req["argv"], req["cache_dir"], req["digest_keys"])
    return res


def main() -> int:
    req = json.loads(sys.argv[1])
    probes = []
    _start_probes(probes)
    try:
        res = run(req, probes)
    except Exception:  # reported to the harness, which counts the check as failed
        res = {"crash": traceback.format_exc()[-4000:]}
    finally:
        _stop_probes()
    sys.stdout.write(json.dumps(res) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
