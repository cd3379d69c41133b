"""Command-line front end.

Exit codes: 0 success, 1 a checked conjecture fails, 2 bad usage (a
u-image j beyond +-64 too), a bad family spec, or a path that cannot be read
or written (spec file, cache directory, report file) or found (a cache
directory with no --cache-dir, ETACHECK_CACHE or home), 3 an internal
contract was violated (a basis monomial that does not lead with 1, a
reduction stall or nonzero residual, runaway support, a malformed cache
file) or an unexpected error such as MemoryError (traceback on stderr).

Family specs are either a built-in name (rogers-ramanujan, andrews-sellers)
or a path to a JSON file with these seven fields, name and B optional:
    {"name": str, "M": int, "r": {"divisor": exponent, ...}, "ell": int,
     "c": int, "pattern": "even-alpha" | "every-alpha", "B": int}.
The spec alone sets a verify run's length (2B steps for even-alpha, B for
every-alpha); ``verify --B`` replaces the B of a built-in or a spec file.
A spec file that repeats a key, at any depth, is refused.

Only ``u-image`` and ``verify`` open the image table, so only they read its
location (``image_table``): --cache-dir, else $ETACHECK_CACHE, else
~/.cache/etacheck.

Eta quotients on the command line are written N:d1^e1,d2^e2,... as in
20:1^2,4^2,10^8,5^-2,20^-10.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .basis import construct_basis, load_basis_n20, AlgebraBasis, ModuleElement
from .errors import ContractError, EtacheckError, SpecError
from .eta import EtaQuotient
from .modcurve import (
    cusp_image_under_scaling,
    cusp_representatives,
    eta_order_at_cusp,
    infinity_class,
    newman_check,
    order_vector,
    parse_cusp,
)
from .series import zmod
from .tfinder import find_t
from .ujump import UImageTable, build_A, compute_m_constants
from .verifier import BUILTINS, CongruenceFamilySpec, builtin_spec, direct_oracle, iterate


def parse_eta_spec(text: str) -> EtaQuotient:
    """N:d1^e1,d2^e2,...  (an empty exponent list means the constant 1)."""
    if ":" not in text:
        raise SpecError(f"eta spec {text!r} lacks the 'level:' prefix")
    head, _, body = text.partition(":")
    pieces = body.split(",") if body.strip() else []
    for piece in pieces:
        if not piece.partition("^")[2].strip():
            raise SpecError(f"cannot parse eta spec {text!r}: piece {piece!r} "
                            "is missing its ^exponent")
    try:
        level = int(head)
        exps = [(int(d), int(e)) for d, _, e in (p.partition("^") for p in pieces)]
    except ValueError as exc:
        raise SpecError(f"cannot parse eta spec {text!r}: {exc}") from exc
    return EtaQuotient(level, exps)


def load_family_spec(source: str, B=None) -> CongruenceFamilySpec:
    """The built-in family or spec file named by source, at B if one is given."""
    if source in BUILTINS:
        spec = builtin_spec(source)
    else:
        path = Path(source)
        if not path.exists():
            raise SpecError(f"{source!r} is neither a built-in family nor a file")
        try:
            data = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise SpecError(f"{source}: invalid JSON ({exc})") from exc
        spec = CongruenceFamilySpec.from_json(data)
    return spec if B is None else spec.with_B(B)


def _unique_keys(pairs: list) -> dict:
    """A spec file's JSON object, refused when it repeats a key: json.loads
    alone would keep the last value and run another family."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SpecError(f"malformed family spec: repeated key {key!r}")
        out[key] = value
    return out


def resolve_basis(spec: CongruenceFamilySpec) -> AlgebraBasis:
    """The algebra basis backing a verification run.

    The generator search is deterministic, so when it lands on the curated
    level-20 generator the curated basis is used; anything else goes through
    the generic construction.
    """
    t = find_t(spec.gen)
    fixture = load_basis_n20()
    if t == fixture.t_quotient():
        return fixture
    return construct_basis(t)


def image_table(spec: CongruenceFamilySpec, cache_dir: Path | None) -> UImageTable:
    """The image table of spec's family, stored under cache_dir, else
    $ETACHECK_CACHE, else ~/.cache/etacheck."""
    if cache_dir is None:
        try:
            cache_dir = Path(os.environ.get("ETACHECK_CACHE") or Path.home() / ".cache/etacheck")
        except RuntimeError as exc:  # no HOME and no passwd entry
            raise SpecError("no home directory: pass --cache-dir or set ETACHECK_CACHE") from exc
    return UImageTable(resolve_basis(spec), build_A(spec.gen), spec.gen.ell, cache_dir=cache_dir)


# -- subcommand handlers -----------------------------------------------------

def cmd_cusps(args) -> int:
    reps = cusp_representatives(args.N)
    print(f"Gamma0({args.N}): {len(reps)} cusp classes")
    for x in reps:
        mark = "   (infinity class)" if x == infinity_class(args.N) else ""
        print(f"  {x}{mark}")
    return 0


def cmd_order(args) -> int:
    eq = parse_eta_spec(args.eta)
    x = parse_cusp(args.cusp)
    print(eta_order_at_cusp(eq, x))
    return 0


def cmd_newman(args) -> int:
    eq = parse_eta_spec(args.eta)
    ok, k0 = newman_check(eq)
    if ok:
        print(f"modular on Gamma0({eq.level}); square witness k0 = {k0}")
        return 0
    print(f"NOT modular on Gamma0({eq.level})")
    return 1


def cmd_find_t(args) -> int:
    t = find_t(load_family_spec(args.spec).gen)
    print(f"generator at level {t.level}: "
          + ",".join(f"{d}^{r}" for d, r in t.exponents))
    for x, o in order_vector(t).items():
        print(f"  ord at {x}: {o}")
    return 0


def cmd_basis(args) -> int:
    b = resolve_basis(load_family_spec(args.spec))
    print(f"algebra basis at level {b.level} (v = {b.v})")
    print(f"  {b.t.describe()}   [ord_inf {b.t.ord_inf}]")
    for g in b.gs:
        print(f"  {g.describe()}   [ord_inf {g.ord_inf}]")
    return 0


def cmd_u_image(args) -> int:
    ring = None  # refused before any work, so a bad --mod caches nothing
    if args.mod:
        ell, caret, power = args.mod.partition("^")
        try:
            ring = zmod(int(ell), int(power) if caret else 1)
        except ValueError as exc:
            raise SpecError(f"cannot parse --mod {args.mod!r}: {exc}") from exc
    me = image_table(load_family_spec(args.spec), args.cache_dir).image(args.i, args.j, args.k)
    print(me if ring is None else ModuleElement(ring, me.terms))
    return 0


def cmd_verify(args) -> int:
    spec = load_family_spec(args.spec, args.B)
    report = iterate(spec, image_table(spec, args.cache_dir))
    payload = {"spec": spec.to_json(), "report": report.to_json()}
    if args.output:  # first, so a write that fails (exit 2) never follows a printed VERIFIED
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(report.text())
    if args.json and not args.output:
        print(json.dumps(payload, indent=2))
    return 0 if report.ok else 1


def cmd_direct_check(args) -> int:
    spec = load_family_spec(args.spec)
    n = direct_oracle(spec.gen, args.m, args.j, spec.gen.ell, args.e, args.n_max)
    if n is None:
        print(f"confirmed: {spec.gen.ell}^{args.e} divides a({args.m}*n+{args.j}) "
              f"for all n <= {args.n_max}")
        return 0
    print(f"FAILS at n = {n}: a({args.m * n + args.j}) "
          f"is not divisible by {spec.gen.ell}^{args.e}")
    return 1


def _format_table(title, row_labels, col_labels, cell):
    out = [title]
    width = max(len(str(r)) for r in row_labels) + 2
    cw = [max(len(str(c)), *(len(str(cell(r, ci))) for r in row_labels)) + 2
          for ci, c in enumerate(col_labels)]
    out.append(" " * width + "".join(str(c).rjust(w) for c, w in zip(col_labels, cw)))
    for r in row_labels:
        out.append(str(r).ljust(width)
                   + "".join(str(cell(r, ci)).rjust(w) for ci, w in zip(range(len(col_labels)), cw)))
    return "\n".join(out)


def cmd_tables(args) -> int:
    spec = builtin_spec("rogers-ramanujan")
    b = load_basis_n20()
    A, t, ell = build_A(spec.gen), b.t_quotient(), spec.gen.ell
    for N in (A.level, b.level):
        print(_format_table(
            f"cusps of Gamma0({N}) approached by (tau+r)/{ell} from each cusp of Gamma0({b.level})",
            cusp_representatives(b.level), [f"r={r}" for r in range(ell)],
            lambda x, r: cusp_image_under_scaling(x, r, ell, N)))
        print()
    for name, eq in (("A", A), ("t", t)):
        print(f"orders of {name} at the cusps of Gamma0({eq.level}):")
        for x, o in order_vector(eq).items():
            print(f"  {x}: {o}")
        print()

    se = compute_m_constants(b, A, ell)
    t_scaled = t.scale_tau(ell)
    h, g = b.gs[1].constituent_quotients()  # g_2 = h - g
    taming = [(name, eq.at_level(A.level), se.taming_power(eq))
              for name, eq in (("A", A), ("t", t), ("1/t", t.inverse()), ("g", g), ("h", h))]
    print(f"stability exponents: m_A={se.exponent(1, 0, 0)} m_t={se.exponent(0, 1, 0)} "
          f"m_1/t={se.exponent(0, -1, 0)} m_k={[se.exponent(0, 0, k) for k in range(1, b.v + 1)]}")
    print(_format_table(
        f"orders over Gamma0({A.level}) of the tamed products",
        cusp_representatives(A.level), [f"t({ell}tau)^{m} * {name}" for name, _, m in taming],
        lambda x, ci: (taming[ci][2] * eta_order_at_cusp(t_scaled, x)
                       + eta_order_at_cusp(taming[ci][1], x))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="etacheck",
        description="verify families of partition congruences in an "
                    "eta-quotient algebra basis")
    p.add_argument("--cache-dir", type=Path,
                   help="directory for the persistent image table")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("cusps", help="list cusp representatives of Gamma0(N)")
    q.add_argument("N", type=int)
    q.set_defaults(fn=cmd_cusps)

    q = sub.add_parser("order", help="order of an eta quotient at a cusp")
    q.add_argument("eta")
    q.add_argument("cusp")
    q.set_defaults(fn=cmd_order)

    q = sub.add_parser("newman", help="test the modularity conditions")
    q.add_argument("eta")
    q.set_defaults(fn=cmd_newman)

    q = sub.add_parser("find-t", help="search for the taming generator")
    q.add_argument("spec")
    q.set_defaults(fn=cmd_find_t)

    q = sub.add_parser("basis", help="print the algebra basis for a family")
    q.add_argument("spec")
    q.set_defaults(fn=cmd_basis)

    q = sub.add_parser("u-image", help="one fundamental operator image")
    q.add_argument("spec")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("k", type=int)
    q.add_argument("--mod", help="reduce mod ell^B, e.g. --mod 5^2")
    q.set_defaults(fn=cmd_u_image)

    q = sub.add_parser("verify", help="run the ell-adic verification")
    q.add_argument("spec")
    q.add_argument("--B", type=int, default=None)
    q.add_argument("--json", action="store_true", help="print the JSON report")
    q.add_argument("-o", "--output", help="write the JSON report to a file")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("direct-check", help="brute-force a single congruence")
    q.add_argument("spec")
    q.add_argument("m", type=int)
    q.add_argument("j", type=int)
    q.add_argument("e", type=int)
    q.add_argument("n_max", type=int)
    q.set_defaults(fn=cmd_direct_check)

    q = sub.add_parser("tables", help="reproduce the cusp and order tables")
    q.set_defaults(fn=cmd_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3
    except (EtacheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # never the exit 1 of a failed conjecture
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
