"""Exit codes, golden output stability, and spec-file round trips."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from etacheck import cli
from etacheck.basis import load_basis_n20
from etacheck.cli import main, parse_eta_spec
from etacheck.errors import SpecError
from etacheck.ujump import UImageTable, build_A
from etacheck.verifier import CongruenceFamilySpec, rogers_ramanujan


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src, env = str(SRC), dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_parse_eta_spec():
    eq = parse_eta_spec("20:1^2,4^2,10^8,5^-2,20^-10")
    assert eq.level == 20
    assert dict(eq.exponents) == {1: 2, 4: 2, 10: 8, 5: -2, 20: -10}
    assert parse_eta_spec("12:").exponents == ()
    with pytest.raises(SpecError):
        parse_eta_spec("20")
    with pytest.raises(SpecError):
        parse_eta_spec("20:x^2")


def test_cusps_command(capsys):
    code, out, _ = run(capsys, "cusps", "20")
    assert code == 0
    assert "6 cusp classes" in out
    assert "1/20   (infinity class)" in out and out.count("(infinity class)") == 1
    # python -m etacheck.cli runs the same command
    done = subprocess.run([sys.executable, "-m", "etacheck.cli", "cusps", "20"],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, out)


def test_concurrent_cold_writers_leave_what_one_writer_leaves(tmp_path):
    # three cold runs on one cache directory, more than a 2-core host runs at
    # once, all computing and storing the same image
    def start(cache):
        return subprocess.Popen(
            [sys.executable, "-m", "etacheck.cli", "--cache-dir", str(cache),
             "u-image", "rogers-ramanujan", "1", "-2", "0"],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def files(cache):
        return {p.relative_to(cache): p.read_bytes() for p in cache.rglob("*") if p.is_file()}

    alone = start(tmp_path / "alone")
    out, _ = alone.communicate(timeout=120)
    assert alone.returncode == 0
    writers = [start(tmp_path / "shared") for _ in range(3)]
    try:
        done = [(w.communicate(timeout=120), w.returncode) for w in writers]
    finally:
        for w in writers:
            w.kill()  # a no-op once it has exited
    assert all(code == 0 and stdout == out for (stdout, _), code in done)
    (key_dir,) = (tmp_path / "shared").iterdir()
    assert list(key_dir.glob("*.tmp")) == []
    assert files(tmp_path / "shared") == files(tmp_path / "alone")


def test_order_and_newman_commands(capsys):
    code, out, _ = run(capsys, "order", "20:1^2,4^2,10^8,5^-2,20^-10", "1/20")
    assert code == 0 and out.strip() == "-5"
    code, out, _ = run(capsys, "order", "100:1^-3,2^5,4^-2,25^3,50^-5,100^2", "1/50")
    assert code == 0 and out.strip() == "-5"
    # a quotient that is not modular has a rational order
    code, out, _ = run(capsys, "order", "20:1^1,4^-3", "1/2")
    assert code == 0 and out == "-5/12\n"
    code, out, _ = run(capsys, "newman", "20:1^2,4^2,10^8,5^-2,20^-10")
    assert code == 0 and "square witness" in out
    code, out, _ = run(capsys, "newman", "2:1^1,2^-1")
    assert code == 1


def test_usage_errors_exit_2(capsys, tmp_path, image_cache_dir, monkeypatch):
    code, _, _ = run(capsys, "order", "20-bad", "1/2")
    assert code == 2
    code, _, err = run(capsys, "verify", "no-such-family")
    assert code == 2 and "'no-such-family' is neither a built-in family nor a file" in err
    assert main(["no-such-subcommand"]) == 2
    code, out, _ = run(capsys, "--help")  # argparse's own exit 0
    assert code == 0 and out.startswith("usage: etacheck")
    # the generator and basis searches have fixed bounds, not options
    for command in ("find-t", "basis"):
        code, out, err = run(capsys, command, "rogers-ramanujan", "--bound", "12")
        assert code == 2 and out == "" and "unrecognized arguments: --bound" in err
    # malformed numbers in a cusp, a --mod or a spec file: exit 2, no traceback
    for cusp in ("abc", "1/x", "1/"):
        code, out, err = run(capsys, "order", "20:1^2,4^2,10^8,5^-2,20^-10", cusp)
        assert code == 2 and out == "" and "cusp" in err
    code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                         "u-image", "rogers-ramanujan", "0", "-1", "0", "--mod", "5^x")
    assert code == 2 and out == "" and "--mod" in err
    # an eta piece is d^e: a bare divisor is not read as d^1, and the
    # refusal names the piece whose ^exponent is missing
    for spec, piece in (("20:5", "'5'"), ("20:1^2,5^", "'5^'"), ("20:1^2, 4", "' 4'")):
        code, out, err = run(capsys, "order", spec, "oo")
        assert code == 2 and out == "" and (
            f"cannot parse eta spec '{spec}': piece {piece} is missing its ^exponent" in err), spec
    # a level, a cusp or a ring that does not exist: exit 2 with its reason
    for argv, message in ((("cusps", "0"), "level must be positive"),
                          (("order", "0:", "oo"), "level must be a positive integer"),
                          (("order", "20:1^2,4^2,10^8,5^-2,20^-10", "0/0"), "0/0 is not a cusp")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv
    # a --mod that names no ring Z/ell^power is refused before the basis
    # search and the image, so nothing is written to a cold cache
    cold = tmp_path / "cold"
    cold.mkdir()
    for mod, message in (("4^1", "modulus base 4 is not prime"),
                         ("5^0", "modulus exponent must be >= 1"),
                         ("0^0", "modulus base 0 is not prime")):
        code, out, err = run(capsys, "--cache-dir", str(cold),
                             "u-image", "rogers-ramanujan", "0", "-3", "0", "--mod", mod)
        assert code == 2 and out == "" and message in err, mod
    assert list(cold.iterdir()) == []
    # an image index outside the basis is bad usage, refused before any work
    code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                         "u-image", "rogers-ramanujan", "0", "0", "9")
    assert code == 2 and out == "" and "basis index 9 out of range" in err
    # as is an A-power other than 0 and 1
    code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                         "u-image", "rogers-ramanujan", "2", "0", "0")
    assert code == 2 and out == "" and "only A-powers 0 and 1" in err
    # so is a t-power beyond the +-64 a run may reach, whatever the cache holds
    def compute(*key):
        raise AssertionError(f"image {key} computed")

    monkeypatch.setattr(UImageTable, "_compute", compute)
    for j in ("5000", "-5000", "65"):
        code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                             "u-image", "rogers-ramanujan", "0", j, "0")
        assert code == 2 and out == "" and f"t-power {j} lies beyond" in err
    good = {"M": 4, "r": {"1": -3, "2": 5, "4": -2}, "ell": 5, "c": 24,
            "pattern": "even-alpha", "B": 2}
    # a fractional or boolean number is refused, not truncated to an integer;
    # a divisor key must be written as to_json writes it, the name a string
    for bad in ({**good, "r": [[1, -3]]}, {**good, "M": "x"}, [good],
                {**good, "c": 24.9, "B": 2.5}, {**good, "B": True},
                *({**good, "r": {"1": -3, key: 5, "4": -2}}
                  for key in ("0_2", " 2", "+2", "\u0662", "x")),
                {**good, "name": ["x"]}, {**good, "b": 7}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", str(path))
        assert code == 2 and out == "" and "malformed family spec" in err
    # as are a progression constant sharing the factor ell, a level M below
    # 1, an unknown pattern and a missing field, each with its reason
    missing_c = {key: value for key, value in good.items() if key != "c"}
    for bad, message in (({**good, "c": 25}, "coprime"),
                         ({**good, "M": 0}, "M must be a positive integer"),
                         ({**good, "pattern": "odd-alpha"}, "unknown pattern kind 'odd-alpha'"),
                         (missing_c, "family spec is missing field 'c'")):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", str(path))
        assert code == 2 and out == "" and message in err, message
    # a key that is not a string (only a dict built in Python has one) is
    # checked as a number, not truncated
    with pytest.raises(SpecError, match="divisor 1.9"):
        CongruenceFamilySpec.from_json({**good, "r": {1.9: -3, 2: 5, 4: -2}})
    # a misspelt field is refused, never run at the default B
    with pytest.raises(SpecError, match=r"malformed family spec: unknown fields \['b'\]"):
        CongruenceFamilySpec.from_json({**good, "b": 7})


def test_unexpected_error_exits_3(capsys, monkeypatch):
    # an error main does not map is never the exit 1 of a failed conjecture
    def oracle(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "direct_oracle", oracle)
    code, out, err = run(capsys, "direct-check", "rogers-ramanujan", "25", "24", "1", "100")
    assert code == 3 and out == "" and "MemoryError" in err


def test_unusable_paths_exit_2(capsys, tmp_path, image_cache_dir):
    # a path that cannot be read or written is bad usage, never the exit 1
    # of a failed conjecture and never a traceback
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    undecodable = tmp_path / "binary.json"
    undecodable.write_bytes(b"\xff\xfe")
    for argv in (("--cache-dir", str(not_a_dir), "verify", "rogers-ramanujan", "--B", "1"),
                 ("--cache-dir", str(image_cache_dir), "verify", str(tmp_path)),
                 ("--cache-dir", str(image_cache_dir), "verify", str(undecodable)),
                 ("--cache-dir", str(image_cache_dir), "verify", "rogers-ramanujan",
                  "--B", "1", "-o", str(tmp_path / "no" / "such" / "dir" / "r.json"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "VERIFIED" not in out, argv


def test_malformed_cache_file_exits_3(capsys, tmp_path):
    from etacheck.basis import load_basis_n20
    from etacheck.ujump import UImageTable, build_A
    from etacheck.verifier import rogers_ramanujan

    table = UImageTable(load_basis_n20(), build_A(rogers_ramanujan().gen), 5,
                        cache_dir=tmp_path)
    path = table._path(1, 0, 0)  # the one image the first step needs
    path.parent.mkdir(parents=True)
    header = "20 5 1 0 0 4\n"
    # a term outside the module (k beyond v, |j| beyond the ceiling), or one
    # listed twice, is corruption, not bad usage
    for body in (header + "-1 0\n", "", header + "0 9 1\n", header + "-99 0 1\n",
                 header + "-2 0 1\n-2 0 1\n"):
        path.write_text(body)
        code, out, err = run(capsys, "--cache-dir", str(tmp_path),
                             "verify", "rogers-ramanujan", "--B", "1")
        assert code == 3 and "VERIFIED" not in out and "malformed" in err


def test_cache_file_under_another_key_exits_3(capsys, tmp_path):
    # a well-formed image stored under the wrong key is corruption: it is
    # refused, never printed as the image of the key it is filed under
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path),
                     "u-image", "rogers-ramanujan", "0", "-1", "0")
    assert code == 0
    stored, = tmp_path.glob("*/i0_j-1_k0.txt")
    shutil.copy(stored, stored.with_name("i0_j-2_k0.txt"))
    code, out, err = run(capsys, "--cache-dir", str(tmp_path),
                         "u-image", "rogers-ramanujan", "0", "-2", "0")
    assert code == 3 and out == "" and "does not match its key" in err


def test_undecodable_cache_file_exits_3(capsys, tmp_path):
    # a cache file whose bytes are not text is malformed like any other
    # corrupted entry: refused as a contract violation, never a traceback
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path),
                     "verify", "rogers-ramanujan", "--B", "1")
    assert code == 0
    stored, = tmp_path.glob("*/i1_j0_k0.txt")
    stored.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "--cache-dir", str(tmp_path),
                         "verify", "rogers-ramanujan", "--B", "1")
    assert code == 3 and "is malformed" in err and "Traceback" not in err


def test_cache_dir_defaults_to_etacheck_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ETACHECK_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "u-image", "rogers-ramanujan", "0", "-1", "0")
    assert code == 0
    fingerprint = UImageTable(load_basis_n20(), build_A(rogers_ramanujan().gen), 5).fingerprint()
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.txt")] \
        == [f"{fingerprint}/i0_j-1_k0.txt"]


def test_a_repeated_spec_key_exits_2(capsys, tmp_path):
    # json.loads alone keeps a repeated key's last value: "1": -4 after
    # "1": -3 would run Andrews-Sellers under the spec's name
    path = tmp_path / "family.json"
    for text, key in (('{"M": 4, "r": {"1": -3, "1": -4, "2": 5, "4": -2}, "ell": 5, "c": 24, '
                       '"pattern": "even-alpha", "B": 2}', "'1'"),
                      ('{"M": 4, "r": {"1": -3, "2": 5, "4": -2}, "ell": 5, "c": 24, '
                       '"pattern": "even-alpha", "B": 2, "B": 1}', "'B'")):
        path.write_text(text)
        code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", str(path))
        assert code == 2 and out == "" and f"malformed family spec: repeated key {key}" in err
    assert not (tmp_path / "cache").exists()


def test_no_home_needs_a_cache_option_only_to_open_a_table(capsys, tmp_path, monkeypatch):
    # with neither HOME nor a passwd entry there is no ~/.cache: a command
    # that opens no table runs, one given --cache-dir runs, and one with no
    # cache location exits 2 naming the two ways to give one
    import pwd

    def no_entry(uid):
        raise KeyError(uid)

    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("ETACHECK_CACHE", raising=False)
    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    code, out, _ = run(capsys, "cusps", "5")
    assert code == 0 and "2 cusp classes" in out
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "verify", "rogers-ramanujan", "--B", "1")
    assert code == 0 and out.rstrip().endswith("VERIFIED")
    code, out, err = run(capsys, "verify", "rogers-ramanujan", "--B", "1")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and "--cache-dir" in err and "ETACHECK_CACHE" in err


def test_verify_rejects_bad_counts(capsys, tmp_path, image_cache_dir):
    # the spec alone sets a run's length: a count is a usage error, never a
    # run past the steps mod 5^B can show (which would fail a true family)
    code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                         "verify", "rogers-ramanujan", "--B", "2", "--iterations", "6")
    assert code == 2 and out == "" and "--iterations" in err
    # --B 0 is rejected for a built-in and for a spec file, not replaced by its B
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"M": 4, "r": {"1": -3, "2": 5, "4": -2}, "ell": 5,
                                "c": 24, "pattern": "even-alpha", "B": 2}))
    for source in ("rogers-ramanujan", str(path)):
        code, out, err = run(capsys, "--cache-dir", str(image_cache_dir),
                             "verify", source, "--B", "0")
        assert code == 2 and "VERIFIED" not in out and "B must be >= 1" in err
    assert main(["--threads", "2", "cusps", "20"]) == 2


def test_contract_violations_exit_3(capsys, monkeypatch):
    from etacheck import cli
    from etacheck.errors import ContractError

    def boom(N):
        raise ContractError("forced")

    monkeypatch.setattr(cli, "cusp_representatives", boom)
    code, _, err = run(capsys, "cusps", "20")
    assert code == 3 and "contract" in err


def test_find_t_command(capsys):
    code, out, _ = run(capsys, "find-t", "rogers-ramanujan")
    assert code == 0
    assert "1^2,4^2,5^-2,10^8,20^-10" in out
    assert "ord at 1/20: -5" in out


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "rogers-ramanujan")
    assert code == 0
    assert "v = 4" in out
    assert "[ord_inf -6]" in out


def test_direct_check_exit_codes(capsys):
    code, out, _ = run(capsys, "direct-check", "rogers-ramanujan", "25", "24", "1", "40")
    assert code == 0 and "confirmed" in out
    code, out, _ = run(capsys, "direct-check", "rogers-ramanujan", "125", "99", "2", "50")
    assert code == 1 and "FAILS at n = 0" in out


def test_direct_check_rejects_bad_progressions(capsys):
    # none of these is a progression to check: e=0 would "confirm" 5^0, e=-1
    # would test against the float 5**-1, j=-30 would index from the end
    for m, j, e, n_max in (("25", "24", "0", "10"), ("25", "24", "-1", "10"),
                           ("25", "-30", "1", "10"), ("0", "24", "1", "10"),
                           ("25", "24", "1", "-1")):
        code, out, err = run(capsys, "direct-check", "rogers-ramanujan", m, j, e, n_max)
        assert code == 2 and out == "" and "direct check needs" in err


def test_partition_specs_below_level_20(capsys, tmp_path):
    # p(n) runs the generic find_t/construct_basis path at levels 5 and 7
    cases = (({"ell": 5, "pattern": "every-alpha", "B": 4}, [0, 1, 2, 3, 4]),
             ({"ell": 7, "pattern": "even-alpha", "B": 3}, [0, 1, 2, 2, 3, 3, 3]))
    paths = []
    for fields, V in cases:
        path = tmp_path / f"partitions-{fields['ell']}.json"
        path.write_text(json.dumps({"name": path.stem, "M": 1, "r": {"1": -1},
                                    "c": 24, **fields}))
        paths.append(path)
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path / "cache"),
                           "verify", str(path), "--json")
        assert code == 0 and "VERIFIED" in out
        assert json.loads(out[out.index("\n{"):])["report"]["V"] == V
    # Ramanujan's 5^4 | p(625n+599), read off the raw expansion
    code, out, _ = run(capsys, "direct-check", str(paths[0]), "625", "599", "4", "20")
    assert code == 0
    assert out == "confirmed: 5^4 divides a(625*n+599) for all n <= 20\n"


def test_tables_bytes_stable(capsys):
    code1, out1, _ = run(capsys, "tables")
    code2, out2, _ = run(capsys, "tables")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "stability exponents: m_A=2 m_t=5 m_1/t=5 m_k=[2, 3, 4, 6]" in out1
    # the cusp tables and the order lists are each printed by one loop over
    # their levels, so the bytes are pinned: a swapped level still prints
    # two well-formed tables
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "b026f6214f35ba721e18c9d69dde2ee8aabcf472b7654f6aceb8866bc4d34a69")


def test_failing_conjecture_exits_1(capsys, tmp_path, image_cache_dir):
    # the Rogers-Ramanujan data claimed at every step: v_1 = 0 and v_2 = 1
    # fall short of 1 and 2; at B = 1 the one failing step is the last
    for B, passed in ((2, [True, False, False]), (1, [True, False])):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"M": 4, "r": {"1": -3, "2": 5, "4": -2}, "ell": 5,
                                    "c": 24, "pattern": "every-alpha", "B": B}))
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                           "verify", str(path), "-o", str(out_file))
        assert code == 1
        assert out.rstrip().endswith("CONJECTURE FAILS") and "VERIFIED" not in out
        assert "  alpha= 1  v=0 need>=1  FAIL\n" in out
        report = json.loads(out_file.read_text())["report"]
        assert report["ok"] is False and report["passed"] == passed


def test_verify_command_json_report(capsys, tmp_path, image_cache_dir):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                       "verify", "rogers-ramanujan", "--B", "2", "-o", str(out_file))
    assert code == 0
    assert "VERIFIED" in out
    payload = json.loads(out_file.read_text())
    assert payload["report"]["V"] == [0, 0, 1, 1, 2]
    # spec echo round-trips
    again = CongruenceFamilySpec.from_json(payload["spec"])
    assert again.to_json() == payload["spec"]
    # with -o, --json goes to the file alone: stdout keeps the text report
    code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                       "verify", "rogers-ramanujan", "--B", "2", "--json", "-o", str(out_file))
    assert code == 0 and out.rstrip().endswith("VERIFIED") and '"report"' not in out
    assert json.loads(out_file.read_text())["report"]["V"] == [0, 0, 1, 1, 2]


def test_u_image_command(capsys, image_cache_dir):
    # --mod 5 means 5^1
    for mod in ("5^1", "5"):
        code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                           "u-image", "rogers-ramanujan", "0", "-1", "0", "--mod", mod)
        assert code == 0
        assert out.strip() == "<4*t^-1 + 2*t^-1*g1 + 1*t^-1*g2 + 1*t^-1*g3 over Z/5^1>"


def test_custom_spec_file(capsys, tmp_path, image_cache_dir):
    data = {"name": "custom-rr", "M": 4, "r": {"1": -3, "2": 5, "4": -2},
            "ell": 5, "c": 24, "pattern": "even-alpha", "B": 2}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir), "verify", str(path))
    assert code == 0 and "custom-rr: ell=5 B=2 iterations=4" in out
    # --B replaces the file's B, as it does a built-in's
    code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                       "verify", str(path), "--B", "1")
    assert code == 0 and "custom-rr: ell=5 B=1 iterations=2" in out


def fresh_import(module):
    """The modules that importing `module` adds, in a fresh interpreter."""
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(*set(sys.modules) - before)")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_needs_neither_dataclasses_nor_inspect():
    # every short run pays for the package's imports, and dataclasses, with
    # the inspect, ast and dis it pulls in, costs more than the rest of a
    # warm verify
    assert {"dataclasses", "inspect"} & fresh_import("etacheck.cli") == set()


def test_series_loads_no_upper_layer_and_cli_loads_every_module():
    # the package root re-exports nothing, so the series layer loads no
    # upper layer; cli still loads every module, which perfbench/layers.py
    # needs before it patches their functions
    def ours(names):
        return {name for name in names if name.split(".")[0] == "etacheck"}
    assert ours(fresh_import("etacheck.series")) == {
        "etacheck", "etacheck.errors", "etacheck.series"}
    modules = {"etacheck." + p.stem for p in (SRC / "etacheck").glob("[!_]*.py")}
    assert ours(fresh_import("etacheck.cli")) == {"etacheck"} | modules


def test_a_check_loads_neither_fractions_nor_decimal(tmp_path):
    # a check's orders are integers and none of its products is big enough
    # for libmpdec, so the cold and the warm verify and the oracle, each in a
    # fresh process, leave out fractions and decimal with the numbers and
    # _decimal they pull in
    code = ("import sys; from etacheck.cli import main; status = main(sys.argv[1:]); "
            "print('loaded:', *sorted({'fractions', 'decimal', '_decimal', 'numbers'} "
            "& set(sys.modules))); sys.exit(status)")
    cache = tmp_path / "cache"
    verify = ["--cache-dir", str(cache), "verify", "rogers-ramanujan", "--B", "5"]
    for argv, status in ((verify, 0), (verify, 0),
                         (["direct-check", "rogers-ramanujan", "125", "99", "2", "50"], 1)):
        done = subprocess.run([sys.executable, "-c", code, *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == status, done.stderr
        assert done.stdout.splitlines()[-1] == "loaded:", argv
    # the first verify computed and stored the 33 images the second one loaded
    assert len(list(cache.rglob("*.txt"))) == 33
