"""Exit codes, golden output stability, and spec-file round trips."""

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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert "1/20   (infinity class)" in out


def test_order_and_newman_commands(capsys):
    code, out, _ = run(capsys, "order", "20:1^2,4^2,10^8,5^-2,20^-10", "1/20")
    assert code == 0 and out.strip() == "-5"
    code, out, _ = run(capsys, "order", "100:1^-3,2^5,4^-2,25^3,50^-5,100^2", "1/50")
    assert code == 0 and out.strip() == "-5"
    code, out, _ = run(capsys, "newman", "20:1^2,4^2,10^8,5^-2,20^-10")
    assert code == 0 and "square witness" in out
    code, out, _ = run(capsys, "newman", "2:1^1,2^-1")
    assert code == 1


def test_usage_errors_exit_2(capsys, tmp_path, image_cache_dir, monkeypatch):
    code, _, _ = run(capsys, "order", "20-bad", "1/2")
    assert code == 2
    code, _, _ = run(capsys, "verify", "no-such-family")
    assert code == 2
    assert main(["no-such-subcommand"]) == 2
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
                  for key in ("0_2", " 2", "+2", "\u0662")),
                {**good, "name": ["x"]}, {**good, "b": 7}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", str(path))
        assert code == 2 and out == "" and "malformed family spec" in err
    # a progression constant sharing the factor ell is refused at load
    path.write_text(json.dumps({**good, "c": 25}))
    code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", str(path))
    assert code == 2 and out == "" and "coprime" in err
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


def test_u_image_command(capsys, image_cache_dir):
    code, out, _ = run(capsys, "--cache-dir", str(image_cache_dir),
                       "u-image", "rogers-ramanujan", "0", "-1", "0",
                       "--mod", "5^1")
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


def test_import_needs_neither_dataclasses_nor_inspect():
    # every short run pays for the package's imports, and dataclasses, with
    # the inspect, ast and dis it pulls in, costs more than the rest of a
    # warm verify
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = ("import sys; before = set(sys.modules); import etacheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
