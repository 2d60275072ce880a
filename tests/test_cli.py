"""CLI contract: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cliffordprolate
from cliffordprolate.cli import main
from cliffordprolate.prolate import make_cpswf


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_eigs_csv_shape_and_roundtrip():
    res = run("eigs", "--m", "2", "--k", "0", "--c", "1", "--count", "3")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "n,k,chi,lambda,abs_mu,phase_exponent"
    assert len(lines) == 4
    chi = float(lines[1].split(",")[2])
    assert chi == make_cpswf(0, 0, 2, 1.0).chi  # 17 digits round-trip exactly


def test_eigs_byte_identical():
    a = run("eigs", "--m", "3", "--k", "1", "--c", "1.5", "--count", "4")
    b = run("eigs", "--m", "3", "--k", "1", "--c", "1.5", "--count", "4")
    assert a.output == b.output and a.exit_code == b.exit_code == 0


def test_eigs_c_zero_reports_chi_only():
    res = run("eigs", "--m", "2", "--k", "1", "--c", "0", "--count", "2")
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    assert [r[3] for r in rows] == ["0", "0"]
    # chi(0) for n = 1, k = 1, m = 2 is (n+1)(n+m+2k-1) = 2 * 4
    assert float(rows[1][2]) == 8.0


def test_json_output_is_valid_and_flat():
    res = run("eigs", "--m", "2", "--k", "0", "--c", "1", "--count", "2",
              "--format", "json")
    data = json.loads(res.output)
    assert isinstance(data, list) and len(data) == 2
    assert set(data[0]) == {"n", "k", "chi", "lambda", "abs_mu", "phase_exponent"}
    assert data[0]["lambda"] == make_cpswf(0, 0, 2, 1.0).lam


def test_spectrum_ordering():
    res = run("spectrum", "--m", "2", "--kmax", "1", "--nmax", "1", "--c", "1")
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    assert [(r[1], r[0]) for r in rows] == [("0", "0"), ("0", "1"),
                                            ("1", "0"), ("1", "1")]


def test_radial_grid_and_odd_origin():
    res = run("radial", "--n", "1", "--k", "0", "--m", "2", "--c", "1",
              "--grid", "11")
    lines = res.output.splitlines()
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_field_csv_columns_m2():
    res = run("field", "--n", "0", "--k", "0", "--m", "2", "--c", "1",
              "--grid", "5")
    header = res.output.splitlines()[0].split(",")
    assert header[:2] == ["x1", "x2"]
    assert "e12_re" in header and "x3" not in header
    # all emitted points lie in the closed unit ball
    for line in res.output.splitlines()[1:]:
        x1, x2 = (float(v) for v in line.split(",")[:2])
        assert x1 * x1 + x2 * x2 <= 1 + 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_grid_of_corners_has_no_rows(m, fmt):
    # the 2 x 2 grid is the four corners, all outside the disc
    res = run(*f"field --n 0 --k 0 --i 1 --m {m} --c 1 --grid 2 --format {fmt}".split())
    assert res.exit_code == 0
    if fmt == "json":
        assert json.loads(res.output) == []
    else:
        [header] = res.output.splitlines()
        assert len(header.split(",")) == m + 2 ** (m + 1)


@pytest.mark.parametrize("m, grid, i", [(2, 4, 1), (3, 7, 2)])
def test_field_rows_are_the_disc_points_in_grid_order(m, grid, i):
    from cliffordprolate.prolate import eval_field_coeffs

    ax = np.linspace(-1.0, 1.0, grid)
    pts = np.array([(a, b) + (0.0,) * (m - 2) for a in ax for b in ax if a * a + b * b <= 1.0])
    vals = eval_field_coeffs(make_cpswf(1, 1, m, 1.0), i, pts)
    want = [",".join(format(float(v), ".17g") for v in (*p, *np.column_stack(
        (row, np.zeros_like(row))).ravel())) for p, row in zip(pts, vals)]
    res = run(*f"field --n 1 --k 1 --i {i} --m {m} --c 1 --grid {grid}".split())
    assert res.exit_code == 0 and res.output.splitlines()[1:] == want
    # the field is real: every blade's _im cell is 0
    header, *lines = res.output.splitlines()
    im = [j for j, name in enumerate(header.split(",")) if name.endswith("_im")]
    assert len(im) == 1 << m and lines
    assert all(line.split(",")[j] == "0" for line in lines for j in im)


def test_field_at_m3_degree_9():
    res = run(*"field --n 0 --k 9 --m 3 --c 1 --grid 3".split())
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 1 + 5  # the 3 x 3 grid's points in the disc


def test_commands_at_m4():
    field = run(*"field --n 1 --k 2 --i 3 --m 4 --c 1 --grid 5".split())
    assert field.exit_code == 0
    header = field.output.splitlines()[0].split(",")
    assert header[:4] == ["x1", "x2", "x3", "x4"] and len(header) == 4 + 2 * 16
    assert all(line.split(",")[2:4] == ["0", "0"] for line in field.output.splitlines()[1:])
    ver = run(*"verify --m 4 --c 1 --k 0..1 --nmax 2".split())
    assert ver.exit_code == 0
    lines = ver.output.splitlines()
    assert len(lines) == 1 + 6 and all(line.endswith(",pass") for line in lines[1:])
    acc = run(*"accumulate --m 4 --c 1 --K 2 --N 2 --points 5".split())
    assert acc.exit_code == 0
    rows = [line.split(",") for line in acc.output.splitlines()[1:]]
    assert len(rows) == 5 and all(0 < float(g) <= float(lim) for _, g, lim in rows)


@pytest.mark.parametrize("c, code", [("1100", 0), ("2100", 0), ("3700", 3)])
def test_eigs_at_large_c_solves_below_the_truncation_cap(monkeypatch, c, code):
    # c = 1100 and c = 2100 certify at their first truncations, 1,229 and
    # 2,340 for the odd block; c = 3,681 is the largest whose blocks start
    # within the cap, and c = 3700 exits before any eigensolve
    import cliffordprolate.galerkin as galerkin

    if code == 3:
        def no_solve(*a, **kw):
            raise AssertionError("eigensolve started past the truncation cap")

        monkeypatch.setattr(galerkin, "eigh_tridiagonal", no_solve)
    res = run("eigs", "--m", "2", "--k", "0", "--c", c, "--count", "2")
    assert res.exit_code == code
    assert len(res.stdout.splitlines()) == (3 if code == 0 else 0)


def test_verify_pass_and_fail_exit_codes():
    ok = run("verify", "--m", "2", "--c", "1", "--k", "0..1", "--nmax", "1")
    assert ok.exit_code == 0
    assert ok.output.count("pass") == 4
    bad = run("verify", "--m", "2", "--c", "1", "--k", "0", "--nmax", "0",
              "--threshold", "1e-20")
    assert bad.exit_code == 1
    assert "fail" in bad.output


def test_verify_gates_on_residuals_at_large_c():
    # ratio_spread reaches about 3e4 here (it divides by a tiny psi) and is
    # reported, not gated; both residuals are at rounding level
    args = "verify --m 2 --c 20 --k 0..1 --nmax 3".split()
    ok = run(*args)
    assert ok.exit_code == 0
    lines = ok.output.splitlines()
    assert lines[0] == "n,k,abs_mu_est,lambda_est,ratio_spread,residual,status"
    assert len(lines) == 9 and all(line.endswith(",pass") for line in lines[1:])
    assert max(float(line.split(",")[4]) for line in lines[1:]) > 1
    bad = run(*args, "--threshold", "1e-20")
    assert bad.exit_code == 1
    assert bad.output.count(",fail") == 8


@pytest.mark.parametrize("args", [
    "verify --m 2 --c 200 --k 0 --nmax 3",
    "verify --m 2 --c 600 --k 0 --nmax 3",
    "verify --m 3 --c 300 --k 0..1 --nmax 2",
])
def test_verify_passes_at_large_c(args):
    # a fixed 256-node rule failed each of these: the rule now grows with c
    res = run(*args.split())
    assert res.exit_code == 0
    lines = res.output.splitlines()[1:]
    assert lines and all(line.endswith(",pass") for line in lines)


def test_verify_past_the_node_cap_exits_2_before_any_solve(monkeypatch):
    import cliffordprolate.cli as cli_mod

    def no_solve(*a, **kw):
        raise AssertionError("solve started past the node cap")

    monkeypatch.setattr(cli_mod, "cpswf_blocks", no_solve)
    res = run(*"verify --m 2 --c 3351 --k 0 --nmax 0".split())
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == ("Error: verify's quadrature takes c <= 3350 (4096 Gauss nodes), "
                          "got c = 3351\n")


# environments that the package once read, each with a command it changed
ENVIRONMENTS = {
    "env-tol-not-number": ({"CPSWF_TOL": "abc"}, "eigs --m 2 --k 0 --c 1 --count 1"),
    "env-nodes-not-number": ({"CPSWF_NODES": "abc"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-nodes-too-many": ({"CPSWF_NODES": "10000"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-tol-too-loose": ({"CPSWF_TOL": "1e-3"}, "spectrum --m 2 --kmax 0 --nmax 0 --c 1"),
    "env-nodes-zero": ({"CPSWF_NODES": "0"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-nodes-five": ({"CPSWF_NODES": "5"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-nodes-127": ({"CPSWF_NODES": "127"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-nodes-128": ({"CPSWF_NODES": "128"}, "verify --m 2 --c 1 --k 0 --nmax 0"),
    "env-both-eigs": ({"CPSWF_TOL": "abc", "CPSWF_NODES": "5"},
                      "eigs --m 3 --k 1 --c 2 --count 4"),
    "env-both-verify": ({"CPSWF_TOL": "abc", "CPSWF_NODES": "5"},
                        "verify --m 3 --c 20 --k 0..1 --nmax 2"),
}


@pytest.mark.parametrize("case", ENVIRONMENTS)
def test_environment_is_not_read(case):
    env, args = ENVIRONMENTS[case]
    plain = run(*args.split())
    res = CliRunner().invoke(main, args.split(), env=env)
    assert res.exit_code == plain.exit_code == 0
    assert res.stdout_bytes == plain.stdout_bytes and plain.stdout_bytes


@pytest.mark.parametrize("args, rows", [
    ("eigs --m 2 --k 170 --c 1 --count 2", 2),
    ("spectrum --m 2 --kmax 170 --nmax 1 --c 1", 342),
    ("radial --n 1 --k 170 --m 2 --c 1 --grid 5", 5),
    ("field --n 1 --k 170 --m 2 --c 1 --grid 5", 13),
])
def test_degree_170_runs_past_the_gamma_overflow(args, rows):
    # Gamma(kappa + m/2 + 1) overflows a float from kappa + m/2 = 170
    res = run(*args.split())
    assert res.exit_code == 0 and res.exception is None
    header, *lines = res.output.splitlines()
    assert len(lines) == rows
    if "chi" in header:
        chi = header.split(",").index("chi")
        assert all(math.isfinite(float(line.split(",")[chi])) for line in lines)


def test_degree_165_rows_are_the_direct_form():
    res = run(*"eigs --m 2 --k 165 --c 1 --count 2".split())
    assert res.output.splitlines()[1:] == [
        "0,165,39.241937174416272,0,3.523230085364255e-216,1",
        "1,165,703.24334576687352,0,6.6301818027003676e-218,2"]


def test_verify_at_degree_170_writes_its_table_and_fails():
    # s^(-nu) overflows in the transform from nu of about 67 (ROADMAP item 4):
    # numpy warns, the residuals read nan and every row fails, with no traceback
    res = subprocess.run([sys.executable, "-m", "cliffordprolate.cli", *"verify --m 2 --c 1 "
                          "--k 170 --nmax 1".split()], env=_process_env(),
                         capture_output=True, text=True)
    assert res.returncode == 1
    header, *lines = res.stdout.splitlines()
    assert header == "n,k,abs_mu_est,lambda_est,ratio_spread,residual,status"
    assert len(lines) == 2 and all(line.endswith(",nan,fail") for line in lines)
    assert "Traceback" not in res.stderr and "RuntimeWarning" in res.stderr


def test_accumulate_columns():
    res = run("accumulate", "--m", "2", "--c", "1", "--k", "2", "--n", "2",
              "--points", "5")
    lines = res.output.splitlines()
    assert lines[0] == "r,G,limit"
    lims = {line.split(",")[2] for line in lines[1:]}
    assert len(lims) == 1
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    lim = float(lims.pop())
    assert all(v <= lim + 1e-9 for v in vals)


def test_legendre_long_format():
    res = run("legendre", "--m", "2", "--k", "0", "--n", "1")
    lines = res.output.splitlines()
    assert lines[0] == "kind,order,power,coefficient"
    # p_0 (1 coeff) + p_1 (2) + q_0 (1) + q_1 (2)
    assert len(lines) == 7


# bad inputs that the command reports on one stderr line
BAD_INPUTS = {
    "c-zero": "radial --n 0 --k 0 --m 2 --c 0",
    "k-range-reversed": "verify --m 2 --c 1 --k 2..0 --nmax 0",
    "k-not-integer": "verify --m 2 --c 1 --k x --nmax 0",
    "tol-zero": "radial --n 0 --k 0 --m 2 --c 1 --tol 0",
    "tol-negative": "accumulate --m 2 --c 1 --K 1 --N 1 --tol -1",
    "c-inf": "spectrum --m 2 --kmax 0 --nmax 0 --c inf",
    "c-nan": "eigs --m 2 --k 0 --c nan --count 1",
    "tol-too-loose": "radial --n 0 --k 0 --m 2 --c 1 --tol 1e-3",
    "output-missing-dir": "eigs --m 2 --k 0 --c 1 --count 1 --output {missing}",
    "eigs-c-negative": "eigs --m 2 --k 0 --c -1 --count 1",
    "threshold-nan": "verify --m 2 --c 1 --k 0 --nmax 0 --threshold nan",
    "threshold-negative": "verify --m 2 --c 1 --k 0 --nmax 0 --threshold -1",
    "threshold-zero": "verify --m 2 --c 1 --k 0 --nmax 0 --threshold 0",
    "threshold-inf": "verify --m 2 --c 1 --k 0 --nmax 0 --threshold inf",
}

# the text the Error line must carry, where it names a bound
ERROR_TEXT = {
    "c-zero": "require c > 0",
    "eigs-c-negative": "require c >= 0",
    "threshold-nan": "--threshold must be a finite number > 0, got nan",
    "threshold-negative": "--threshold must be a finite number > 0, got -1",
    "threshold-zero": "--threshold must be a finite number > 0, got 0",
    "threshold-inf": "--threshold must be a finite number > 0, got inf",
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_invalid_arguments_exit_2(tmp_path, case):
    missing = tmp_path / "missing" / "out.csv"
    res = run(*BAD_INPUTS[case].format(missing=missing).split())
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert ERROR_TEXT.get(case, "") in lines[0]
    assert not missing.parent.exists()


@pytest.mark.parametrize("args", [
    "eigs --m 9 --k 0 --c 1 --count 1",
    "eigs --m 2 --k -1 --c 1 --count 1",
    "eigs --m 2 --k 0 --c 1 --count 0",
    "radial --n 0 --k 0 --m 2 --c 1 --grid 1",
    "field --n 0 --k 0 --i 0 --m 2 --c 1",
    "accumulate --m 9 --c 1 --K 1 --N 1",
    "legendre --m 2 --k 0 --n 65",
    "spectrum --m 2 --kmax 0 --nmax 0 --c 1 --format xml",
])
def test_option_parser_rejects_out_of_range(args):
    res = run(*args.split())
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith("Error: Invalid value")


# every command that solves, with the library entry point it reaches
SOLVING = [
    "eigs --m 2 --k 0 --c 1 --count 1",
    "spectrum --m 2 --kmax 0 --nmax 0 --c 1",
    "radial --n 0 --k 0 --m 2 --c 1",
    "field --n 0 --k 0 --m 2 --c 1 --grid 3",
    "verify --m 2 --c 1 --k 0 --nmax 0",
    "accumulate --m 2 --c 1 --K 0 --N 0",
]


def _solvers_raise(monkeypatch):
    """Make every library entry point the CLI solves through raise."""
    import cliffordprolate.cli as cli_mod
    from cliffordprolate.galerkin import ConvergenceError

    def boom(*a, **kw):
        raise ConvergenceError("forced")

    for name in ("make_cpswf", "partial_sum", "solve_radial", "cpswf_blocks"):
        monkeypatch.setattr(cli_mod, name, boom)


def test_convergence_failure_exit_3(monkeypatch):
    _solvers_raise(monkeypatch)
    for args in SOLVING:
        res = run(*args.split())
        assert res.exit_code == 3, args
        assert res.stdout == ""
        assert res.stderr == "Error: convergence failure: forced\n"


def test_eigs_at_c_zero_reads_the_closed_form(monkeypatch):
    # c = 0 solves nothing, so no truncation cap limits --count
    _solvers_raise(monkeypatch)
    res = run(*"eigs --m 2 --k 0 --c 0 --count 1".split())
    assert res.exit_code == 0 and res.output.count("\n") == 2
    res = run(*"eigs --m 2 --k 0 --c 0 --count 9000".split())
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(9000))
    assert [float(r[2]) for r in rows] == [cliffordprolate.c0_eigenvalue(n, 2, 0)
                                           for n in range(9000)]


def test_stdout_stays_open(capsys):
    main.main(["legendre", "--m", "2", "--k", "0", "--n", "0"], standalone_mode=False)
    assert not sys.stdout.closed
    assert capsys.readouterr().out.startswith("kind,order,power,coefficient\r\n")


def test_output_file(tmp_path):
    out = tmp_path / "eigs.csv"
    res = run("eigs", "--m", "2", "--k", "0", "--c", "1", "--count", "2",
              "--output", str(out))
    assert res.exit_code == 0
    text = out.read_bytes().decode()
    assert text.startswith("n,k,chi,lambda,abs_mu,phase_exponent\r\n")
    inline = run("eigs", "--m", "2", "--k", "0", "--c", "1", "--count", "2")
    assert text.replace("\r\n", "\n") == inline.output


def test_lapack_failure_exits_3(monkeypatch):
    import types

    import cliffordprolate.galerkin as galerkin

    def no_convergence(*args):
        return 0, np.zeros(20), np.ones(20, np.int32), np.ones(20, np.int32), 1

    monkeypatch.setattr(galerkin, "scipy_extension",
                        lambda *args: types.SimpleNamespace(dstebz=no_convergence))
    res = run("eigs", "--m", "2", "--k", "0", "--c", "1", "--count", "2")
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr == ("Error: convergence failure: LAPACK dstebz did not converge "
                          "(info=1)\n")


def _process_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH."""
    src = str(Path(cliffordprolate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# runs the CLI on argv[1:] (or only imports it) and reports, as the last line
# of stderr, every scipy module the process loaded
_SCIPY_MODULES = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("\\nscipy: " + " ".join(sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")) + "\\n"))
import cliffordprolate.cli
if sys.argv[1:]:
    cliffordprolate.cli.main(sys.argv[1:], prog_name="cliffordprolate")
"""


@pytest.mark.parametrize("args, code, loaded", [
    ([], 0, ""),
    (["--help"], 0, ""),
    ("legendre --m 2 --k 0 --n 6".split(), 0, ""),
    ("eigs --m 1 --k 0 --c 1".split(), 2, ""),
    ("eigs --m 2 --k 0 --c 1 --count 4".split(), 0, "scipy.linalg._flapack"),
    ("verify --m 2 --c 1 --k 0..1 --nmax 2".split(), 0,
     "scipy.linalg._flapack scipy.special._special_ufuncs"),
], ids=["import", "help", "legendre", "exit-2", "eigs", "verify"])
def test_cli_process_loads_only_the_scipy_extensions_it_calls(args, code, loaded):
    # every CLI process pays its imports: the scipy.linalg and scipy.special
    # packages cost about 0.35 s each, for one LAPACK pair and one ufunc
    res = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, *args], env=_process_env(),
                         capture_output=True, text=True)
    assert res.returncode == code, res.stderr
    assert res.stderr.splitlines()[-1] == f"scipy: {loaded}"


def test_eigs_and_spectrum_read_block_arrays(monkeypatch):
    # both tables come from the block records' arrays; no Cpswf and no
    # per-order RadialEigenpair view is made for them
    import cliffordprolate.prolate as prolate
    from cliffordprolate.galerkin import RadialEigenpair

    built = []
    cpswf = prolate.Cpswf
    view = RadialEigenpair.__getitem__
    monkeypatch.setattr(prolate, "Cpswf", lambda *a: built.append("Cpswf") or cpswf(*a))
    monkeypatch.setattr(RadialEigenpair, "__getitem__",
                        lambda self, N: built.append("view") or view(self, N))
    eigs = run("eigs", "--m", "3", "--k", "2", "--c", "4", "--count", "7")
    spectrum = run("spectrum", "--m", "2", "--kmax", "3", "--nmax", "4", "--c", "2")
    assert eigs.exit_code == spectrum.exit_code == 0
    assert built == []
    rows = [line.split(",") for line in eigs.output.splitlines()[1:]]
    [(_, orders, _)] = cliffordprolate.cpswf_blocks(3, 4.0, [2], 6)
    assert [[float(v) for v in row[2:5]] for row in rows] == [
        [psi.chi, psi.lam, abs(psi.mu)] for psi in orders]
