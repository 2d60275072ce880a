"""Command-line front end.

Subcommands: eigs, spectrum, radial, field, verify, accumulate, legendre.
Output is CSV (RFC 4180, '.' decimal separator) or JSON (UTF-8 array of
flat records); all numbers are printed with 17 significant digits so
repeated runs are byte-identical and values round-trip.

Exit codes:
  0  success
  1  verify: a check exceeded --threshold (the table is still written);
     the checks are the G_c residual |G_c psi - mu_est psi| / |mu_est psi|
     in the sup norm (not a column) and the QP_c `residual` column, while
     ratio_spread is reported but not checked
  2  invalid input: a bad option value, a non-finite c, a --tol outside
     (0, 1e-4], a verify c whose Gauss rule would pass 4096 nodes, a verify
     --threshold that is not a finite number > 0, or an unwritable --output
  3  convergence failure of the adaptive truncation
Errors of exit codes 2 and 3 that the option parser does not catch itself
are reported on a single stderr line.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import sys

import click
import numpy as np

from .accumulation import limit_value, partial_sum
from .galerkin import DEFAULT_TOL, ConvergenceError
from .galerkin import solve_radial  # noqa: F401  (kept for the benchmark's span hooks)
from .legendre import c0_eigenvalue, radial_sequence
from .operators import rule_nodes, verify as op_verify
from .prolate import cpswf_blocks, eval_field_coeffs, eval_radial, make_cpswf


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _emit(columns, rows, fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(columns) + "\r\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\r\n")
    else:
        def cell(v):
            return json.dumps(v) if isinstance(v, str) else _fmt(v)
        records = ["{" + ", ".join(f'"{c}": {cell(v)}' for c, v in zip(columns, row)) + "}"
                   for row in rows]
        out.write("[\n" + ",\n".join(records) + "\n]\n")


class _Exit(click.ClickException):
    """An error click prints as one 'Error: ...' line before exiting with `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.exit_code = code


def _bounded_tol(tol: float) -> float:
    if not 0 < tol <= 1e-4:
        raise ValueError(f"--tol must be in (0, 1e-4], got {tol:g}")
    return tol


@click.group()
def main():
    """Clifford prolate spheroidal wave functions on the unit ball."""


def command(solves: bool = True):
    """Register a subcommand whose body returns (columns, rows[, ok]).

    The registrar adds --format and --output, plus --tol when the command
    solves (default DEFAULT_TOL, bounded to (0, 1e-4]).  Around the body
    only, a ValueError from an input check exits 2 and a ConvergenceError
    exits 3; the table is then written, and a body that returns ok = False
    exits 1.
    """
    def register(body):
        # wraps also copies the body's @click.option list (__click_params__)
        @functools.wraps(body)
        def run(fmt, output, **kwargs):
            try:
                if solves:
                    kwargs["tol"] = _bounded_tol(kwargs["tol"])
                columns, rows, *ok = body(**kwargs)
            except ConvergenceError as exc:
                raise _Exit(3, f"convergence failure: {exc}") from None
            except ValueError as exc:
                raise _Exit(2, str(exc)) from None
            try:
                sink = (open(output, "w", newline="") if output
                        else contextlib.nullcontext(sys.stdout))
            except OSError as exc:
                raise _Exit(2, f"cannot write --output {output}: {exc.strerror}") from None
            with sink as out:
                _emit(columns, rows, fmt, out)
            if ok and not ok[0]:
                sys.exit(1)

        cmd = main.command()(run)
        if solves:
            cmd.params.append(click.Option(["--tol"], type=float, default=DEFAULT_TOL,
                                           help="Convergence tolerance in (0, 1e-4]; a tol below "
                                                "machine epsilon certifies as epsilon."))
        cmd.params += [
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                         default="csv", show_default=True),
            click.Option(["--output"], type=click.Path(writable=True), default=None,
                         help="Output path (default stdout)."),
        ]
        return cmd
    return register


_M_ANY = click.IntRange(2, 8)
_NONNEG = click.IntRange(min=0)
_GRID = click.IntRange(min=2)


def _spectral_rows(orders):
    """(n, (chi, lambda, |mu|)) for each order, read from the block arrays."""
    return enumerate(zip(orders.chi.tolist(), orders.lam.tolist(), map(abs, orders.mu.tolist())))


@command()
@click.option("--m", type=_M_ANY, required=True)
@click.option("--k", type=_NONNEG, required=True)
@click.option("--c", type=float, required=True)
@click.option("--count", type=click.IntRange(min=1), required=True,
              help="Number of orders n = 0..count-1.")
def eigs(m, k, c, count, tol):
    """Differential and operator eigenvalues for orders n = 0..count-1.

    At c = 0 only chi is meaningful, and it is the closed form
    c0_eigenvalue; lambda and |mu| are reported as 0.
    """
    if c < 0:
        raise ValueError(f"require c >= 0, got {c:g}")
    columns = ["n", "k", "chi", "lambda", "abs_mu", "phase_exponent"]
    if c == 0:
        return columns, [[n, k, c0_eigenvalue(n, m, k), 0.0, 0.0, (n + k) % 4]
                         for n in range(count)]
    [(_, orders, _)] = cpswf_blocks(m, c, [k], count - 1, tol)
    return columns, [[n, k, chi, lam, abs_mu, (n + k) % 4]
                     for n, (chi, lam, abs_mu) in _spectral_rows(orders)]


@command()
@click.option("--m", type=_M_ANY, required=True)
@click.option("--kmax", type=_NONNEG, required=True)
@click.option("--nmax", type=_NONNEG, required=True)
@click.option("--c", type=float, required=True)
def spectrum(m, kmax, nmax, c, tol):
    """Table of (n, k, chi, lambda, |mu|) sorted by (k, n)."""
    rows = [[n, k, chi, lam, abs_mu]
            for k, orders, _ in cpswf_blocks(m, c, range(kmax + 1), nmax, tol)
            for n, (chi, lam, abs_mu) in _spectral_rows(orders)]
    return ["n", "k", "chi", "lambda", "abs_mu"], rows


@command()
@click.option("--n", type=_NONNEG, required=True)
@click.option("--k", type=_NONNEG, required=True)
@click.option("--m", type=_M_ANY, required=True)
@click.option("--c", type=float, required=True)
@click.option("--grid", type=_GRID, default=100, show_default=True)
def radial(n, k, m, c, grid, tol):
    """Radial part of psi_n^k sampled on an equispaced r-grid in [0, 1]."""
    psi = make_cpswf(n, k, m, c, tol)
    r = np.linspace(0.0, 1.0, grid)
    vals = eval_radial(psi, r)
    return ["r", "value"], [[float(ri), float(vi)] for ri, vi in zip(r, vals)]


@command()
@click.option("--n", type=_NONNEG, required=True)
@click.option("--k", type=_NONNEG, required=True)
@click.option("--i", "idx", type=click.IntRange(min=1), default=1, show_default=True,
              help="Monogenic basis index, 1..d_k.")
@click.option("--m", type=_M_ANY, required=True)
@click.option("--c", type=float, required=True)
@click.option("--grid", type=_GRID, default=50, show_default=True,
              help="Points per axis on [-1, 1]^2 (the slice x3 = .. = xm = 0 when m > 2).")
def field(n, k, idx, m, c, grid, tol):
    """Full Clifford-valued field on a planar grid, one column pair per blade.

    Points outside the closed unit ball are omitted.
    """
    psi = make_cpswf(n, k, m, c, tol)
    x1, x2 = np.meshgrid(*[np.linspace(-1.0, 1.0, grid)] * 2, indexing="ij")
    disk = x1 * x1 + x2 * x2 <= 1.0
    pts = np.zeros((np.count_nonzero(disk), m))  # x1 outer, x2 inner: the output row order
    pts[:, 0], pts[:, 1] = x1[disk], x2[disk]
    vals = eval_field_coeffs(psi, idx, pts)
    cols = [f"x{j + 1}" for j in range(m)]
    for mask in range(1 << m):
        name = "e" + "".join(str(j + 1) for j in range(m) if mask >> j & 1) if mask else "e0"
        cols += [f"{name}_re", f"{name}_im"]
    # a point, then (re, im) of each blade; the field is real, so every im
    # is 0; a grid of corners only has no rows
    rows = np.zeros((len(pts), len(cols)))
    rows[:, :m], rows[:, m::2] = pts, vals
    return cols, rows.tolist()


def _k_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    ks = range(int(match[1]), int(match[2] or match[1]) + 1) if match else range(0)
    if not ks:
        raise ValueError("--k must be an integer k >= 0 or a range lo..hi with 0 <= lo <= hi")
    return ks


@command()
@click.option("--m", type=_M_ANY, required=True)
@click.option("--c", type=float, required=True)
@click.option("--k", "kspec", type=str, required=True,
              help="Single k or inclusive range like 0..2.")
@click.option("--nmax", type=_NONNEG, required=True)
@click.option("--threshold", type=float, default=1e-6, show_default=True,
              help="Pass/fail bound on the G_c and QP_c residuals "
                   "(ratio_spread is reported, not checked).")
def verify(m, c, kspec, nmax, threshold, tol):
    """Verify the operator eigenrelations; exit 1 if any check fails."""
    if not 0 < threshold < np.inf:
        raise ValueError(f"--threshold must be a finite number > 0, got {threshold:g}")
    rule_nodes(c)  # a c past the rule's cap exits 2 before any solve
    rows = []
    ok = True
    for k, orders, _ in cpswf_blocks(m, c, _k_range(kspec), nmax, tol):
        for n, psi in enumerate(orders):
            rep = op_verify(psi)
            passed = rep.gc_residual <= threshold and rep.residual <= threshold
            ok = ok and passed
            rows.append([n, k, abs(rep.mu_est), rep.lambda_est,
                         rep.ratio_spread, rep.residual,
                         "pass" if passed else "fail"])
    return (["n", "k", "abs_mu_est", "lambda_est", "ratio_spread", "residual", "status"],
            rows, ok)


@command()
@click.option("--m", type=_M_ANY, required=True)
@click.option("--c", type=float, required=True)
@click.option("--k", "kmax", "--K", type=_NONNEG, required=True,
              help="Maximum monogenic degree K.")
@click.option("--n", "nmax", "--N", type=_NONNEG, required=True,
              help="Maximum radial order per parity N.")
@click.option("--points", type=_GRID, default=64, show_default=True)
def accumulate(m, c, kmax, nmax, points, tol):
    """Spectrum-accumulation partial sum on an r-grid, with the limit column."""
    r = np.linspace(0.0, 1.0, points)
    acc = partial_sum(m, c, kmax, nmax, r ** 2, tol)
    lim = limit_value(m, c)
    return ["r", "G", "limit"], [[float(ri), float(gi), lim] for ri, gi in zip(r, acc.values)]


@command(solves=False)
@click.option("--m", type=_M_ANY, required=True)
@click.option("--k", type=_NONNEG, required=True)
@click.option("--n", "nmax", "--N", type=click.IntRange(0, 64), required=True,
              help="Maximum radial order N.")
def legendre(m, k, nmax):
    """Monomial coefficients (in t = |x|^2) of the radial parts p_N, q_N."""
    ps, qs = radial_sequence(k, m, nmax)
    rows = []
    for kind, seq in (("p", ps), ("q", qs)):
        for order, poly in enumerate(seq):
            for power, coeff in enumerate(poly.coeffs):
                rows.append([kind, order, power, float(coeff)])
    return ["kind", "order", "power", "coefficient"], rows


if __name__ == "__main__":
    main()
