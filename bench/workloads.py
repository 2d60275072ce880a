"""The benchmark's workloads: seeded inputs, one pass of work, and its check.

Every workload is a closed loop: one process issues passes back to back.
Inputs are made from the seed with the standard library only, so the
parent process makes them without importing numpy, and the program sees
only the generated inputs.

A check returns one ``(relative_error, tolerance)`` pair per checked
quantity; a check passes when its error is finite and within tolerance.
Every reference is computed by a route independent of the path it checks.
"""

from __future__ import annotations

import math
import random

# accumulate: partial_sum(m=3, c=4, K=N=30) on 33 t-points
ACC_M, ACC_C, ACC_KN, ACC_POINTS = 3, 4.0, 30, 33
# the sum has converged to 1e-6 only out to r = 0.9; the point r = 0.9 is
# always included so that the worst error, and hence `digits`, measures
# the program and not how close the seed's points fall to that edge
ACC_RMAX, ACC_TOL = 0.9, 1e-6

# verify: verify(make_cpswf(n, k, 3, 1.0)) for k = 0..3, n = 0..6
VER_M, VER_C, VER_K, VER_N, VER_TOL = 3, 1.0, 3, 6, 1e-6

# field: eval_field_coeffs for m = 3, k = 0..6, n in {0, 1}, every i
FIELD_M, FIELD_C, FIELD_K, FIELD_POINTS, FIELD_TOL = 3, 1.0, 6, 4096, 1e-12


def _sphere_area(m: int) -> float:
    return 2 * math.pi ** (m / 2) / math.gamma(m / 2)


class Accumulate:
    """partial_sum at K = N = 30; the item is one CPSWF term."""

    name = "accumulate"
    item = "CPSWF term"
    items = 2 * (ACC_KN + 1) ** 2

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = random.Random(seed)
        t = [0.0, ACC_RMAX ** 2] + [rng.random() for _ in range(ACC_POINTS - 2)]
        return {"t": sorted(t)}

    def __init__(self, inputs: dict):
        import numpy as np
        import cliffordprolate

        self.api = cliffordprolate
        self.t = np.array(inputs["t"])
        # closed form c^m |B(1)|, independent of every spectral computation
        self.limit = ACC_C ** ACC_M * math.pi ** (ACC_M / 2) / math.gamma(ACC_M / 2 + 1)

    def run(self):
        return self.api.partial_sum(ACC_M, ACC_C, ACC_KN, ACC_KN, self.t).values

    def check(self, g) -> list:
        return [(abs(gi - self.limit) / self.limit, ACC_TOL)
                for ti, gi in zip(self.t, g) if ti <= ACC_RMAX ** 2]

    def overshoot(self, g) -> float:
        """max (G - limit) / limit: partial sums of nonnegative terms
        may not exceed the limit, so a positive value is lambda noise."""
        return float(max((g - self.limit) / self.limit))


class Verify:
    """verify(make_cpswf(...)) on the default grid and rule, in an order
    shuffled by the seed so that parities interleave; the item is one
    verified CPSWF."""

    name = "verify"
    item = "verified CPSWF"
    items = (VER_K + 1) * (VER_N + 1)

    @staticmethod
    def inputs(seed: int) -> dict:
        order = [[n, k] for k in range(VER_K + 1) for n in range(VER_N + 1)]
        random.Random(seed).shuffle(order)
        return {"order": order}

    def __init__(self, inputs: dict):
        import cliffordprolate

        self.api = cliffordprolate
        self.order = [tuple(nk) for nk in inputs["order"]]

    def run(self):
        out = []
        for n, k in self.order:
            psi = self.api.make_cpswf(n, k, VER_M, VER_C)
            rep = self.api.verify(psi)
            out.append((psi.lam, rep.lambda_est, rep.residual, rep.ratio_spread))
        return out

    def check(self, rows) -> list:
        # the CLI's gate (residual, ratio_spread <= 1e-6), plus the closed-form
        # lambda against the operator estimate, relative to lambda itself
        return [(max(res, spread, abs(est - lam) / lam), VER_TOL)
                for lam, est, res, spread in rows]


class Field:
    """eval_field_coeffs on 4,096 seeded points of the closed unit ball;
    the item is one Clifford value."""

    name = "field"
    item = "Clifford value"
    cases = [(n, k, i) for k in range(FIELD_K + 1) for n in (0, 1) for i in range(1, k + 2)]
    items = len(cases) * FIELD_POINTS

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = random.Random(seed)
        pts = []
        for _ in range(FIELD_POINTS):
            d = [rng.gauss(0.0, 1.0) for _ in range(FIELD_M)]
            s = rng.random() ** (1 / FIELD_M) / math.sqrt(sum(v * v for v in d))
            pts.append([v * s for v in d])
        return {"points": pts}

    def __init__(self, inputs: dict):
        import numpy as np
        import cliffordprolate
        from cliffordprolate import prolate

        self.np = np
        self.api = cliffordprolate
        self.prolate = prolate
        self.x = np.array(inputs["points"])
        self._radial = None  # reference radial factors, made at the first check

    def run(self):
        out = []
        for n, k in dict.fromkeys((n, k) for n, k, _ in self.cases):
            psi = self.api.make_cpswf(n, k, FIELD_M, FIELD_C)
            for i in range(1, k + 2):
                out.append(self.prolate.eval_field_coeffs(psi, i, self.x))
        return out

    def _reference(self, n: int, k: int, i: int):
        """The field by an independent route: the basis polynomial evaluated
        monomial by monomial here, and x * Y multiplied through a blade
        sign table built by sorting generator lists."""
        np = self.np
        y = np.zeros((len(self.x), 1 << FIELD_M), dtype=complex)
        for powers, coeffs in self.api.basis(FIELD_M, k).elements[i - 1].terms.items():
            y += np.prod(self.x ** np.array(powers), axis=-1)[:, None] * coeffs
        if n % 2:
            xv = np.zeros((len(self.x), 1 << FIELD_M))
            for j in range(FIELD_M):
                xv[:, 1 << j] = self.x[:, j]
            y = clifford_mul(FIELD_M, xv, y)
        return self._radial[n, k][:, None] * y

    def check(self, fields) -> list:
        np = self.np
        t = np.sum(self.x ** 2, axis=-1)
        if self._radial is None:
            self._radial = {}
            for n, k in dict.fromkeys((n, k) for n, k, _ in self.cases):
                psi = self.api.make_cpswf(n, k, FIELD_M, FIELD_C)
                self._radial[n, k] = psi.radial_poly_values(t)
        out = []
        for f, (n, k, i) in zip(fields, self.cases):
            ref = self._reference(n, k, i)
            err = np.linalg.norm(f - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
            out.append((float(np.max(err)), FIELD_TOL))
        # sum_i |psi_i(x)|^2 = R(t)^2 t^(k+parity) d_k / |S^2|, because the
        # zonal trace is constant and |x u| = |x| |u|; it holds whatever
        # path the product takes
        j = 0
        for (n, k), rad in self._radial.items():
            d = k + 1
            lhs = sum(np.sum(np.abs(fields[j + i]) ** 2, axis=-1) for i in range(d))
            rhs = rad ** 2 * t ** (k + n % 2) * d / _sphere_area(FIELD_M)
            out.append((float(np.max(np.abs(lhs - rhs) / rhs)), FIELD_TOL))
            j += d
        return out


def blade_sign(a: int, b: int) -> int:
    """Sign of e_a e_b in C_m (e_j^2 = -1), by bubble-sorting the
    concatenated generator lists and cancelling equal neighbours."""
    gens = [j for j in range(a.bit_length()) if a >> j & 1]
    gens += [j for j in range(b.bit_length()) if b >> j & 1]
    sign, done = 1, False
    while not done:
        done = True
        for p in range(len(gens) - 1):
            if gens[p] > gens[p + 1]:
                gens[p], gens[p + 1] = gens[p + 1], gens[p]
                sign, done = -sign, False
    p = 0
    while p < len(gens) - 1:
        if gens[p] == gens[p + 1]:
            del gens[p:p + 2]
            sign = -sign
        else:
            p += 1
    return sign


def clifford_mul(m: int, u, v):
    """Geometric product of coefficient arrays (..., 2^m), blade by blade."""
    out = 0 * (u[..., :1] * v)
    for a in range(1 << m):
        for b in range(1 << m):
            out[..., a ^ b] += blade_sign(a, b) * u[..., a] * v[..., b]
    return out


IN_PROCESS = {w.name: w for w in (Accumulate, Verify, Field)}


# cli: six commands, each a fresh `python -m cliffordprolate.cli` process;
# (arguments, documented header, expected data rows)
def _disc_points(grid: int) -> int:
    ax = [-1.0 + 2.0 * j / (grid - 1) for j in range(grid)]
    return sum(1 for a in ax for b in ax if a * a + b * b <= 1.0)


_FIELD_HEADER = "x1,x2,x3," + ",".join(
    f"{name}_re,{name}_im" for name in
    ("e0", "e1", "e2", "e12", "e3", "e13", "e23", "e123"))

CLI_COMMANDS = [
    ("eigs --m 2 --k 0 --c 1 --count 4".split(),
     "n,k,chi,lambda,abs_mu,phase_exponent", 4),
    ("spectrum --m 3 --kmax 2 --nmax 3 --c 1".split(),
     "n,k,chi,lambda,abs_mu", 3 * 4),
    ("radial --n 1 --k 1 --m 2 --c 1 --grid 100".split(), "r,value", 100),
    ("legendre --m 2 --k 0 --n 6".split(),
     "kind,order,power,coefficient", 2 * sum(N + 1 for N in range(7))),
    ("field --n 1 --k 2 --i 1 --m 3 --c 1 --grid 50".split(),
     _FIELD_HEADER, _disc_points(50)),
    ("verify --m 2 --c 1 --k 0..2 --nmax 4".split(),
     "n,k,abs_mu_est,lambda_est,ratio_spread,residual,status", 3 * 5),
]
CLI_TOL = 1e-6


class Cli:
    """Six CLI commands per pass; the item is one command."""

    name = "cli"
    item = "command"
    items = len(CLI_COMMANDS)

    @staticmethod
    def inputs(seed: int) -> dict:
        # the first command is the set-up process; the seed shuffles the rest
        rest = list(range(1, len(CLI_COMMANDS)))
        random.Random(seed).shuffle(rest)
        return {"order": [0] + rest}

    @staticmethod
    def eigs_chi():
        """chi of the eigs command, computed in process."""
        import cliffordprolate

        return [cliffordprolate.make_cpswf(n, 0, 2, 1.0).chi for n in range(4)]

    @staticmethod
    def check(cmd: int, code: int, out: bytes, first: bytes | None, chi: list) -> list:
        """One check per command; its error is the worst relative error the
        output reports (eigs: chi against chi_ref; verify: its residuals)."""
        _, header, nrows = CLI_COMMANDS[cmd]
        lines = out.decode("utf-8", "replace").split("\r\n")
        ok = (code == 0 and lines[-1] == "" and lines[0] == header
              and len(lines) == nrows + 2
              and all(ln.count(",") == header.count(",") for ln in lines[1:-1])
              and (first is None or out == first))
        err = 0.0
        if ok and cmd == 0:
            got = [float(ln.split(",")[2]) for ln in lines[1:-1]]
            err = max(abs(g - r) / abs(r) for g, r in zip(got, chi))
        elif ok and cmd == 5:
            rows = [ln.split(",") for ln in lines[1:-1]]
            ok = all(r[6] == "pass" for r in rows)
            err = max(max(float(r[4]), float(r[5])) for r in rows)
        return [(err if ok else math.inf, CLI_TOL)]


WORKLOADS = {**IN_PROCESS, Cli.name: Cli}
