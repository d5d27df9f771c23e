"""Workload inputs and output checks for the sgb benchmark.

Each workload is a list of variants; a variant is one pass of CLI items, one
item per shape.  Inputs are generated here from the workload seed (the
program only ever sees the written system files and its argv), and every
output is checked for its mathematical content only, so that a change of
engine, or of anything else that leaves the answers alone, still passes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# (n, m, p) for the verifier workloads; every generator has degree 2
VERIFY_GENERIC = ((6, 7, 31), (7, 8, 31))
VERIFY_SIGMA = ((5, 6, 7), (5, 6, 31), (6, 6, 31))
# (n, m, p, cap): cap is the Lazard bound of the shape
GB_MACAULAY = ((5, 6, 31, 6), (6, 6, 31, 7), (6, 7, 31, 7))
# (construction, q, n, m) of the experiment grid
EXPERIMENT_GRID = tuple(
    (construction, q, n, m)
    for construction in ("generic", "Z")
    for q in (2, 3, 7, 31)
    for n, m in ((3, 3), (4, 4), (4, 5), (5, 5))
)
EXPERIMENT_TRIALS = 5

# variants per workload: enough distinct inputs that one odd system does not
# set a run's figure, few enough that checking them stays cheap
VARIANTS = {"verify-generic": 4, "verify-sigma": 8, "gb-macaulay": 1, "experiment-batch": 4}
WORKLOADS = tuple(VARIANTS)
# the control computation that matches where each workload spends its time
# (see control.py): RREF for gb-macaulay, dict polynomials everywhere else
CONTROL = {"verify-generic": "python", "verify-sigma": "python", "gb-macaulay": "numpy",
           "experiment-batch": "python"}


@dataclass
class Item:
    """One CLI invocation: its argv plus what the checks need to know."""

    key: str
    shape: str
    kind: str
    argv: list
    trials: int = 1
    out: Path | None = None
    n: int = 0
    m: int = 0
    p: int = 0
    cap: int = 0
    polys: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def monomials(n: int, d: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def dense_system(rng, n, m, p) -> list:
    """Uniform coefficients on every quadratic monomial."""
    polys = []
    while len(polys) < m:
        f = {mono: rng.randrange(p) for mono in monomials(n, 2)}
        f = {mono: c for mono, c in f.items() if c}
        if f:
            polys.append(f)
    return polys


def corner_system(rng, n, m, p) -> list:
    """Nonzero coefficients everywhere except on the pure powers x_i^2, so
    every coordinate point is a projective zero and no variable alone is an
    admissible linear form."""
    return [
        {mono: rng.randrange(1, p) for mono in monomials(n, 2) if max(mono) < 2}
        for _ in range(m)
    ]


def _term(c: int, mono) -> str:
    factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e]
    return f"{c}*" + "*".join(factors)


def write_system(path: Path, p: int, n: int, polys) -> None:
    doc = {
        "field": {"char": p},
        "vars": [f"x{i + 1}" for i in range(n)],
        "polys": [" + ".join(_term(c, mono) for mono, c in f.items()) for f in polys],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def build(workload: str, seed: int, workdir: Path) -> list:
    """Generate and write the inputs; returns the variants (lists of items)."""
    variants = []
    for v in range(VARIANTS[workload]):
        rng = random.Random(f"{workload}:{seed}:{v}")
        items = []
        if workload in ("verify-generic", "verify-sigma"):
            gen = dense_system if workload == "verify-generic" else corner_system
            shapes = VERIFY_GENERIC if workload == "verify-generic" else VERIFY_SIGMA
            for n, m, p in shapes:
                shape = f"{n}x{m}/q{p}"
                path = workdir / f"v{v}-{n}x{m}-q{p}.json"
                polys = gen(rng, n, m, p)
                write_system(path, p, n, polys)
                argv = ["verify", str(path), "--seed", str(rng.randrange(2**31))]
                items.append(Item(f"v{v}:{shape}", shape, "verify", argv, n=n, m=m, p=p))
        elif workload == "gb-macaulay":
            for n, m, p, cap in GB_MACAULAY:
                shape = f"{n}x{m}/q{p}/cap{cap}"
                path = workdir / f"v{v}-{n}x{m}-q{p}.json"
                polys = dense_system(rng, n, m, p)
                write_system(path, p, n, polys)
                argv = ["gb", str(path), "--engine", "macaulay", "--cap", str(cap)]
                items.append(Item(f"v{v}:{shape}", shape, "gb", argv, n=n, m=m, p=p,
                                  cap=cap, polys=polys))
        elif workload == "experiment-batch":
            for construction, q, n, m in EXPERIMENT_GRID:
                shape = f"{construction}/{n}x{m}/q{q}"
                out = workdir / f"v{v}-{construction}-{n}x{m}-q{q}.csv"
                argv = ["experiment", "-n", str(n), "-m", str(m), "-d", ",".join(["2"] * m),
                        "-q", str(q), "--trials", str(EXPERIMENT_TRIALS),
                        "--construction", construction, "--seed", str(rng.randrange(2**31)),
                        "--out", str(out)]
                items.append(Item(f"v{v}:{shape}", shape, "experiment", argv,
                                  trials=EXPERIMENT_TRIALS, out=out, n=n, m=m, p=q))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        variants.append(items)
    return variants


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def answer(item: Item, stdout: str, file_text: str | None) -> str:
    """The mathematical answer of an output: basis lines, verify fields but
    ``engine``, or the experiment CSV without ``engine`` and ``elapsed_ms``."""
    if item.kind == "gb":
        return stdout
    if item.kind == "verify":
        return "".join(line + "\n" for line in stdout.splitlines()
                       if not line.startswith("engine="))
    rows = [line.split(",") for line in (file_text or "").splitlines()]
    if not rows:
        return ""
    drop = {i for i, col in enumerate(rows[0]) if col in ("engine", "elapsed_ms")}
    return "".join(",".join(c for i, c in enumerate(r) if i not in drop) + "\n" for r in rows)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected(workload: str, seed: int) -> dict:
    """Recorded answer digests, if they were recorded for this seed."""
    try:
        recorded = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    if recorded.get("seed") != seed:
        return {}
    return recorded["workloads"].get(workload, {})


def _kv(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _theorem_flags_ok(hypotheses: bool, ineq_max_gb: str, ineq_dnm: str) -> bool:
    """Under verified hypotheses both inequalities are theorems."""
    return not hypotheses or (ineq_max_gb == "true" and ineq_dnm == "true")


def check_verify(item: Item, stdout: str) -> str | None:
    kv = _kv(stdout)
    want = {"n": str(item.n), "m": str(item.m), "q": str(item.p),
            "degrees": ",".join(["2"] * item.m)}
    for key, value in want.items():
        if kv.get(key) != value:
            return f"{key}={kv.get(key)} but the input has {value}"
    if "hypotheses_verified" not in kv:
        return "no hypotheses_verified field"
    if not _theorem_flags_ok(kv["hypotheses_verified"] == "true",
                             kv.get("ineq_maxGB"), kv.get("ineq_Dnm")):
        return "hypotheses_verified without ineq_maxGB and ineq_Dnm"
    return None


def check_experiment(item: Item, file_text: str | None) -> str | None:
    lines = (file_text or "").splitlines()
    if not lines:
        return "empty CSV"
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if [r.get("trial") for r in rows] != [str(t) for t in range(item.trials)]:
        return f"expected trials 0..{item.trials - 1}"
    for r in rows:
        if (r["n"], r["m"], r["q"]) != (str(item.n), str(item.m), str(item.p)):
            return f"trial {r['trial']} has the wrong shape"
        hypotheses = (r["status"] == "ok" and r["r"] in ("0", "1")
                      and r["generalized"] == "true" and r["engine"] != "capped")
        if not _theorem_flags_ok(hypotheses, r["ineq_maxGB"], r["ineq_Dnm"]):
            return f"trial {r['trial']}: hypotheses verified without both inequalities"
    return None


def _eliminate(w: np.ndarray, p: int) -> tuple:
    """Gauss-Jordan on ``w`` in place, rows left where they are; returns the
    pivot rows and columns in the order they were found."""
    free = np.ones(w.shape[0], dtype=bool)
    rows, cols = [], []
    for j in range(w.shape[1]):
        nz = np.flatnonzero(free & (w[:, j] != 0))
        if nz.size == 0:
            continue
        i = int(nz[0])
        w[i] = w[i] * pow(int(w[i, j]), -1, p) % p
        f = w[:, j].copy()
        f[i] = 0
        w -= np.outer(f, w[i])
        np.mod(w, p, out=w)
        free[i] = False
        rows.append(i)
        cols.append(j)
    return rows, cols


def rank_mod_p(a: np.ndarray, p: int, block: int = 16) -> int:
    """Rank over F_p, by blocks of columns in float64; every value stays an
    integer below 2^53, so the arithmetic is exact.

    For each block the pivot rows R and columns C of the block are found;
    the other rows S are cleared with Y = A[S, C] A[R, C]^-1, so that
    rank(A) = |R| + rank(A[S, rest] - Y A[R, rest]).  A matrix with many more
    rows than columns is first multiplied by a fixed random matrix with 16
    rows to spare, which keeps the rank except with probability about p^-16.
    """
    rows, cols = a.shape
    if max(rows, block) * (p - 1) ** 2 >= 2**53:
        raise ValueError("p too large for the float64 rank check")
    a = a.astype(np.float64) % p
    if rows > cols + 16:
        proj = np.random.default_rng(0).integers(0, p, size=(cols + 16, rows))
        a = (proj.astype(np.float64) @ a) % p
    rank = 0
    while a.shape[0] and a.shape[1]:
        panel, rest = a[:, :block], a[:, block:]
        piv_rows, piv_cols = _eliminate(panel.copy(), p)
        k = len(piv_rows)
        if k:
            square = np.hstack([panel[np.ix_(piv_rows, piv_cols)], np.eye(k)])
            order, _ = _eliminate(square, p)
            inverse = square[order, k:]
            others = np.setdiff1d(np.arange(a.shape[0]), piv_rows)
            y = panel[np.ix_(others, piv_cols)] @ inverse % p
            rest = (rest[others] - y @ rest[piv_rows]) % p
        rank += k
        a = rest
    return rank


def macaulay_matrix(item: Item, d: int) -> np.ndarray:
    columns = {mono: i for i, mono in enumerate(monomials(item.n, d))}
    mults = monomials(item.n, d - 2)
    a = np.zeros((len(item.polys) * len(mults), len(columns)), dtype=np.int64)
    row = 0
    for f in item.polys:
        for mult in mults:
            for mono, c in f.items():
                a[row, columns[tuple(x + y for x, y in zip(mono, mult))]] = c
            row += 1
    return a


def check_gb(item: Item, stdout: str) -> str | None:
    from sgb.core import poly_to_string
    from sgb.engine import buchberger
    from sgb.errors import SgbError
    from sgb.io import parse_polynomial, parse_system_doc

    doc = parse_system_doc(Path(item.argv[1]).read_text(encoding="utf-8"))
    lines = stdout.splitlines()
    if not lines:
        return "empty basis"
    try:
        basis = [parse_polynomial(line, doc.names, doc.system.field) for line in lines]
    except SgbError as e:
        return f"unparsable basis line: {e}"
    oracle = buchberger(doc.system)
    if max(g.degree() for g in oracle) <= item.cap:
        if lines != [poly_to_string(g, doc.names) for g in oracle]:
            return "basis differs from the Buchberger oracle"
    leading = [g.leading_monomial() for g in basis]
    for d in range(2, item.cap + 1):
        cols = monomials(item.n, d)
        hf = sum(1 for t in cols
                 if not any(all(x <= y for x, y in zip(lm, t)) for lm in leading))
        rank = rank_mod_p(macaulay_matrix(item, d), item.p)
        if rank != len(cols) - hf:
            return f"rank(M_{d}) = {rank} but cols - HF({d}) = {len(cols) - hf}"
    return None


def check(item: Item, stdout: str, file_text: str | None) -> str | None:
    """Seed-independent checks of one successful invocation."""
    if item.kind == "verify":
        return check_verify(item, stdout)
    if item.kind == "gb":
        return check_gb(item, stdout)
    return check_experiment(item, file_text)
