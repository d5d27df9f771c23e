"""Canonical file formats, the polynomial string grammar, and the seeded
experiment runner with CSV emission.

System files are JSON documents with keys ``field.char``, ``vars``,
``polys`` and optional ``meta``.  Polynomial strings follow the grammar

    poly      := [sign] term (sign term)*
    term      := coeff | coeff "*" powerprod | powerprod
    powerprod := var("^"exp)? ("*" var("^"exp)?)*
    var       := "x"<digits> | "y"
    coeff     := decimal integer (reduced mod p)

with whitespace ignored and "-" or the unicode minus accepted as sign.  The
parser makes one pass, one regular-expression match per term, with no token
list; a character that starts no token is reported before any other error.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import dataclass, fields

from .analysis import (
    _default_route,
    child_seed,
    sample_system,
    sample_Z_system,
    verify_main_theorem,
)
from .core import PolySystem, Polynomial, PrimeField, default_var_names, poly_to_string
from .errors import (
    DimensionMismatch, InvalidDegree, InvariantViolation, ParseError, SgbError, UnknownVariable,
)

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# polynomial grammar
# ---------------------------------------------------------------------------

_VAR_NAME = re.compile(r"^(x[0-9]+|y)$")
_WS = r"[ \t\r\n]*"
_VAR = r"(?:x[0-9]+|y)"
# One term: a sign, a coefficient with its "*", and a power product, each
# optional, with no power product after a coefficient that has no "*".
# Each "*" inside the power product is taken only before a variable, so a
# match stops at the first token that cannot continue the term; the last
# factor and its exponent are captured to tell "x1^" from "x1^2^".
_TERM = re.compile(
    rf"{_WS}(?P<sign>[+\-−])?{_WS}"
    rf"(?:(?P<coeff>[0-9]+){_WS}(?P<star>\*{_WS})?)?"
    rf"(?:(?(star)|(?(coeff)(?!)))(?P<pp>(?:{_VAR}{_WS}(?:\^{_WS}[0-9]+{_WS})?\*{_WS}(?={_VAR}))*"
    rf"{_VAR}{_WS}(?:\^{_WS}(?P<exp>[0-9]+){_WS})?))?"
)
_BLANKS = re.compile(_WS)
_FACTOR = re.compile(rf"({_VAR}){_WS}(?:\^{_WS}([0-9]+))?")
# the token at a position: a number, a variable, or one character
_TOKEN = re.compile(r"[0-9]+|x[0-9]+|.", re.S)
# a character no token starts with; "x" starts one only before a digit
_BAD_CHAR = re.compile(r"[^ \t\r\n0-9xy*^+\-−]|x(?![0-9])")
# a coefficient or an exponent: digits that are not part of a variable name
_NUMBER = re.compile(r"(?<![x0-9])[0-9]+")
# an integer cell of an experiment CSV: int() alone would also take "+2",
# " 2 ", "1_0" and non-ASCII digits
_CSV_INT = re.compile(r"-?[0-9]+")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    return line, pos - last


def _unexpected(text: str) -> ParseError | None:
    """The error for the first character of ``text`` that starts no token,
    if there is one: it is reported before any other error."""
    bad = _BAD_CHAR.search(text)
    if bad is None:
        return None
    return ParseError(f"unexpected character {bad.group()[0]!r}", *_line_col(text, bad.start()))


def _error(text: str, message: str, pos: int) -> ParseError:
    return _unexpected(text) or ParseError(message, *_line_col(text, pos))


def _term_error(text: str, m) -> ParseError:
    """The error that ends the walk at the term ``m``: it lacks a part, or it
    is followed by something other than a sign or the end of the text."""
    e = m.end()
    sign, coeff, star, pp, exp = m.groups()
    if pp is None and coeff is None:
        if e < len(text):
            return _error(text, "expected a variable", e)
        if sign is None:
            return _error(text, "empty polynomial", 0)
        return _error(text, "dangling sign", m.start("sign"))
    if pp is None and star is not None:
        return _error(text, "expected a variable after '*'", e if e < len(text) else m.start("star"))
    if pp is not None and text[e] == "*":  # not before a variable
        after = _BLANKS.match(text, e + 1).end()
        if after < len(text) and "0" <= text[after] <= "9":
            return _error(text, "coefficient must come first in a term", after)
        return _error(text, "expected a variable", after)
    if pp is not None and text[e] == "^" and exp is None:
        return _error(text, "expected an exponent after '^'", e)
    return _error(text, f"expected '+' or '-', got {_TOKEN.match(text, e).group()!r}", e)


def _long_number(text: str) -> ParseError:
    """The error for the first coefficient or exponent of ``text`` with more
    digits than ``int`` converts (``sys.get_int_max_str_digits``): terms are
    converted in text order, and the terms before it parsed."""
    limit = sys.get_int_max_str_digits()
    long = next(m for m in _NUMBER.finditer(text) if len(m.group()) > limit)
    return _error(text, f"number of more than {limit} digits", long.start())


# a JSON string, or a JSON number: integer part, fraction, exponent
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')


def _long_json_integer(text: str) -> ParseError:
    """The error for the first JSON integer of ``text`` with more digits than
    ``int`` converts: the decoder converts numbers in text order, and the
    text before that one is valid JSON, so its strings are skipped whole."""
    limit = sys.get_int_max_str_digits()
    long = next(
        m for m in _JSON_TOKEN.finditer(text) if m[1] and not (m[2] or m[3]) and len(m[1]) > limit
    )
    return ParseError(f"number of more than {limit} digits", *_line_col(text, long.start()))


def parse_polynomial(text: str, names, fld: PrimeField) -> Polynomial:
    """Parse one polynomial string against the declared variable names, one
    regular-expression match per term."""
    n, end = len(names), len(text)
    index = {name: i for i, name in enumerate(names)}
    constant = (0,) * n
    coeffs: dict = {}
    pos = 0
    try:
        while True:
            m = _TERM.match(text, pos)
            sign, coeff, star, pp, _ = m.groups()
            c = 1 if coeff is None else int(coeff)
            if pp is not None:
                exponents = [0] * n
                for var, exp in _FACTOR.findall(pp):
                    i = index.get(var)
                    if i is None:
                        raise _unexpected(text) or UnknownVariable(
                            f"variable {var!r} not declared (declared: {', '.join(names)})"
                        )
                    exponents[i] += int(exp) if exp else 1
                key = tuple(exponents)
            elif coeff is None or star is not None:
                raise _term_error(text, m)
            else:
                key = constant
            coeffs[key] = coeffs.get(key, 0) + (-c if sign in ("-", "−") else c)
            pos = m.end()
            if pos == end:
                break
            if text[pos] not in "+-−":
                raise _term_error(text, m)
    except ValueError:  # from int(), on a number past the digit limit
        raise _long_number(text) from None
    p = fld.p
    return Polynomial._of_clean(fld, n, {k: v % p for k, v in coeffs.items() if v % p})


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemDoc:
    """A parsed system file: the system plus its surface presentation."""

    system: PolySystem
    names: tuple
    meta: dict


def parse_system_doc(text: str) -> SystemDoc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from None
    except ValueError:  # from int(), on a number past the digit limit
        raise _long_json_integer(text) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError("top-level value must be an object")
    try:
        char = raw["field"]["char"]
        names = raw["vars"]
        poly_strings = raw["polys"]
    except (KeyError, TypeError):
        raise ParseError("expected keys field.char, vars, polys") from None
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")

    fld = PrimeField(char)  # BadModulus on a composite
    if not isinstance(names, list) or not names:
        raise ParseError("vars must be a nonempty array")
    if not isinstance(poly_strings, list) or not all(
        isinstance(s, str) for s in poly_strings
    ):
        raise ParseError("polys must be an array of strings")
    seen = set()
    for i, name in enumerate(names):
        if not isinstance(name, str) or not _VAR_NAME.match(name):
            raise ParseError(f"bad variable name {name!r}")
        if name in seen:
            raise ParseError(f"duplicate variable name {name!r}")
        if name == "y" and i != len(names) - 1:
            raise ParseError("the homogenization variable y must come last")
        seen.add(name)
    polys = tuple(parse_polynomial(s, names, fld) for s in poly_strings)
    return SystemDoc(PolySystem(fld, len(names), polys), tuple(names), dict(meta))


def parse_system(text: str) -> PolySystem:
    """Parse a system file; coefficients come back reduced mod p."""
    return parse_system_doc(text).system


def serialize_system_doc(doc: SystemDoc) -> str:
    """Canonical JSON form; parse(serialize(doc)) round-trips exactly."""
    payload = {
        "field": {"char": doc.system.field.p},
        "vars": list(doc.names),
        "polys": [poly_to_string(f, doc.names) for f in doc.system.polys],
    }
    if doc.meta:
        payload["meta"] = doc.meta
    return json.dumps(payload, indent=2) + "\n"


def system_doc(system: PolySystem, names=None, meta=None) -> SystemDoc:
    return SystemDoc(system, tuple(names or default_var_names(system.n)), dict(meta or {}))


# ---------------------------------------------------------------------------
# experiment records
# ---------------------------------------------------------------------------

def _fmt(v, sep: str) -> str:
    """Text form of an output value; tuple items are joined by ``sep``."""
    if v is None:
        return "NA"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return sep.join(str(x) for x in v)
    return str(v)


@dataclass
class ExperimentRecord:
    trial: int
    seed: int
    status: str
    n: int
    m: int
    degrees: tuple
    q: int
    r: int | None = None
    d_reg_ell: int | None = None
    gen_d_reg: int | None = None
    max_gb_deg: int | None = None
    D_nm: int | None = None
    lazard: int | None = None
    cryptographic: bool | None = None
    generalized: bool | None = None
    weakly_revlex: bool | None = None
    ineq_maxGB: bool | None = None
    ineq_Dnm: bool | None = None
    equality_attained: bool | None = None
    engine: str = ""
    elapsed_ms: int | None = None

    @property
    def hypotheses_verified(self) -> bool:
        return (
            self.status == "ok"
            and self.r is not None
            and self.r <= 1
            and self.generalized is True
        )

    def csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, col), ";") for col in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _trial_record(
    trial, n, m, degrees: tuple, q, master_seed, construction, max_attempts, timings
) -> ExperimentRecord:
    seed = child_seed(master_seed, trial)
    fld = PrimeField(q)
    sampler = sample_Z_system if construction == "Z" else sample_system
    system = sampler(n, m, degrees, fld, seed)
    start = time.monotonic()
    engine, _ = _default_route(system)  # also the engine of a failed trial's bases
    record = ExperimentRecord(trial, seed, "ok", n, m, degrees, q, engine=engine)
    try:
        report = verify_main_theorem(system, seed=seed, max_attempts=max_attempts)
        record.r = report.krull_dim
        record.d_reg_ell = report.d_reg_ell
        record.gen_d_reg = report.gen_d_reg
        record.max_gb_deg = report.max_gb_deg_sigma
        record.D_nm = report.D_nm
        record.lazard = report.lazard
        record.cryptographic = report.semiregular.cryptographic
        record.generalized = report.semiregular.generalized
        record.weakly_revlex = report.weakly_revlex
        record.ineq_maxGB = report.ineq_max_gb
        record.ineq_Dnm = report.ineq_D_nm
        record.equality_attained = report.equality_attained
    except SgbError as e:
        record.status = type(e).__name__
    if timings:
        record.elapsed_ms = int((time.monotonic() - start) * 1000)
    return record


def run_experiment(
    n: int,
    m: int,
    degrees,
    q: int,
    trials: int,
    seed: int,
    construction: str = "generic",
    max_attempts: int = 64,
    timings: bool = False,
) -> list:
    """One record per trial, in trial order and deterministic for a fixed
    seed (timings excluded, hence off by default).  The trials run one
    after another in the calling process.

    Every trial runs ``verify_main_theorem``, whose bases of I and I^sigma
    take the default route of ``groebner_basis``.  That route depends only
    on the shape, so the ``engine`` column names it on every row, failed
    trials included: ``macaulay`` where the Macaulay engine eliminates up
    to D(n, m), ``buchberger`` otherwise.  A trial with a basis that needs
    more than ``engine.MAX_S_PAIRS`` S-pair reductions gets
    ``status=BudgetExhausted``; the limit counts reductions, so that outcome
    is seed-deterministic too.
    """
    if trials < 1:
        raise SgbError("trials must be >= 1")
    if max_attempts < 1:
        raise SgbError(f"max_attempts must be >= 1, got {max_attempts}")
    if construction not in ("generic", "Z"):
        raise SgbError(f"unknown construction {construction!r}")
    if len(degrees) != m:
        raise DimensionMismatch(f"expected {m} degrees, got {len(degrees)}")
    if any(d < 1 for d in degrees):
        raise InvalidDegree("degrees must be >= 1")
    PrimeField(q)  # BadModulus; these are trial 0's errors, raised before any trial
    if construction == "Z" and n < 2:
        raise DimensionMismatch("the corner-vanishing construction needs n >= 2")
    if n < 1:
        raise DimensionMismatch(f"need n >= 1 and d >= 0, got n={n}, d={degrees[0] if degrees else 'NA'}")
    degrees = tuple(degrees)
    return [
        _trial_record(t, n, m, degrees, q, seed, construction, max_attempts, timings)
        for t in range(trials)
    ]


def write_csv(records, stream) -> None:
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        stream.write(rec.csv_row() + "\n")


_BOOL_COLUMNS = frozenset(
    ("cryptographic", "generalized", "weakly_revlex", "ineq_maxGB", "ineq_Dnm",
     "equality_attained")
)
_TEXT_COLUMNS = frozenset(("status", "engine"))


def _csv_int(cell: str) -> int:
    if not _CSV_INT.fullmatch(cell):
        raise ValueError(cell)
    return int(cell)


def read_csv(text: str) -> list:
    """Parse experiment CSV text back into records (summary-tool input); a
    ParseError names the line of ``text`` and the column of the bad cell."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln and not ln.startswith("#")]
    if not lines or lines[0][1] != ",".join(CSV_COLUMNS):
        raise ParseError("unrecognized experiment CSV header", lines[0][0] if lines else 1)
    records = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError(f"expected {len(CSV_COLUMNS)} columns", lineno, 1)
        kwargs, column = {}, 1
        for col, cell in zip(CSV_COLUMNS, cells):
            try:
                if col in _TEXT_COLUMNS:
                    kwargs[col] = cell
                elif cell == "NA":
                    kwargs[col] = None
                elif col in _BOOL_COLUMNS:
                    kwargs[col] = {"true": True, "false": False}[cell]
                elif col == "degrees":
                    kwargs[col] = tuple(_csv_int(v) for v in cell.split(";"))
                else:
                    kwargs[col] = _csv_int(cell)
            except (KeyError, ValueError):  # ValueError from _csv_int, KeyError from a boolean
                raise ParseError(f"bad {col} cell {cell!r}", lineno, column) from None
            column += len(cell) + 1
        records.append(ExperimentRecord(**kwargs))
    return records


def _rate(part: int, whole: int) -> str:
    return f"{part / whole:.3f}" if whole else "NA"


def invariant_violations(records) -> int:
    """Number of trials whose run failed an internal invariant check."""
    return sum(1 for r in records if r.status == InvariantViolation.__name__)


def summarize(records) -> str:
    """One-line digest: rates, violations under verified hypotheses, rows
    that failed an internal invariant, and the histogram of D_nm - max.GB.deg
    gaps."""
    ok = [r for r in records if r.status == "ok"]
    hyp = [r for r in records if r.hypotheses_verified]
    crypto = sum(1 for r in ok if r.cryptographic is True)
    crypto_applicable = sum(1 for r in ok if r.cryptographic is not None)
    gen = sum(1 for r in ok if r.generalized is True)
    gen_applicable = sum(1 for r in ok if r.generalized is not None)
    maxgb_viol = sum(1 for r in hyp if r.ineq_maxGB is False)
    dnm_viol = sum(1 for r in hyp if r.ineq_Dnm is False)
    eq_rows = [r for r in ok if r.equality_attained is not None]
    eq_true = sum(1 for r in eq_rows if r.equality_attained)
    gaps: dict = {}
    for r in ok:
        if r.D_nm is not None and r.max_gb_deg is not None:
            gaps[r.D_nm - r.max_gb_deg] = gaps.get(r.D_nm - r.max_gb_deg, 0) + 1
    gap_hist = ";".join(f"{k}:{gaps[k]}" for k in sorted(gaps)) or "NA"
    return (
        f"# summary schema={SCHEMA_VERSION} trials={len(records)} ok={len(ok)}"
        f" cryptographic_rate={_rate(crypto, crypto_applicable)}"
        f" generalized_rate={_rate(gen, gen_applicable)}"
        f" hypothesis_rows={len(hyp)}"
        f" maxGB_violations={maxgb_viol} Dnm_violations={dnm_viol}"
        f" invariant_violations={invariant_violations(records)}"
        f" equality_attained={eq_true}/{len(eq_rows)}"
        f" gap_hist={gap_hist}"
    )
