"""Output checks that do not trust the program's own arithmetic.

Screens (1), (2), (4), (5) and (6) are recomputed from ``sympy.factorint``,
``sympy.ntheory.is_quad_residue`` and plain residues.  Every certified point of
screen (7) is substituted back into the three quadrics mod p and its
Jacobian rank is recomputed from 3x3 minors.  Each function returns a list
of failure messages; an empty list means the output checked out.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from sympy import factorint
from sympy.ntheory import is_quad_residue

PASS, FAIL, PROBABLE, UNKNOWN = "Pass", "Fail", "Probable", "Unknown"
CERTIFIED = (PASS, FAIL)
#: One letter per verdict, for compact verdict strings.
LETTER = {PASS: "P", FAIL: "F", PROBABLE: "B", UNKNOWN: "U"}


def _nonresidue_screen(label: int, value: int) -> tuple[str, list[int]]:
    primes = sorted(factorint(abs(value)))
    ok = all(p == 2 or (label % p and not is_quad_residue(label, p)) for p in primes)
    return (PASS if ok else FAIL), primes


def expected_cheap_verdict(index: int, a: int, b: int, c: int):
    """The verdict screens 1, 2, 4, 5 and 6 must give; None for others."""
    if index == 1:
        return _nonresidue_screen(5, 5 * a + 5 * b + c)[0]
    if index == 2:
        return _nonresidue_screen(10, 20 * a + 5 * b + 2 * c)[0]
    if index == 4:
        x = (-b * c) % 5
        return PASS if x == 0 or not is_quad_residue(x, 5) else FAIL
    if index == 5:
        return PASS if (a % 7, b % 7, c % 7) == (5, 6, 6) else FAIL
    if index == 6:
        return PASS if (a % 11, b % 11, c % 11) == (1, 1, 2) else FAIL
    return None


def check_cheap_screen(report, a: int, b: int, c: int) -> list[str]:
    want = expected_cheap_verdict(report.index, a, b, c)
    if want is None:
        return []
    out = []
    if report.verdict != want:
        out.append(f"screen {report.index}: got {report.verdict}, oracle says {want}")
    if report.index in (1, 2):
        value = report.data.get("value")
        label = 5 if report.index == 1 else 10
        _, primes = _nonresidue_screen(label, value)
        if report.data.get("primes") != primes:
            out.append(f"screen {report.index}: primes {report.data.get('primes')} != {primes}")
    return out


def quadrics(a: int, b: int, c: int, v, w) -> tuple[int, int, int]:
    """The three defining forms of Y at (v, w)."""
    v0, v1, v2 = v
    w0, w1, w2 = w
    return (
        v0 * v1 + 5 * v2 * v2 - w0 * w0,
        (v0 + v1) * (v0 + 2 * v1) + 5 * w1 * w1 - w0 * w0,
        a * v0 * v0 + b * v1 * v1 + c * v2 * v2 - w2 * w2,
    )


def jacobian(a: int, b: int, c: int, v, w) -> list[list[int]]:
    v0, v1, v2 = v
    w0, w1, w2 = w
    return [
        [v1, v0, 10 * v2, -2 * w0, 0, 0],
        [2 * v0 + 3 * v1, 3 * v0 + 4 * v1, 0, -2 * w0, 10 * w1, 0],
        [2 * a * v0, 2 * b * v1, 2 * c * v2, 0, 0, -2 * w2],
    ]


def full_rank_mod_p(rows: list[list[int]], p: int) -> bool:
    """Rank 3 over F_p iff some 3x3 minor is nonzero mod p."""
    for cols in itertools.combinations(range(len(rows[0])), 3):
        m = [[row[j] for j in cols] for row in rows]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det % p:
            return True
    return False


def check_local_solvability(report, a: int, b: int, c: int) -> list[str]:
    """Screen (7): every certified point is a smooth point of Y."""
    out = []
    places = report.data.get("places", {})
    for place, info in places.items():
        if info.get("status") != "certified":
            continue
        if place == "real":
            v = [Fraction(x) for x in info["point"]]
            q0 = v[0] * v[1] + 5 * v[2] ** 2
            q1 = (v[0] + v[1]) * (v[0] + 2 * v[1])
            q2 = a * v[0] ** 2 + b * v[1] ** 2 + c * v[2] ** 2
            if not any(v) or q0 < 0 or q0 - q1 < 0 or q2 < 0:
                out.append(f"screen 7: real point {info['point']} is not a real point")
            continue
        p = int(place)
        v, w = info["point"]
        if all(x % p == 0 for x in list(v) + list(w)):
            out.append(f"screen 7: point at {p} is zero mod p")
        if any(q % p for q in quadrics(a, b, c, v, w)):
            out.append(f"screen 7: point {info['point']} is off Y mod {p}")
        elif not full_rank_mod_p(jacobian(a, b, c, v, w), p):
            out.append(f"screen 7: point {info['point']} is singular mod {p}")
    return out


def check_triplet_report(report, a: int, b: int, c: int) -> list[str]:
    out = []
    for rpt in report.conditions:
        if rpt.index == 7:
            out += check_local_solvability(rpt, a, b, c)
        else:
            out += check_cheap_screen(rpt, a, b, c)
    verdicts = [r.verdict for r in report.conditions]
    if FAIL in verdicts:
        overall = FAIL
    elif UNKNOWN in verdicts:
        overall = UNKNOWN
    elif PROBABLE in verdicts:
        overall = PROBABLE
    else:
        overall = PASS
    if report.overall != overall:
        out.append(f"overall {report.overall} does not follow from the screens ({overall})")
    return out


def verdict_string(report) -> str:
    """Screen verdicts then the overall one, e.g. 'PPPPPPBP/B'."""
    return "".join(LETTER[r.verdict] for r in report.conditions) + "/" + LETTER[report.overall]


#: The paper's witness, as the seed commit answers it.
WITNESS_VERDICTS = "PPPPPPBP/B"
#: Desk functions whose structured route must raise ResidueParityError.
PARITY_VIOLATORS = {("node-paired", "unpaired"), ("section-poles", "half")}


def check_witness(outcome: dict) -> list[str]:
    """The known answer at (12, 111, 13)."""
    out = []
    if not agrees(WITNESS_VERDICTS, outcome["verdicts"]):
        out.append(f"witness verdicts {outcome['verdicts']} != {WITNESS_VERDICTS}")
    for suite in ("geometry", "lattice", "induced_blocks", "non_splitness"):
        if outcome[suite] is not True:
            out.append(f"witness suite {suite} is not ok")
    if outcome["fixed_classes"]:
        out.append(f"witness scan fixed classes {outcome['fixed_classes']}")
    if outcome["index2_submodules"] != 1:
        out.append(f"{outcome['index2_submodules']} index-2 submodules, expected 1")
    for (desk, func), result in outcome["desks"].items():
        want = "parity" if (desk, func) in PARITY_VIOLATORS else "ok"
        if result != want:
            out.append(f"desk {desk}/{func}: {result}, expected {want}")
    return out


def agrees(reference: str, got: str) -> bool:
    """Verdict strings agree letter by letter; Probable -> Pass is allowed."""
    if len(reference) != len(got):
        return False
    return all(r == g or (r == "B" and g == "P") for r, g in zip(reference, got))
