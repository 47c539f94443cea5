"""Running one item of a workload through ``enriq`` and checking the output.

Every call into the program goes through a module attribute looked up at
call time (``conditions.evaluate_triplet``, ``presets.k_tower``, ...), so
the probes that :func:`install_probes` puts at those names see it.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from fractions import Fraction

from enriq import arith, conditions, geometry, lattice, presets, residues, twotorsion
from enriq.funcfield import QQ, Place, Poly, RatFunc, TowerCoefficients
from enriq.towers import Tower

import inputs
import oracles
import tracing


class Context:
    """Per-pass state shared by the items of one pass."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self._bases = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def base(self, name: str):
        if self._bases is None:
            sqrt5 = Tower().extend("r5", Fraction(5), depth=12, label="sqrt5")
            self._bases = {"Q": (QQ, None),
                           "Q(sqrt5)": (TowerCoefficients(sqrt5), sqrt5.gen("r5"))}
        return self._bases[name]


# -- triplets -------------------------------------------------------------


def run_witness(item, ctx: Context) -> dict:
    a, b, c = item
    report = conditions.evaluate_triplet(a, b, c)
    k = presets.k_tower(a, b, c)
    k1 = presets.k1_tower(a, b, c)
    geo = geometry.verify_suite(a, b, c, tower=k)
    lat = lattice.verify_suite(k, k1.step_names())
    with ctx.span("twotorsion.suite"):
        scan = twotorsion.scan_report()
        blocks = twotorsion.verify_induced_blocks()
        nonsplit = twotorsion.verify_non_splitness()
        index2 = twotorsion.enumerate_invariant_submodules(
            twotorsion.pullback_image_module(), 2)
    desks = {}
    for desk_name, desk in residues.standard_desks().items():
        for func_name, func in desk.functions.items():
            try:
                ok = (residues.compare_routes(desk.cover, func)["ok"]
                      and residues.check_component_residues(desk.cover, func)["ok"])
                desks[desk_name, func_name] = "ok" if ok else "mismatch"
            except residues.ResidueParityError:
                desks[desk_name, func_name] = "parity"
    return {
        "report": report,
        "geometry": geo["ok"],
        "lattice": lat["ok"],
        "induced_blocks": blocks,
        "non_splitness": nonsplit,
        "fixed_classes": scan["fixed_classes"],
        "index2_submodules": len(index2),
        "desks": desks,
    }


def run_screens(item, ctx: Context) -> dict:
    return {"report": conditions.evaluate_triplet(*item, conditions=range(1, 8))}


def check_triplet(item, outcome: dict) -> tuple[str, list, list[str]]:
    report = outcome["report"]
    failures = oracles.check_triplet_report(report, *item)
    if "desks" in outcome:
        outcome["verdicts"] = oracles.verdict_string(report)
        failures += oracles.check_witness(outcome)
    verdicts = [r.verdict for r in report.conditions]
    return oracles.verdict_string(report), verdicts, failures


# -- residue specs --------------------------------------------------------


def _function(desc: dict, field, root) -> RatFunc:
    const = desc["const"]
    if root is not None:
        const = field.coerce(const[0]) + field.coerce(const[1]) * root
    fn = RatFunc.constant(field, const)
    for index, exp in desc["factors"]:
        fn = fn * RatFunc.from_poly(Poly(field, inputs.FACTORS[index])) ** exp
    return fn


def run_residue_spec(item, ctx: Context) -> dict:
    field, root = ctx.base(item["base"])
    symbols = [residues.FunctionFieldSymbol(_function(f, field, root), _function(g, field, root))
               for f, g in item["symbols"]]
    used = sorted({i for pair in item["symbols"] for fn in pair for i, _ in fn["factors"]})
    places = [Place.finite(Poly(field, inputs.FACTORS[i])) for i in used]
    profile = residues.symbol_profile(symbols, places=places)
    spec = residues.ResidueSpec(field)
    for place, cls in profile.items():
        value = cls.value
        if place.is_infinite and item["perturb"] is not None:
            value = field.coerce(value) * field.coerce(item["perturb"])
        spec.add(place, value)
    if item["perturb"] is not None and spec.infinity_value() is None:
        spec.add(Place.infinite(field), item["perturb"])
    result = residues.faddeev_reconstruct(spec)
    again = None
    if result["status"] == "reconstructed":
        again = residues.symbol_profile(result["symbols"])
    return {"field": field, "profile": profile, "result": result, "again": again}


def _same_profile(one: dict, two: dict) -> bool:
    for place in set(one) | set(two):
        x, y = one.get(place), two.get(place)
        if x is None and y is None:
            continue
        if x is None or y is None:
            if not (x or y).is_trivial():
                return False
        elif not x.same_class(y):
            return False
    return True


def check_residue_spec(item, outcome: dict) -> tuple[str, list, list[str]]:
    result = outcome["result"]
    status = result["status"]
    failures = []
    if item["perturb"] is not None:
        if status != "obstructed":
            failures.append(f"perturbed spec came back {status}")
        elif not result["witness"].same_class(
                residues.SquareClass(outcome["field"], item["perturb"])):
            failures.append(f"obstruction {result['witness']} != [{item['perturb']}]")
    elif status != "reconstructed":
        failures.append(f"consistent spec came back {status}")
    else:
        if not result["roundtrip_ok"]:
            failures.append(f"roundtrip problems at {result['problems']}")
        if not _same_profile(outcome["profile"], outcome["again"]):
            failures.append("profile of the reconstruction differs from the input profile")
    certified = status in ("reconstructed", "obstructed")
    verdict = {"reconstructed": "R", "obstructed": "O"}.get(status, "?")
    return verdict, [oracles.PASS if certified else oracles.UNKNOWN], failures


RUNNERS = {
    "witness": (run_witness, check_triplet),
    "screen-sweep": (run_screens, check_triplet),
    "residue-calculus": (run_residue_spec, check_residue_spec),
}


# -- probes for the traced run --------------------------------------------


def _count_step(counters, _result, tower, name, *_):
    counters["towers.degenerate_steps"] += name in tower.degenerate
    counters["towers.unknown_steps"] += name in tower.unverified


def _count_places(counters, report, *_):
    for info in report.data.get("places", {}).values():
        counters["conditions.places"] += 1
        counters[f"conditions.places_{info['status']}"] += 1
        counters["conditions.deep_searches"] += "modulus" in info


def _count_roundtrip(counters, result, *_):
    if result["status"] == "reconstructed":
        counters["residues.reconstructed"] += 1
        counters["residues.roundtrip_ok"] += bool(result["roundtrip_ok"])


def install_probes(tracer: tracing.Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "enriq" or name.startswith("enriq.")]
    # evaluate_triplet dispatches screens 1-6 through this private table
    table = getattr(conditions, "_CHEAP", None)
    if isinstance(table, dict):
        tracer.patch_dict("conditions.cheap_screen", table)
    probes = [
        ("towers.k_tower", presets, "k_tower", None),
        ("towers.is_square", Tower, "is_square", None),
        ("towers.add_step", Tower, "add_step", _count_step),
        ("conditions.evaluate_triplet", conditions, "evaluate_triplet", None),
        ("conditions.local_solvability", conditions, "local_solvability", _count_places),
        ("conditions.galois_proxy", conditions, "galois_generality_proxy", None),
        ("arith.prime_divisors", arith, "prime_divisors", None),
        ("arith.legendre", arith, "legendre", None),
        ("arith.anisotropy", arith, "is_anisotropic_diag4", None),
        ("lattice.verify_suite", lattice, "verify_suite", None),
        ("lattice.lattice_coords", lattice, "lattice_coords", None),
        ("lattice.subfield_fixing_rows", lattice, "subfield_fixing_rows", None),
        ("f2.invariant_submodules", twotorsion, "enumerate_invariant_submodules", None),
        ("geometry.verify_suite", geometry, "verify_suite", None),
        ("residues.symbol_profile", residues, "symbol_profile", None),
        ("residues.faddeev_reconstruct", residues, "faddeev_reconstruct", _count_roundtrip),
        ("residues.compare_routes", residues, "compare_routes", None),
        ("residues.check_component_residues", residues, "check_component_residues", None),
    ]
    probes += [("conditions.cheap_screen", conditions, f"condition{i}", None)
               for i in range(1, 7)]
    for name, owner, attr, hook in probes:
        tracer.patch(name, modules, owner, attr, hook)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = tracer.spans
    total = tracing.inclusive_totals(spans)
    calls = tracing.call_counts(spans)
    n = tracer.counters
    out = {
        "towers.k_tower_s": total.get("towers.k_tower", 0.0),
        "towers.k_tower_calls": calls["towers.k_tower"],
        "towers.is_square_calls": calls["towers.is_square"],
        "towers.is_square_s": total.get("towers.is_square", 0.0),
        "towers.add_step_calls": calls["towers.add_step"],
        "towers.degenerate_steps": n["towers.degenerate_steps"],
        "towers.unknown_steps": n["towers.unknown_steps"],
        "conditions.cheap_screens_s": total.get("conditions.cheap_screen", 0.0),
        "conditions.local_solvability_s": total.get("conditions.local_solvability", 0.0),
        "conditions.galois_proxy_s": total.get("conditions.galois_proxy", 0.0),
        "conditions.places_certified": n["conditions.places_certified"],
        "conditions.places_survived": n["conditions.places_survived"],
        "conditions.places_obstructed": n["conditions.places_obstructed"],
        "conditions.certified_ratio": _ratio(n["conditions.places_certified"],
                                             n["conditions.places"]),
        "conditions.deep_searches": n["conditions.deep_searches"],
        "arith.prime_divisors_calls": calls["arith.prime_divisors"],
        "arith.prime_divisors_s": total.get("arith.prime_divisors", 0.0),
        "arith.legendre_calls": calls["arith.legendre"],
        "arith.anisotropy_s": total.get("arith.anisotropy", 0.0),
        "lattice.verify_suite_s": total.get("lattice.verify_suite", 0.0),
        "lattice.lattice_coords_calls": calls["lattice.lattice_coords"],
        "lattice.lattice_coords_s": total.get("lattice.lattice_coords", 0.0),
        "lattice.subfield_fixing_rows_s": total.get("lattice.subfield_fixing_rows", 0.0),
        "f2.invariant_submodules_s": total.get("f2.invariant_submodules", 0.0),
        "geometry.verify_suite_s": total.get("geometry.verify_suite", 0.0),
        "twotorsion.suite_s": total.get("twotorsion.suite", 0.0),
        "residues.symbol_profile_s": total.get("residues.symbol_profile", 0.0),
        "residues.faddeev_reconstruct_s": total.get("residues.faddeev_reconstruct", 0.0),
        "residues.compare_routes_s": total.get("residues.compare_routes", 0.0),
        "residues.check_component_residues_s": total.get("residues.check_component_residues", 0.0),
        "residues.roundtrip_ok_ratio": _ratio(n["residues.roundtrip_ok"],
                                              n["residues.reconstructed"]),
    }
    for layer, seconds in tracing.layer_self_times(spans).items():
        out[f"{layer}.self_s"] = seconds
    return out
