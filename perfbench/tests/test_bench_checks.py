"""The output checks catch outputs that were altered on purpose."""

import copy

import pytest

import inputs
import items
import oracles
import run
from enriq.conditions import evaluate_triplet, local_solvability

WITNESS = (12, 111, 13)


@pytest.fixture(scope="module")
def cheap_report():
    return evaluate_triplet(*WITNESS, conditions=range(1, 7))


def test_honest_report_checks_out(cheap_report):
    assert oracles.check_triplet_report(cheap_report, *WITNESS) == []


@pytest.mark.parametrize("index", [1, 2, 4, 5, 6])
def test_flipped_screen_is_flagged(cheap_report, index):
    report = copy.deepcopy(cheap_report)
    rpt = report.conditions[index - 1]
    rpt.verdict = oracles.FAIL if rpt.verdict == oracles.PASS else oracles.PASS
    failures = oracles.check_triplet_report(report, *WITNESS)
    assert any(f.startswith(f"screen {index}:") for f in failures)


def test_flipped_overall_is_flagged(cheap_report):
    report = copy.deepcopy(cheap_report)
    report.overall = oracles.FAIL
    assert oracles.check_triplet_report(report, *WITNESS)


def test_tampered_local_point_is_flagged():
    report = local_solvability(*WITNESS)
    assert oracles.check_local_solvability(report, *WITNESS) == []
    place, info = next((k, v) for k, v in report.data["places"].items()
                       if k != "real" and v["status"] == "certified")
    info["point"][1][0] += 1
    assert oracles.check_local_solvability(report, *WITNESS) == [
        f"screen 7: point {info['point']} is off Y mod {place}"]


def test_singular_point_is_caught_by_the_minors():
    # (v, w) = 0 makes every Jacobian entry vanish
    assert not oracles.full_rank_mod_p(oracles.jacobian(12, 111, 13, (0, 0, 0), (0, 0, 0)), 7)
    assert oracles.full_rank_mod_p([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 7)


def _witness_outcome(**changes):
    outcome = {
        "verdicts": oracles.WITNESS_VERDICTS, "geometry": True, "lattice": True,
        "induced_blocks": True, "non_splitness": True, "fixed_classes": [],
        "index2_submodules": 1,
        "desks": {("kummer-line", "t"): "ok", ("node-paired", "unpaired"): "parity",
                  ("section-poles", "half"): "parity"},
    }
    outcome.update(changes)
    return outcome


def test_witness_known_answer():
    assert oracles.check_witness(_witness_outcome()) == []
    # screen 7 becoming certified is progress, not a failure
    assert oracles.check_witness(_witness_outcome(verdicts="PPPPPPPP/P")) == []
    assert oracles.check_witness(_witness_outcome(verdicts="PPPPPPFP/F"))
    assert oracles.check_witness(_witness_outcome(lattice=False))
    assert oracles.check_witness(_witness_outcome(fixed_classes=["{P1,Q1}"]))
    desks = {("node-paired", "unpaired"): "ok", ("section-poles", "half"): "parity"}
    assert oracles.check_witness(_witness_outcome(desks=desks))


def test_reference_agreement_rule():
    assert oracles.agrees("FPFPPPB/F", "FPFPPPB/F")
    assert oracles.agrees("FPFPPPB/B", "FPFPPPP/P")
    assert not oracles.agrees("FPFPPPP/P", "FPFPPPB/B")
    assert not oracles.agrees("FPFPPPB/F", "FPFPPFB/F")


def test_run_counts_a_verdict_that_left_the_reference(monkeypatch):
    bench = run.Run(run.Path.cwd(), "screen-sweep", 0, 1)
    keys = bench.keys
    bench.reference = {keys[0]: "FFFPPPF/F", keys[1]: "FFFPPPB/B"}
    window = {"s": 1.0, "net_s": 1.0, "inv": 1.0}
    fake = {"setup": {"import": window, "load": window}, "rss_mb": 80.0, "layers": None,
            "probes": [1.0],
            "items": [{"time": window, "verdict": "FFFPPPF/F", "verdicts": [], "failures": []}
                      for _ in keys]}
    fake["items"][1] = dict(fake["items"][1], verdict="FFFPPPP/F")
    fake["items"][2] = dict(fake["items"][2], verdict="FFFPPPP/F")
    monkeypatch.setattr(run, "call_worker", lambda root, job: copy.deepcopy(fake))
    bench.one_pass()
    # item 1 moved Probable -> Pass on screen 7 but its overall went B -> F
    assert (bench.attempted, bench.failed) == (len(keys), 1)


def test_residue_spec_checks():
    ctx = items.Context()
    specs = inputs.generate("residue-calculus", 0)
    plain = next(s for s in specs if s["perturb"] is None)
    outcome = items.run_residue_spec(plain, ctx)
    assert items.check_residue_spec(plain, outcome)[2] == []
    flipped = dict(outcome, result=dict(outcome["result"], status="obstructed"))
    assert items.check_residue_spec(plain, flipped)[2]
    perturbed = next(s for s in specs if s["perturb"] is not None)
    outcome = items.run_residue_spec(perturbed, ctx)
    assert items.check_residue_spec(perturbed, outcome)[2] == []
    wrong = dict(perturbed, perturb=-perturbed["perturb"])
    assert items.check_residue_spec(wrong, outcome)[2]
