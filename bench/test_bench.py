"""Tests of the benchmark itself: seeded inputs, oracles, the tracer and the
time cap.  Run with ``python3 -m pytest bench -q`` from the repository root."""

import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fiberfull  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _by_name(instances):
    return {inst.name: inst for inst in instances}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    build = workloads.WORKLOADS[name]
    first = [inst.text for inst in build(5, tmp_path)]
    again = [inst.text for inst in build(5, tmp_path)]
    other = [inst.text for inst in build(6, tmp_path)]
    assert first == again
    assert first != other


def test_pinned_stdout_rejects_any_byte_change(tmp_path):
    inst = _by_name(workloads.degeneration(1, tmp_path))["twisted-cubic-lex"]
    out = inst.run()
    assert inst.check(out) is None
    assert "sha256" in inst.check(out + " ")


def test_degeneration_oracle_rejects_wrong_tables_and_verdicts(tmp_path):
    inst = _by_name(workloads.degeneration(1, tmp_path))["minors2x3-lex"]
    out = inst.run()
    assert inst.check(out) is None
    doc = json.loads(out)
    doc["report"]["hilbert_initial"][2]["dims"]["-3"] += 1
    assert "Hochster" in inst.check(json.dumps(doc))
    doc = json.loads(out)
    doc["report"]["equal"] = False
    assert inst.check(json.dumps(doc)) is not None
    doc = json.loads(out)
    doc["report"]["betti_ideal"]["table"]["2"]["1"] += 1
    assert "Betti" in inst.check(json.dumps(doc))


def test_locus_oracle_rejects_a_missing_root():
    ring = fiberfull.make_ring([1], True, field=fiberfull.GF(workloads.P), names=["x"])
    check = workloads._check_locus(ring, {0: 1, 1: 1})

    def answer(locus, failing):
        checks = [{"overall": c not in failing} for c in workloads.LOCUS_POINTS]
        return json.dumps({"locus": locus, "checks": checks})

    assert check(answer("t^2 - t", {0, 1})) is None
    assert check(answer("t", {0, 1})) is not None
    assert check(answer("t^2 - t", {0})) is not None


def test_monomial_oracles_reject_corrupted_answers():
    table = {"window": [0, 1], "dims": {"0": 1, "1": 0}}
    bumped = {"window": [0, 1], "dims": {"0": 1, "1": 1}}
    assert workloads._check_ext_vs_hochster(json.dumps({"ext": [table], "hochster": [table]})) is None
    assert workloads._check_ext_vs_hochster(json.dumps({"ext": [table], "hochster": [bumped]}))
    gens = workloads.monomials_of_degree(4, 2)
    counts = workloads.standard_monomial_counts(4, gens, 4)
    assert counts == [1, 4, 0, 0, 0]
    check = workloads._check_counts(lambda: counts)
    assert check(json.dumps({"dims": {"0": 1, "1": 4, "2": 0, "3": 0, "4": 0}})) is None
    assert check(json.dumps({"dims": {"0": 1, "1": 4, "2": 1, "3": 0, "4": 0}})) is not None


def test_standard_monomial_count_matches_the_library(tmp_path):
    inst = _by_name(workloads.monomial(1, tmp_path))["quartics60-0"]
    assert inst.check(inst.run()) is None


def _bindings():
    """Every (owner, attribute, object) the tracer may patch."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "fiberfull" or modname.startswith("fiberfull."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
    for modname, clsname, attr, _ in tracing.LEAVES:
        if clsname is not None:
            cls = getattr(sys.modules["fiberfull." + modname], clsname)
            out[(clsname, attr)] = cls.__dict__[attr]
    return out


def test_tracer_restores_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fiberfull.groebner.buchberger is not before[("fiberfull.groebner", "buchberger")]
        assert fiberfull.ext.module_kernel is fiberfull.groebner.module_kernel
        assert fiberfull.fields.PrimeField.__dict__["mul"] is not before[("PrimeField", "mul")]
    finally:
        tracer.remove()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_refuses_a_missing_name_and_patches_nothing(monkeypatch):
    monkeypatch.delattr(fiberfull.hochster, "complex_from_squarefree")
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_output_is_identical_and_counted(tmp_path):
    inst = _by_name(workloads.degeneration(1, tmp_path))["twisted-cubic-lex"]
    plain = inst.run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(inst.name)
        traced = inst.run()
        tracer.end(keep=True)
    finally:
        tracer.remove()
    assert traced == plain
    metrics = tracer.layer_metrics()
    assert metrics["fiberfull.verify_degeneration.calls"][0] == 1
    assert metrics["cli.run_command.calls"][0] == 1
    assert metrics["fields.mul.calls"][0] > 0
    assert metrics["ext.ext_rank_sum"][0] > 0
    assert metrics["resolution.frame_rank_sum"][0] > 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_command", "groebner.buchberger", "groebner.module_kernel"} <= names
    assert all(span[4] == inst.name for span in tracer.spans)


def test_capped_instance_times_out_and_is_dropped_from_the_trace():
    def spin():
        while True:
            fiberfull.groebner.mon_divides((0,), (1,))

    inst = workloads.Instance("spin", "", spin, lambda out: None, cliff=True)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status, seconds, _ = run.solve(inst, 0.05, tracer)
    finally:
        tracer.remove()
        signal.signal(signal.SIGALRM, previous)
    assert (status, seconds) == ("timeout", 0.05)
    assert tracer.counts["rings.mon_divides.calls"] == 0
    correct, failed, unfinished, _ = run.evaluate([inst], [[(status, seconds, None)]])
    assert (correct, failed, unfinished) == (True, 0, 1)


def test_forked_solve_matches_in_process_solve(tmp_path):
    inst = _by_name(workloads.degeneration(1, tmp_path))["twisted-cubic-lex"]
    def spin():
        return next(x for x in iter(int, 1) if x)

    spin = workloads.Instance("spin", "", spin, lambda out: None, cliff=True)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        status, _, output = run.solve_forked(inst, 30.0)
        timed_out = run.solve_forked(spin, 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (status, output) == ("ok", inst.run())
    assert timed_out[0::2] == ("timeout", None)
