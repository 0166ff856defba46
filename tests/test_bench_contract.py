"""The benchmark's contract with the package, read from bench/ and never
edited there: every wrap site of bench/spans.py names a callable, and one
traced pass of each workload at the benchmark seed counts the latch samples
the workload declares, three grid field points per latch sample, and passes
the workload's own checks, the 1e-6 comparison with bench/reference
included.  A traced bench/run.py reports a run that breaks any of these as
incorrect, so a change to the latch count or to where the package looks its
layers up shows here first."""

from importlib import import_module, util
from pathlib import Path
import time

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, workloads = _load("spans"), _load("workloads")


@pytest.mark.parametrize("module, attr", [site[:2] for site in spans.WRAP_SITES],
                         ids=lambda v: v)
def test_wrap_site_is_a_callable(module, attr):
    assert callable(getattr(import_module(module), attr, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_counts_declared_samples_and_passes_checks(name, tmp_path,
                                                               monkeypatch):
    monkeypatch.delenv("ALIGNOR_OUT", raising=False)
    w = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    w.prepare()
    assert w.reference is not None
    tracer = spans.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        out = w.run(tmp_path)
        wall = time.perf_counter() - start
    metrics = tracer.pass_metrics(0, wall)
    assert metrics["dynamics.latch_scan.samples"] == w.samples_per_pass
    # each latch sample is one orientation point for the latch and one
    # orientation and one alignment point for the synthesized signals, so
    # the grids stay visible to the trace whatever components they evaluate
    assert metrics["spincore.field_points"] == 3 * w.samples_per_pass
    assert w.check(out, None) == []
