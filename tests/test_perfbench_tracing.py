"""The benchmark's traced run must survive package changes: perfbench wraps
package functions by name and reads their arguments, so a change that
breaks a wrapper would make every traced operation raise."""

from pathlib import Path

from entbound import kernels, measures
from entbound.states import rho_alpha

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names the benchmark still traces but the package no longer has
RETIRED = {"kernels.schur_accumulate", "kernels.gather_inner", "measures.w_primal"}


def test_traced_measures_run_and_report_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    counts = layers.install(tracer)
    try:
        rho = rho_alpha(0.3)
        measures.e_w(rho)
        measures.det_distill_one_copy(rho)
    finally:
        tracer.uninstall()

    metrics = layers.metrics(tracer, counts, cpu_s=0.0)
    assert set(tracer.absent) <= RETIRED
    assert metrics["sdp.solve.calls"][0] == 2
    assert metrics["ipm.run.iterations"][0] > 0
    assert metrics["ipm._assemble_M.self_s"][0] > 0
    assert kernels.kernel_name() == "numpy"
