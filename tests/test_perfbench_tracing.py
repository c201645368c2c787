"""The benchmark's traced run must survive package changes: perfbench wraps
package functions by name and reads their arguments, so a change that
breaks a wrapper would make every traced operation raise."""

from pathlib import Path

from entbound import cli, kernels, measures
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


def test_traced_sweep_solves_its_grids_in_lockstep(monkeypatch, tmp_path, capsys):
    # the cli workload's sweeps reach the wrapped measures and solver phases
    # through measures.evaluate_many and ipm.run_batch
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "rho_alpha", "--from", "0.1", "--to", "0.5", "--steps", "3"]
        code = cli.main(argv + ["--measures", "ew,en,e0,fgamma:k=1.5,witness", "--out", str(out)])
    finally:
        tracer.uninstall()

    assert code == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 4
    assert set(tracer.absent) <= RETIRED
    assert tracer.span("ipm._max_step").calls > 0
