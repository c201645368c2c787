"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  Each function is wrapped under the name
its callers look it up by: ``measures.solve`` (measures binds it with
``from .sdp import solve``), the phase functions in ``ipm``'s globals,
``kernels.schur_accumulate`` and ``kernels.gather_inner`` (reached through
the module), and ``cli.main``.  The KKT solver is the closure that
``_factor_kkt`` returns, so it is wrapped on return as ``ipm.kkt_solve``.
"""

from __future__ import annotations

from tracing import Tracer

IPM_PHASES = (
    "compile_problem",
    "_nt_scaling",
    "_second_order_term",
    "_gondzio_target",
    "_max_step",
    "apply_block",
    "gather_block",
    "_assemble_M",
    "_split_equalities",
)
MEASURES = ("e_w", "w_primal", "w_dual", "det_distill_one_copy", "w0", "fidelity_ppt", "log_negativity")

# Computed cost model of the numpy Schur kernel, per block j, per pair (e, f)
# of its entry slots (up to the block's largest entry count w_j), per (i, k)
# in the m x m output: a complex product u_e u_f, two complex products with
# gathered V entries and a real accumulate, 19 flops; two gathered complex
# m x m operands read and M read and written, 48 bytes.
SCHUR_FLOP_PER_ENTRY = 19
SCHUR_BYTE_PER_ENTRY = 48


class Counters:
    """Counts read from call arguments and results, beside the spans."""

    def __init__(self):
        self.iterations = 0
        self.not_optimal = 0
        self.schur_entries = 0  # sum over calls of m^2 * sum_j w_j^2
        self.max_m = 0


def install(tracer: Tracer) -> Counters:
    """Wrap every traced function of an imported entbound package."""
    from entbound import cli, ipm, kernels, measures

    counts = Counters()

    def on_solve(args, sol):
        if sol.status != "optimal":
            counts.not_optimal += 1
        return sol

    def on_run(args, raw):
        counts.iterations += int(raw["iterations"])
        return raw

    def on_factor(args, solver):
        if solver is None:
            return None
        return tracer.wrap("ipm.kkt_solve", solver)

    def on_schur(args, result):
        M, cnts = args[0], args[5]
        m = M.shape[0]
        if m:
            widths = cnts.max(axis=1).astype(int)
            counts.schur_entries += m * m * int((widths**2).sum())
        counts.max_m = max(counts.max_m, m)
        return result

    tracer.install(measures, "solve", "sdp.solve", on_solve)
    for name in MEASURES:
        tracer.install(measures, name, f"measures.{name}")
    tracer.install(ipm, "run", "ipm.run", on_run)
    for name in IPM_PHASES:
        tracer.install(ipm, name, f"ipm.{name}")
    tracer.install(ipm, "_factor_kkt", "ipm._factor_kkt", on_factor)
    tracer.install(kernels, "schur_accumulate", "kernels.schur_accumulate", on_schur)
    tracer.install(kernels, "gather_inner", "kernels.gather_inner")
    tracer.install(cli, "main", "cli.main")
    return counts


def metrics(tracer: Tracer, counts: Counters, cpu_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name as (value, unit); a span that never ran or
    whose function is absent reads 0."""
    sp = tracer.span
    schur = sp("kernels.schur_accumulate")
    gflop = SCHUR_FLOP_PER_ENTRY * counts.schur_entries / 1e9
    factors = sp("ipm._factor_kkt").calls
    solves = sp("ipm.run").calls
    return {
        "kernels.schur_accumulate.s": (schur.incl_s, "s"),
        "kernels.schur_accumulate.calls": (schur.calls, "count"),
        "kernels.schur_accumulate.gflop": (gflop, "GFLOP"),
        "kernels.schur_accumulate.gbyte": (SCHUR_BYTE_PER_ENTRY * counts.schur_entries / 1e9, "GB"),
        "kernels.schur_accumulate.gflop_per_s": (gflop / schur.incl_s if schur.incl_s else 0.0, "GFLOP/s"),
        "kernels.gather_inner.s": (sp("kernels.gather_inner").incl_s, "s"),
        "ipm._max_step.s": (sp("ipm._max_step").incl_s, "s"),
        "ipm._max_step.calls": (sp("ipm._max_step").calls, "count"),
        "ipm._nt_scaling.s": (sp("ipm._nt_scaling").incl_s, "s"),
        "ipm._second_order_term.s": (sp("ipm._second_order_term").incl_s, "s"),
        "ipm.apply_block.s": (sp("ipm.apply_block").incl_s, "s"),
        "ipm.gather_block.self_s": (sp("ipm.gather_block").self_s, "s"),
        "ipm.run.self_s": (sp("ipm.run").self_s, "s"),
        "ipm._gondzio_target.s": (sp("ipm._gondzio_target").incl_s, "s"),
        "ipm._gondzio_target.calls": (sp("ipm._gondzio_target").calls, "count"),
        "ipm.kkt_solve.s": (sp("ipm.kkt_solve").incl_s, "s"),
        "ipm.kkt_solve.calls": (sp("ipm.kkt_solve").calls, "count"),
        "ipm.kkt_solves_per_factor": (sp("ipm.kkt_solve").calls / factors if factors else 0.0, "count"),
        "ipm.run.iterations": (counts.iterations, "count"),
        "ipm.iterations_per_solve": (counts.iterations / solves if solves else 0.0, "count"),
        "ipm._factor_kkt.s": (sp("ipm._factor_kkt").incl_s, "s"),
        "ipm._factor_kkt.calls": (factors, "count"),
        "ipm._split_equalities.s": (sp("ipm._split_equalities").incl_s, "s"),
        "ipm._assemble_M.self_s": (sp("ipm._assemble_M").self_s, "s"),
        "ipm.compile_problem.s": (sp("ipm.compile_problem").incl_s, "s"),
        "ipm.schur_matrix_mb": (counts.max_m**2 * 8 / 1e6, "MB"),
        "sdp.solve.calls": (sp("sdp.solve").calls, "count"),
        "sdp.solve.self_s": (sp("sdp.solve").self_s, "s"),
        "sdp.solve.not_optimal": (counts.not_optimal, "count"),
        "measures.w_dual.calls": (sp("measures.w_dual").calls, "count"),
        "measures.w_dual.s": (sp("measures.w_dual").incl_s, "s"),
        "measures.w_primal.calls": (sp("measures.w_primal").calls, "count"),
        "measures.w_primal.s": (sp("measures.w_primal").incl_s, "s"),
        "measures.e_w.s": (sp("measures.e_w").incl_s, "s"),
        "measures.det_distill_one_copy.s": (sp("measures.det_distill_one_copy").incl_s, "s"),
        "measures.w0.s": (sp("measures.w0").incl_s, "s"),
        "measures.fidelity_ppt.s": (sp("measures.fidelity_ppt").incl_s, "s"),
        "measures.log_negativity.s": (sp("measures.log_negativity").incl_s, "s"),
        "cli.main.self_s": (sp("cli.main").self_s, "s"),
        "process.cpu_s": (cpu_s, "s"),
    }
