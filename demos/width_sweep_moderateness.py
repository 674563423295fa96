"""How fast do the singular potentials blow up as the width shrinks?

Sweeps the regularization width for the bump barrier and its square,
recording sup norms and solution norms per width, then reads off the
fitted growth exponents: the barrier grows like 1/eps (exponent 1), its
square like 1/eps^2 (exponent 2), while the solution norms stay bounded.
That gap between potential growth and solution boundedness is the whole
point of the regularization framework.
"""

from fracschrod.harness import DEFAULT_EPSILONS, ExperimentConfig, epsilon_sweep
from fracschrod.mollifier import PotentialSpec
from fracschrod.solver import SolverConfig

solver = SolverConfig(backend="crank_nicolson", dt=0.0107, t_end=0.214)

for kind in ("delta", "delta_squared"):
    cfg = ExperimentConfig(potential=PotentialSpec(kind),
                           epsilons=DEFAULT_EPSILONS, solver=solver)
    report = epsilon_sweep(cfg)

    print(f"== {kind} ==")
    print(f"{'eps':>6} {'sup |p|':>12} {'final mass':>12} {'sup ||u||':>12}")
    for rec in report.records:
        print(f"{rec.epsilon:6.3f} {rec.sup_norm_p:12.4e} "
              f"{rec.final_mass:12.6e} {rec.sup_composite_norm:12.6e}")
    print(f"potential growth exponent: {report.potential_moderateness_n:.4f} "
          f"(fit residual {report.potential_residual:.1e})")
    print(f"solution growth exponent:  {report.solution_moderateness_n:.2e} "
          f"(fit residual {report.solution_residual:.1e})")
    print()
