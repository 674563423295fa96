"""The four workloads: inputs drawn from a seed, and one pass of each.

Every workload is a closed loop with one client: a pass starts only after the
previous one has finished, and all work in a pass is sequential.

* cli-paper: six fresh `python -m fracschrod` processes at the per-command
  defaults (n = 1024).  The only workload where interpreter start-up and
  `import fracschrod` dominate.
* cn-sweep: `epsilon_sweep` plus `uniqueness_experiment(m=2)` on the delta
  potential with Crank-Nicolson at n = 4096.  The tridiagonal solve does
  nearly all the work; stepping makes no FFT (only the observables do).
* spectral-sweep: the same drivers on delta_squared with Strang splitting,
  s = 0.75, n = 4096 and a tenth of the default step, recording every step.
  Observables and field construction take about half of the time.
* spectral-long: one `simulate` call, delta_squared at eps 0.035,
  n = 16384, Strang s = 1, 1400 steps, sparse recording.  No width batching
  and few observables: the shape of the consistency `fine` reference.

The seed draws the width list of the three width sweeps.  Seed 0 gives the
paper's widths.  Any other seed keeps the two ends of the range, 0.8 and
0.035, and draws the six widths between them without replacement from a
log-spaced ladder.  Keeping the ends fixes the span of every log-log fit and
keeps the stiffest width in every run, so slopes and drift maxima stay
comparable between seeds; drawing from a ladder means the committed golden
snapshot holds the exact result for every width a seed can draw.
spectral-long has a single fixed width and does not use the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-paper", "cn-sweep", "spectral-sweep", "spectral-long")
SWEEPS = ("cn-sweep", "spectral-sweep")

PAPER_EPSILONS = (0.8, 0.4, 0.3, 0.15, 0.11, 0.08, 0.05, 0.035)
EPS_MIN, EPS_MAX = 0.035, 0.8
N_WIDTHS = 8
LADDER = tuple(sorted(
    {float(f"{EPS_MIN * (EPS_MAX / EPS_MIN) ** (k / 23):.3g}") for k in range(24)}
    | set(PAPER_EPSILONS),
    reverse=True,
))

# potential of each workload's width sweep (the CLI sweep runs its default, delta)
SWEEP_POTENTIAL = {"cli-paper": "delta", "cn-sweep": "delta", "spectral-sweep": "delta_squared"}
CLI_COMMANDS = ("simulate", "sweep", "uniqueness", "consistency", "figures", "energy-scaling")
LONG_EPSILON = 0.035


def widths(seed: int) -> tuple[float, ...]:
    """Eight distinct widths in [0.035, 0.8], largest first."""
    if seed == 0:
        return PAPER_EPSILONS
    interior = [e for e in LADDER if EPS_MIN < e < EPS_MAX]
    chosen = random.Random(seed).sample(interior, N_WIDTHS - 2)
    return tuple(sorted([EPS_MAX, EPS_MIN, *chosen], reverse=True))


def eps_flag(eps) -> str:
    return ",".join(repr(float(e)) for e in eps)


def cli_argvs(eps) -> dict[str, list[str]]:
    """The six commands of one cli-paper pass, without their --out flag."""
    flag = eps_flag(eps)
    return {
        "simulate": ["simulate", "--eps", "0.05"],
        "sweep": ["sweep", "--eps", flag],
        "uniqueness": ["uniqueness", "--eps", flag],
        "consistency": ["consistency"],
        "figures": ["figures", "--figure", "all"],
        "energy-scaling": ["energy-scaling", "--eps", flag],
    }


def sweep_config(name: str, eps):
    from fracschrod.harness import ExperimentConfig
    from fracschrod.mollifier import PotentialSpec
    from fracschrod.operators import FractionalOrder
    from fracschrod.solver import SolverConfig

    potential = PotentialSpec(SWEEP_POTENTIAL[name])
    if name == "cn-sweep":
        return ExperimentConfig(
            potential=potential, epsilons=eps, n=4096,
            solver=SolverConfig(backend="crank_nicolson", t_end=0.214),
        )
    return ExperimentConfig(
        potential=potential, epsilons=eps, n=4096,
        solver=SolverConfig(backend="spectral_strang", dt=0.00107, t_end=0.214,
                            order=FractionalOrder(0.75), record_every=1),
    )


def long_inputs():
    """(datum, potential, solver config) of the single spectral-long run."""
    from fracschrod.grid import make_grid
    from fracschrod.mollifier import PotentialSpec, regularize_potential
    from fracschrod.solver import SolverConfig, initial_datum

    grid = make_grid(0.0, 10.0, 16384)
    potential = regularize_potential(PotentialSpec("delta_squared"), grid, LONG_EPSILON)
    config = SolverConfig(backend="spectral_strang", dt=0.000214, t_end=0.2996,
                          record_every=100)
    return initial_datum(grid), potential, config


def build_inputs(name: str, seed: int):
    """Everything a pass needs before it starts; timed as part of setup_s."""
    if name == "cli-paper":
        import fracschrod.cli  # noqa: F401  (what `python -m fracschrod` loads)
        return cli_argvs(widths(seed))
    if name in SWEEPS:
        return sweep_config(name, widths(seed))
    if name == "spectral-long":
        return long_inputs()
    raise ValueError(f"unknown workload {name!r}")


def run_operations(name: str, inputs):
    """Yield (operation name, thunk) for one in-process pass.

    The sweep drivers are named like the CLI commands that call them.

    Calls go through module attributes so that wrappers installed on the
    module namespaces see them.
    """
    from fracschrod import harness, solver

    if name in SWEEPS:
        yield "sweep", lambda: harness.epsilon_sweep(inputs)
        yield "uniqueness", lambda: harness.uniqueness_experiment(inputs, m=2.0)
    else:
        yield "simulate", lambda: solver.simulate(*inputs)
