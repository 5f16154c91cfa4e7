"""Workloads: the run configs the benchmark generates and the stages it runs.

A run with benchmark seed ``s`` generates ``inputs`` configs, one per
ensemble seed ``s * inputs + j``, and cycles through them.  The program sees
only the config file and ``--seed``.  Several inputs per run keep the run's
median from resting on one ensemble: control work (kappa doublings, CG
iterations, members that decay below eps unaided) depends on the data, most
of all on the interval, which therefore runs four inputs.

Sizes are chosen so that one pipeline takes one to four seconds on a 2-core
machine, so a run holds many pipelines, and so that no stage fails on any
seed tried (the observability fit exits 3 on uninformative ensembles; see
README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

PIPELINE = ("simulate", "observe", "commutator-check", "control", "cost-study",
            "report")

# Never run while the benchmark or a change is being tuned; claim checks
# repeat their comparison on it.
HELD_OUT_SEED = 7919

_INTERVAL = """\
[domain]
kind = interval
a = 0.0
b = 1.0
x0 = 0.5

[omega]
lo = 0.3
hi = 0.7

[grid]
n = {n}

[weight]
s = 0.5
h_weight = 0.5
ell = 2.0

[time]
T = {T}
dt = {dt}
scheme = crank_nicolson

[impulse]
tau = {tau}

[control]
eps = {eps}
kappa = auto
cg_tol = 1e-12
cg_maxit = 400

[ensemble]
count = {count}
seed = {seed}
initial = random
"""

# anchor x0 at the centre: the commutator check on a disk needs a weight that
# is constant on the boundary
_DISK = """\
[domain]
kind = disk
center = 0.0, 0.0
radius = 1.0
x0 = 0.0, 0.0

[omega]
center = 0.0, 0.0
radius = {omega_radius}

[grid]
nr = {nr}
ntheta = {ntheta}

[weight]
s = 0.5
h_weight = 0.5
ell = 2.0

[time]
T = {T}
dt = {dt}
scheme = crank_nicolson

[impulse]
tau = {tau}

[ensemble]
count = {count}
seed = {seed}
initial = random
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple
    template: str
    params: dict        # benchmark size
    tiny: dict          # test size: same stages and code paths, less work
    inputs: int         # generated configs per run

    def input_seeds(self, seed):
        return [seed * self.inputs + j for j in range(self.inputs)]

    def config_text(self, input_seed, tiny=False):
        return self.template.format(seed=input_seed,
                                    **(self.tiny if tiny else self.params))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline-interval",
        why="full six-stage pipeline on the interval; cost-study's "
            "control->evolve->discretize chain of many tiny steps dominates",
        stages=PIPELINE,
        template=_INTERVAL,
        params=dict(n=32, T=0.5, dt=0.01, tau=0.25, eps="0.2, 0.1", count=20),
        tiny=dict(n=32, T=0.5, dt=0.01, tau=0.25, eps="0.2", count=20),
        inputs=4,
    ),
    Workload(
        name="certify-disk",
        why="simulate, observe, commutator-check on the disk; log-convexity "
            "traces and weights dominate and control does no work",
        stages=("simulate", "observe", "commutator-check", "report"),
        template=_DISK,
        params=dict(omega_radius=0.3, nr=16, ntheta=48, T=0.5, dt=0.01,
                    tau=0.25, count=15),
        tiny=dict(omega_radius=0.3, nr=8, ntheta=24, T=0.2, dt=0.01,
                  tau=0.1, count=15),
        inputs=2,
    ),
    Workload(
        name="large-disk",
        why="simulate on a 20640-dof disk above DIRECT_SOLVE_MAX_DOFS; few "
            "large steps through the iterative CG step path",
        stages=("simulate", "report"),
        template=_DISK,
        params=dict(omega_radius=0.5, nr=128, ntheta=160, T=0.06, dt=0.01,
                    tau=0.03, count=1),
        tiny=dict(omega_radius=0.5, nr=128, ntheta=160, T=0.02, dt=0.01,
                  tau=0.01, count=1),
        inputs=2,
    ),
)}
