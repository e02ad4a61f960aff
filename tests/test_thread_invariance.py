"""The solver's quantities have the same bits at one and two OpenBLAS threads.

A dense plan product is one BLAS gemv, which sums each output entry in one
order whatever the thread count; a sparse one runs scipy's sequential CSR
loop; the cost is a fixed-order sum; and BLAS dots over vectors of up to
10 000 entries do not depend on the thread count.  A probe evaluates each
quantity in a child process at one and at two threads and prints a digest of
its bits, per anchor layout and size.  The "signed" layout is a sparse
anchor at the flush floor, served at offsets of opposite sign on the two
sides: a near -30 and b near +30, so |a|_inf + |b|_inf is about 61 and
max a + max b about 1, within ``dual.SPARSE_SCALE_MAX``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otnewton
from otnewton._kernels import BLOCK

ANCHORS = [("dense", 64), ("dense", BLOCK + 17), ("dense", 1024), ("dense", 2048),
           ("sparse", BLOCK + 17), ("sparse", 1024), ("sparse", 2048), ("signed", 1024)]
QUANTITIES = ["row-sums", "col-sums", "newton-product", "diag-prc", "cg-direction",
              "trial-col-sums", "dual-value", "cost"]
CASES = [f"{layout}-{n}-{q}" for layout, n in ANCHORS for q in QUANTITIES] + ["dot-10000"]

PROBE = """
import hashlib, json, sys
import numpy as np
from otnewton import dual
from otnewton._kernels import SparsePlan, plan_cost
from otnewton.dual import DualState
from otnewton.newton import DiscountedSystem, pcg_solve
from otnewton.problems import Problem, gen_marginal


def digest(*xs):
    h = hashlib.sha256()
    for x in xs:
        h.update(np.asarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()


for layout, n in json.loads(sys.argv[1]):
    # The L1 line at 2^14 keeps about 8% of its entries.  The potentials are
    # the double c-transform of zero scaled by gamma, as late in a solve,
    # then moved off the anchor by offsets of size 1.
    gamma, x = 2.0 ** 14, np.arange(n) / (n - 1)
    C = np.abs(x[:, None] - x[None, :])
    f = C.min(axis=1)
    g = (C - f[:, None]).min(axis=0)
    r, c = gen_marginal(n, "spiky-random", 1), gen_marginal(n, "spiky-random", 2)
    sparse = layout != "dense"
    dual.sparse_anchor = lambda n, prev_nnz: sparse
    dual.sparse_limit = lambda n: n * n
    state = DualState(Problem(C=C, r=r, c=c), gamma,
                      u=gamma * (f + 0.5) + np.log(r), v=gamma * (g - 0.5) + np.log(c))
    state._anchor_plan(state.u, state.v)
    assert isinstance(state.anchored_plan()[0], SparsePlan) == sparse
    rng = np.random.default_rng(n)
    gauge = 30.0 if layout == "signed" else 0.0
    state.set_potentials(state.u - gauge + rng.uniform(-0.5, 0.5, n),
                         state.v + gauge + rng.uniform(-0.5, 0.5, n))
    anchor = state._anchor
    out = {"row-sums": digest(state.log_rP), "col-sums": digest(state.log_cP)}
    assert state._anchor is anchor  # served by the anchor, not a new one
    state.rebalance_columns()  # as a projection does before its Newton step
    system = DiscountedSystem.from_state(state)
    out["newton-product"] = digest(system.apply_F(0.9, rng.standard_normal(n)))
    out["diag-prc"] = digest(system.diag_prc())
    grad_u = state.gradient()[0]
    d_u, iters = pcg_solve(system, 0.99, -grad_u, 1e-6 * np.abs(grad_u).sum())
    assert iters > 0
    d_v = -system.apply_pc(d_u)
    out["cg-direction"] = digest(d_u, d_v)
    out["trial-col-sums"] = digest(state.trial_log_col_sums(d_u, d_v, 0.5))
    out["dual-value"] = digest(state.dual_value())
    out["cost"] = digest(plan_cost(state.release_plan(), C))
    for quantity, value in out.items():
        print(f"{layout}-{n}-{quantity}", value)
rng = np.random.default_rng(0)
a, b = rng.standard_normal(10_000), rng.standard_normal(10_000)
print("dot-10000", digest(a @ b))
"""


@pytest.fixture(scope="module")
def digests():
    """Each case's digest from the probe at one and at two BLAS threads."""
    src = str(Path(otnewton.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(ANCHORS)], env=env,
                             check=True, capture_output=True, text=True, timeout=300).stdout
        runs.append(dict(line.split() for line in out.splitlines()))
    assert all(sorted(run) == sorted(CASES) for run in runs)
    return runs


@pytest.mark.parametrize("case", CASES)
def test_same_bits_at_one_and_two_threads(case, digests):
    at_one, at_two = digests
    assert at_one[case] == at_two[case]
