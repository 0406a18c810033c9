"""qcrkit runs on numpy alone, and on the parts of numpy it needs.

scipy and orjson may be installed next to it, but neither is a dependency:
a fresh interpreter that imports qcrkit and runs the verifier, the
protocols, the PPT sweep, density and pure-against-density trace distances
(the block spectrum's component search is where ``scipy.sparse.csgraph``
would be the shortcut), a purify of a sparse density and a state-file round
trip must not have loaded them. Nor may it have loaded ``numpy.ma``, which
``np.unique`` and ``np.union1d`` import on their first call: that import
costs 10-15 ms and about 1 MB of RSS in every fresh process.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import qcrkit as q
a, _ = q.compose(q.build_example_state(), q.maximally_entangled(2), check=False)
a = a.to_density()
assert not q.all_dealer_cuts_ppt(a).all_ppt
assert q.trace_distance(a, q.partial_trace(q.purify(a), ["E"])) < 1e-9
for exhaustive in (False, True):
    assert q.is_qcr(a, exhaustive=exhaustive).verdict
ghz = q.build_ghz_qcr(2, 3)
assert all(q.is_qcr(oc.state, tol=1e-7).verdict for oc in q.reduce(ghz, ["A1"]))
assert q.text_to_state(q.state_to_text(a)).matrix.tobytes() == a.matrix.tobytes()
p = q.random_private_state(2, (2, 2), np.random.default_rng(1))
assert q.purify(p).layout.subsystems[-1].dim == 4
assert q.trace_distance(ghz, ghz.to_density()) < 1e-12
print(",".join(sorted(m for m in ("scipy", "orjson", "numpy.ma") if m in sys.modules)))
"""


def test_no_scipy_or_orjson_after_ppt_and_trace_distance():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
