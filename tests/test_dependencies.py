"""qcrkit runs on numpy alone.

scipy and orjson may be installed next to it, but neither is a dependency:
a fresh interpreter that imports qcrkit and runs the PPT sweep and a density
trace distance (the block spectrum's component search is where
``scipy.sparse.csgraph`` would be the shortcut) must not have loaded them.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import qcrkit as q
a, _ = q.compose(q.build_example_state(), q.maximally_entangled(2), check=False)
a = a.to_density()
assert not q.all_dealer_cuts_ppt(a).all_ppt
assert q.trace_distance(a, q.partial_trace(q.purify(a), ["E"])) < 1e-9
print(",".join(sorted(m for m in ("scipy", "orjson") if m in sys.modules)))
"""


def test_no_scipy_or_orjson_after_ppt_and_trace_distance():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
