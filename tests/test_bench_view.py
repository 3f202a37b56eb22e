"""The benchmark's tracer finds every program function it wraps.

bench/tracer.py wraps program functions by name and reports a metric as
null, rather than failing, when its function is missing.  So a rename in the
program would blank a metric of every traced run without any error.  The
check runs in a fresh interpreter, so the wrappers never reach other tests.
Its last line must be strict JSON (no NaN), as the benchmark's result line is.
"""

import json
import os
import subprocess
import sys

import wblocks

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wblocks.__file__)))
BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

SCRIPT = """
import json, tempfile
from tracer import Tracer, cache_hit_counts, install, layer_values
from wblocks import blockan, cli, qcanon
from wblocks.combinat import BlockKey, Composition

tr = Tracer()
install(tr)
missing = sorted(tr.missing)
qcanon.dual_canonical(3, (1, 2), (2, 1))
xi = BlockKey(Composition(), Composition(), 2, 2, 2)
blockan.cartan_matrix(xi, blockan.compositions_in_window(2, 0, 1), graded=True)
codes = []
with tempfile.TemporaryDirectory() as cache_dir:
    # one cb line cold, then warm from the file it wrote
    for _ in range(2):
        qcanon._family_memo.clear()
        codes.append(cli.main(["--cache-dir", cache_dir, "cb", "--N", "3", "--signs", "++-",
                               "--key", "1,2;2"]))
codes.append(cli.main(["--no-cache", "h", "--lambda", "offset=0;parts=1,1"]))
hits = cache_hit_counts()
values = layer_values(tr.stats, tr.missing, hits)
print(json.dumps({"missing": missing, "codes": codes, "hits": hits, "values": values},
                 allow_nan=False))
"""


def test_tracer_wraps_every_name_and_reports_no_null():
    env = {k: v for k, v in os.environ.items() if k != "WBLOCKS_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    assert out["codes"] == [0, 0, 0]
    values = out["values"]
    assert [m for m, v in values.items() if v is None] == []
    assert None not in out["hits"].values()
    # the direct call, and one vector for each cb line
    assert values["qcanon.family.vectors"] == 3
    assert values["blockan.graded_cartan.calls"] > 0
    for metric in ("cache.put.bytes", "cache.get.bytes", "cache.get.hit_ratio"):
        assert values[metric] > 0, metric
