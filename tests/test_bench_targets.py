"""The benchmark's traced names still resolve against the package.

bench/layers.py names every function the traced run wraps; one that no
longer resolves is dropped from the trace without an error. This pins the
set of unresolved names, so a refactor that renames or deletes a traced
function (or the ``run_stage`` whose first call ends the set-up time)
fails here instead.
"""

import sys
from pathlib import Path

# on the path only for the import: bench/tests would shadow this directory
BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    from layers import LAYER_TARGETS
    from tracer import Tracer
finally:
    sys.path.remove(BENCH)


def test_layer_targets_resolve():
    tracer = Tracer()
    try:
        tracer.install(LAYER_TARGETS)
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"magqmc.bsplines.SplineBasis.nonlocal_matrix"}
