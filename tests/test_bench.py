"""The benchmark under ``bench/`` binds package names; they must still exist.

``bench/`` is imported in a subprocess: its ``oracles`` module shares its
name with ``tests/oracles.py``.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = textwrap.dedent("""
    import sys
    import unittest

    sys.path.insert(0, sys.argv[1])
    import selftest
    import spans
    import workloads
    from gdafas import pipeline as P

    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    result = unittest.TextTestRunner(stream=sys.stdout).run(suite)
    assert result.wasSuccessful() and result.testsRun == 12, result

    tracer = spans.Tracer(spans=True)
    with tracer.installed():
        pass
    originals = P.predict_scores, P.block_features
    workloads.Score().baseline({}, tracer)
    tracer.unpatch()
    assert (P.predict_scores, P.block_features) == originals
    print("bindings ok")
""")


def test_benchmark_binds_only_names_the_package_has():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, os.path.join(ROOT, "bench")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bindings ok" in proc.stdout
