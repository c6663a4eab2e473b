"""The traced benchmark run wraps names that the package's modules import;
a renamed or removed name must fail here rather than in the benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs_on_the_package():
    # a fresh process: install() replaces module attributes for good
    code = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, "
        f"{os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
