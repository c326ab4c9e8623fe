"""The benchmark's layer tracer still finds the program's entry points.

``perfbench/spans.py`` wraps module attributes such as
``simplify.tietze_reduce``; ``install`` raises when one is missing, so a
rename under ``src/`` that would break the traced benchmark fails here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402

import grouptensor.tensor as tensor  # noqa: E402
from grouptensor.catalog import catalog_group  # noqa: E402


def test_tracer_sees_tietze_reduction():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tensor.tensor_square(catalog_group("S3"), simplify=True)
    finally:
        uninstall()
    assert any(span[0] == "simplify.tietze_s" for span in tracer.spans)
    assert tracer.counts["simplify.generators_out"] > 0
