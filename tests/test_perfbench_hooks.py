"""The benchmark's tracer hooks cdkit's public names from outside the
package; a renamed or moved name must fail here, not only in a traced run."""

import os
import sys

import cdkit.core
import cdkit.sdp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_restores_its_hooks():
    original = cdkit.core.ray_minimize
    tracer = Tracer()
    try:
        tracer.install()
        assert cdkit.core.ray_minimize is not original
        assert cdkit.sdp.ray_minimize is cdkit.core.ray_minimize
    finally:
        tracer.uninstall()
    assert cdkit.core.ray_minimize is original
    assert cdkit.sdp.ray_minimize is original
