"""The package namespace: every export resolves, and on first use only."""

import os
import subprocess
import sys

import pytest

import eventbounds

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(eventbounds.__file__)))


def _modules_after(statement):
    """The eventbounds modules a fresh interpreter has loaded after the statement."""
    path = [SOURCE_ROOT, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"{statement}\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('eventbounds'))))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_importing_the_engine_skips_the_suites_and_the_cli():
    loaded = _modules_after("import eventbounds.engine")
    assert "eventbounds.engine" in loaded
    assert "eventbounds.verification" not in loaded
    assert "eventbounds.cli" not in loaded


def test_the_cli_loads_the_suites_only_to_verify():
    assert "eventbounds.verification" not in _modules_after("import eventbounds.cli")


def test_every_export_resolves_to_its_module_attribute():
    namespace = {}
    exec("from eventbounds import *", namespace)
    assert set(eventbounds.__all__) <= set(namespace)
    for name in eventbounds.__all__:
        assert getattr(eventbounds, name) is namespace[name]
        assert name in dir(eventbounds)
    assert eventbounds.verification.run_all is eventbounds.run_all
    assert {"engine", "families", "verification"} <= set(dir(eventbounds))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        eventbounds.no_such_export
