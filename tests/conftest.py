import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from subplanck import (
    ComplexAmplitude,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_squeezed,
)


@pytest.fixture(scope="session")
def catalog():
    """Pure states exercised across modules (name -> state)."""
    return {
        "vacuum": make_number(0, 16),
        "number1": make_number(1, 16),
        "number3": make_number(3, 16),
        "coherent": make_coherent(ComplexAmplitude(1.5, -0.8), 48),
        "squeezed": make_squeezed(0.8, 64),
        "compass": make_compass(2.0, 48),
        "random20": make_random(20, seed=17),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(name) wraps every package module's binding of `name`; returns the call list."""

    def install(name):
        calls = []
        for module in [m for key, m in sys.modules.items() if key.startswith("subplanck.")]:
            real = vars(module).get(name)
            if callable(real):
                def counted(*args, _real=real, **kwargs):
                    calls.append(args)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return calls

    return install


_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
