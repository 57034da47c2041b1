"""The README's "Library sketch" runs and returns the values its comments
state, its example config parses, and it gives the size of the golden suite."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from probelab import verify
from probelab.config import TASKS, ExperimentConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def run_sketch():
    """Execute the sketch; return {commented call: (value, comment)}."""
    namespace, commented = {}, {}
    for line in sketch_lines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        if comment:
            commented[code.split("(", 1)[0]] = (eval(code, namespace), comment)
        else:
            exec(code, namespace)
    return commented


def test_library_sketch_matches_its_comments():
    values = run_sketch()
    assert set(values) == {
        "pl.classical_fisher", "pl.quantum_fisher", "pl.check_saturation", "pl.analyze",
        "pl.solve_lambdas_given_state",
    }
    for name in ("pl.classical_fisher", "pl.quantum_fisher"):
        value, comment = values[name]
        assert value == pytest.approx(float(comment), abs=1e-12)

    report, comment = values["pl.check_saturation"]
    field, _, literal = comment.partition("=")
    assert getattr(report, field) is {"True": True, "False": False}[literal]

    analysis, _ = values["pl.analyze"]
    assert analysis.classical_fisher == pytest.approx(values["pl.classical_fisher"][0], abs=1e-12)
    assert analysis.quantum_fisher == pytest.approx(values["pl.quantum_fisher"][0], abs=1e-12)
    assert analysis.saturation.saturated is True

    (spectrum, residual, qfi), comment = values["pl.solve_lambdas_given_state"]
    listed, _, rest = comment[1:].partition("}")
    expected = sorted(float(v) for v in listed.split(","))
    np.testing.assert_allclose(np.sort(spectrum.real_values()), expected, atol=1e-12)
    residual_text, _, qfi_text = rest.partition(", QFI ")
    assert residual_text == ", residual ~1e-16" and residual <= 1e-14
    assert qfi == pytest.approx(float(qfi_text), abs=1e-12)


@pytest.mark.parametrize("task", TASKS)
def test_example_config_parses(task):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = parse_config(example, task)
    assert cfg.raw == example
    # the fields the README says are shown at their defaults
    for key in ("generator", "shots", "trials", "x_true", "n_list"):
        assert getattr(cfg, key) == getattr(ExperimentConfig, key), key


def test_readme_states_the_number_of_verify_checks():
    (stated,) = re.findall(r"golden suite of (\d+) checks", README.read_text(encoding="utf-8"))
    assert int(stated) == len(verify._CHECKS)
