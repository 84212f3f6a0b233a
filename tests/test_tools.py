"""The fit-quality gate script compares two result files and writes none
into a checkout."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("fit_gate", ROOT / "tools" / "fit_gate.py")
fit_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_gate)


def test_compare_reports_the_largest_drop_and_every_moved_fit():
    fit = {"log_likelihood": -100.0, "n_evals": 10, "converged": True, "theta": [1.0]}
    before = {"a|X": fit, "b|X": fit, "c|X": fit}
    after = {
        "a|X": dict(fit, log_likelihood=-100.5, n_evals=12),
        "b|X": dict(fit, log_likelihood=-99.0, converged=False),
        "c|X": fit,
    }
    lines = fit_gate.compare(before, after)
    assert lines[0] == "largest relative LL drop: 0.005 (a|X)"
    assert lines[1] == "summed n_evals: 30 -> 32"
    assert [line.split(":")[0] for line in lines[2:]] == ["a|X", "b|X"]
    assert lines[2].startswith("a|X: n_evals moved") and lines[3].startswith("b|X: converged moved")


def test_compare_reports_a_fit_that_only_one_file_holds():
    fit = {"log_likelihood": -100.0, "n_evals": 10, "converged": True, "theta": [1.0]}
    unfitted = dict(fit, log_likelihood=None)
    lines = fit_gate.compare({"a|X": fit, "b|X": unfitted}, {"b|X": unfitted, "c|X": fit})
    assert lines == [
        "largest relative LL drop: none comparable",
        "summed n_evals: 20 -> 20",
        "a|X: only in the first file",
        "c|X: only in the second file",
    ]


def test_a_result_file_inside_the_checkout_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        fit_gate.main([str(tmp_path), str(ROOT / "gate.json")])
    assert exc.value.code == 2
    assert "inside the checkout" in capsys.readouterr().err
    assert not (ROOT / "gate.json").exists()
