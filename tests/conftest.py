import pytest

from poolgp import genome

# simharness holds the schedule checks; rewrite its asserts like a test
# module's, so they still run under python -O
pytest.register_assert_rewrite("simharness")


@pytest.fixture
def numpy_evaluator(monkeypatch):
    """Evaluate in numpy for one test: the C kernel's handle is None until it ends."""
    monkeypatch.setattr(genome, "_native", None)


@pytest.fixture(params=["c", "numpy"], ids=["kernel", "numpy"])
def evaluator(request):
    """Run the test once per interpreter: the C kernel, skipped where it did not load, and numpy."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_evaluator")
    elif genome.evaluator() != "c":
        pytest.skip("no C kernel on this machine")
    return request.param
