import pytest

from poolgp import genome

# simharness holds the schedule checks; rewrite its asserts like a test
# module's, so they still run under python -O
pytest.register_assert_rewrite("simharness")


@pytest.fixture
def numpy_evaluator(monkeypatch):
    """Evaluate in numpy for one test: the C kernel's handle is None until it ends."""
    monkeypatch.setattr(genome, "_native", None)
