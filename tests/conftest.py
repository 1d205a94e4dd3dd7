import pytest

from poolgp import engine, genome, naive

# simharness holds the schedule checks and kernel_fuzz the kernel's; rewrite
# their asserts like a test module's, so they still run under python -O
pytest.register_assert_rewrite("simharness", "kernel_fuzz")


@pytest.fixture
def numpy_evaluator(monkeypatch):
    """Turn the C kernel off for one test: numpy evaluates, sums and ranks; Python crosses
    over, also in the engines that imported the crossover by name."""
    monkeypatch.setattr(genome, "_native", None)
    for module in (genome, engine, naive):
        monkeypatch.setattr(module, "subtree_crossover", genome.python_crossover)


@pytest.fixture(params=["c", "numpy"], ids=["kernel", "numpy"])
def evaluator(request):
    """Run the test once per path: the C kernel, skipped where it did not load, and numpy."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_evaluator")
    elif genome.evaluator() != "c":
        pytest.skip("no C kernel on this machine")
    return request.param
