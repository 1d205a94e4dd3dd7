import pytest

from poolgp import engine, genome, naive

# simharness holds the schedule checks and kernel_fuzz the kernel's; rewrite
# their asserts like a test module's, so they still run under python -O
pytest.register_assert_rewrite("simharness", "kernel_fuzz")


@pytest.fixture
def python_evaluator(monkeypatch):
    """Turn the C kernel off for one test: plain Python evaluates, sums, draws and crosses
    over, also in the engines that imported the crossover by name."""
    monkeypatch.setattr(genome, "_native", None)
    for module in (genome, engine, naive):
        monkeypatch.setattr(module, "subtree_crossover", genome.python_crossover)


# the ids keep the name the fallback had while it ran in numpy, so that each test keeps the
# id it has always had
@pytest.fixture(params=["c", "python"], ids=["kernel", "numpy"])
def evaluator(request):
    """Run the test once per path: the C kernel, skipped where it did not load, and Python."""
    if request.param == "python":
        request.getfixturevalue("python_evaluator")
    elif genome.evaluator() != "c":
        pytest.skip("no C kernel on this machine")
    return request.param
