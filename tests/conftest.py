import pytest

# simharness holds the schedule checks; rewrite its asserts like a test
# module's, so they still run under python -O
pytest.register_assert_rewrite("simharness")
