import pytest

# rewritten like a test module's, the helpers' asserts still run under
# python -O, which strips a plain assert
pytest.register_assert_rewrite("helpers")

from helpers import split_corpus  # noqa: E402


@pytest.fixture(scope="session")
def corpus9():
    """Exhaustive split-graph corpus up to 9 vertices (see helpers)."""
    return split_corpus(9)


@pytest.fixture(scope="session")
def corpus7():
    return split_corpus(7)
