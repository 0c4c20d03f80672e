import numpy as np
import pytest

from balanced_transport import OTProblem, small_example, small_example_solution


@pytest.fixture
def small_problem() -> OTProblem:
    return small_example()


@pytest.fixture
def known_plan() -> np.ndarray:
    return small_example_solution()
