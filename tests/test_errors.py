import json

import pytest

from otnewton import errors
from otnewton.errors import NonconvergenceError, OTNError

ERROR_CLASSES = [errors.DimensionError, errors.DomainError, errors.ParseError,
                 errors.PlanOverflowError, errors.ConditioningError,
                 errors.NonconvergenceError, errors.LineSearchError,
                 errors.StagnationError, errors.DegenerateInputError,
                 errors.RefusalError]
INPUT_ERRORS = {errors.DimensionError, errors.DomainError, errors.ParseError,
                errors.DegenerateInputError}


def test_every_error_class_is_listed():
    found = {obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, OTNError) and obj is not OTNError}
    assert found == set(ERROR_CLASSES)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_diagnostics_contract(error):
    # Every error takes diagnostics through OTNError.__init__, defaults to an
    # empty dict, owns a copy of what it was given, and serializes.
    assert error("plain").diagnostics == {}
    given = {"gamma": 32.0, "residual_l1": 1e-3}
    exc = error("with diagnostics", diagnostics=given)
    given["gamma"] = 0.0
    assert str(exc) == "with diagnostics"
    assert json.loads(json.dumps(exc.diagnostics)) == {"gamma": 32.0, "residual_l1": 1e-3}
    assert isinstance(exc, ValueError) == (error in INPUT_ERRORS)


def test_nonconvergence_keeps_best():
    exc = NonconvergenceError("budget", best="iterate", diagnostics={"n": 3})
    assert exc.best == "iterate" and exc.diagnostics == {"n": 3}
    assert NonconvergenceError("budget").best is None
