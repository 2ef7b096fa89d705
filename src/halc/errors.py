"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A configuration or hyperparameter violates its stated precondition."""


class InvalidInputError(ValueError):
    """Runtime data (distributions, tokens, files) violates an input contract."""
