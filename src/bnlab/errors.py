"""Exception types shared across the package."""


class BnLabError(Exception):
    """Base class for all bnlab errors."""


class ShapeMismatch(BnLabError):
    pass


class EmptyBatch(BnLabError):
    pass


class EmptyLog(BnLabError):
    pass


class EmptyPopulation(BnLabError):
    pass


class DegenerateBatch(BnLabError):
    pass


class InvalidParams(BnLabError):
    pass


class StaleCache(BnLabError):
    pass


class InvalidPlan(BnLabError):
    pass


class ConfigError(BnLabError):
    pass


class UnknownScenario(BnLabError):
    pass


class MalformedCsv(BnLabError):
    pass


class Diverged(BnLabError):
    pass
