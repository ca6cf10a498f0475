"""Exception hierarchy shared by all pslab modules."""


class PslabError(Exception):
    """Base class for all pslab errors."""


class NonUnimodular(PslabError):
    def __init__(self, det):
        super().__init__(f"matrix determinant {det!r} is not 1 within tolerance")
        self.det = det


class DecompositionFailure(PslabError):
    pass


class AsymmetricTheta(PslabError):
    pass


class BadIndex(PslabError):
    pass


class BudgetExceeded(PslabError):
    pass


class InsufficientGap(PslabError):
    def __init__(self, k, value):
        super().__init__(f"singular value gap alpha_{k} = {value:g} below tolerance")
        self.k = k
        self.value = value


class NotProximal(PslabError):
    def __init__(self, k, value):
        super().__init__(f"eigenvalue modulus gap alpha_{k} = {value:g} below tolerance")
        self.k = k
        self.value = value


class ThetaMismatch(PslabError):
    pass


class NegativePhiOnCone(PslabError):
    pass


class WindowEmpty(PslabError):
    pass


class SubcriticalS(PslabError):
    pass


class BoundaryPoint(PslabError):
    pass


class UnsupportedFamily(PslabError):
    pass


class DegenerateScales(PslabError):
    pass


class ConfigInvalid(PslabError):
    def __init__(self, path, message):
        super().__init__(f"config field {path}: {message}")
        self.path = path
        self.reason = message

