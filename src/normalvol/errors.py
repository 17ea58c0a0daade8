"""Exception hierarchy shared by all normalvol modules."""


class NormalVolError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NormalVolError):
    """An input file or setting cannot be read, or an output file cannot be written."""


class DimensionMismatch(NormalVolError):
    pass


class NoSolution(NormalVolError):
    """Linear system is inconsistent."""


class NotSymmetric(NormalVolError):
    pass


class Infeasible(NormalVolError):
    """Linear program has no feasible point."""


class Unbounded(NormalVolError):
    """Linear program objective is unbounded."""


class FanError(NormalVolError):
    pass


class NotSimplicial(FanError):
    pass


class NotPure(FanError):
    pass


class FacesDontMeet(FanError):
    pass


class NonpositiveWeight(FanError):
    pass


class RayProjectionCollision(FanError):
    """Two distinct neighborhood rays project onto the same star ray."""


class NotTropical(NormalVolError):
    pass


class WrongGrade(NormalVolError):
    pass


class GradeOverflow(NormalVolError):
    pass


class NotPseudocubical(NormalVolError):
    pass


class NotCubical(NormalVolError):
    pass


class NotInvariant(NormalVolError):
    """A ray permutation is not a symmetry of a context, or a truncation is not
    constant on the context's orbits."""


class DimTooLarge(NormalVolError):
    pass


class ArityMismatch(NormalVolError):
    pass


class AxiomViolation(NormalVolError):
    """A matroid flat axiom (F1), (F2) or (F3) fails."""

    def __init__(self, axiom: str, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"matroid axiom {axiom} violated" + (f": {detail}" if detail else ""))


class LoopDetected(NormalVolError):
    pass


class RankTooSmall(NormalVolError):
    pass


class UnknownElement(NormalVolError):
    pass


class GroundSetTooLarge(NormalVolError):
    pass


class MismatchError(NormalVolError):
    """Independent computation paths disagree (implementation bug)."""
