"""Exception hierarchy shared by all polmodes modules."""


class PolmodesError(Exception):
    """Base class for all library errors."""


class PoleAtResonance(PolmodesError):
    """Evaluation requested too close to the transverse resonance pole."""


class ZeroEpsilon(PolmodesError):
    """Dielectric function vanishes (longitudinal frequency) where a division needs it."""


class OutsideSurfaceWindow(PolmodesError):
    """Frequency outside the band where epsilon < -1, so no surface solution exists."""


class BelowLightLineEdge(PolmodesError):
    """In-plane wavevector below the existence edge c*k_par >= omega_TO."""


class EvanescentBranchAmbiguity(PolmodesError):
    """Vertical-wavenumber radicand within tolerance of zero (grazing propagation)."""


class QuadratureDisagreement(PolmodesError):
    """Closed-form normalization and the box integral disagree beyond tolerance.

    Signals a convention bug, or a box too short for the closed form's decay.
    """


class ResolutionTooCoarse(PolmodesError):
    """Grid spacing violates the shortest-wavelength resolution advisory."""


class IncompleteSpectrum(PolmodesError):
    """Completeness check requested on a partially solved spectrum."""


class SolverContractViolation(PolmodesError):
    """An internal solver invariant failed (e.g. positivity of the energy form)."""


class DivergentBathIntegral(PolmodesError):
    """Bath renormalization integral does not converge."""


class BathMediumMismatch(PolmodesError, ValueError):
    """A bath bound to one medium was used with another: its rho would mix with the
    other medium's omega_T, kappa and rho."""


class SingularEndpoint(PolmodesError):
    """Principal-value frequency coincides with a support endpoint of the bath."""


class NonConvergentTransfer(PolmodesError):
    """Driven-field layer solve failed (singular or ill-conditioned system)."""


class InvalidDrive(PolmodesError, ValueError):
    """Driven-field request outside the solvable domain: omega <= 0 or a source
    sheet not strictly inside the box."""


class InvalidGrid(PolmodesError, ValueError):
    """Staggered grid unusable for the geometry: fewer than 16 cells, a length other
    than the box's, or a layer boundary off the nodes."""


class UnsupportedGeometry(PolmodesError, ValueError):
    """Stack or mode class outside the analytic modes: more than one medium species, a
    stack other than a homogeneous box or the medium/vacuum interface, or a class the
    stack does not carry (a surface mode without the interface, a vacuum class in a
    matter box, a bulk class in a vacuum box)."""


class ConfigError(PolmodesError):
    """Invalid run configuration. Carries a JSON-pointer path to the offending entry."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{message} (at {pointer or '/'})")
