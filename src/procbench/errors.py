"""Exception types shared across the package.

Every type derives from ``ProcbenchError``.  Simulation errors (anything
derived from ``SimulationError``) are the ones an environment converts into a
failed episode; the rest signal misuse of an API and propagate to the caller.
The command line reports any ``ProcbenchError`` as a one-line message.
"""


class ProcbenchError(Exception):
    """Base of every error this package raises on purpose."""


class SimulationError(ProcbenchError):
    """A numerical model left its domain of validity."""


class NonFiniteStateError(SimulationError):
    """An integrator or model produced NaN/inf components."""


class StiffnessError(SimulationError):
    """An integrator needed a step size below its floor, or more substeps
    than its cap, on a finite state."""


class DegenerateLevelError(SimulationError):
    """Reactor level dropped below the model's validity floor."""


class DegenerateVolumeError(SimulationError):
    """A vessel volume dropped below the model's validity floor."""


class ZeroRecycleFlowError(SimulationError):
    """Recycle-stream concentrations requested with zero recycle flow."""


class ZeroModifierError(SimulationError):
    """Elution isotherm evaluated with a vanishing modifier concentration."""


class EpisodeFinishedError(ProcbenchError):
    """step() called on an episode that already terminated or timed out."""


class NoFeasibleSteadyStateError(ProcbenchError):
    """No multi-start candidate produced a feasible converged steady state."""


class IllConditionedKernelError(ProcbenchError):
    """GP kernel matrix stayed indefinite after jitter escalation."""


class DimMismatchError(ProcbenchError):
    """A recorded transition does not match the dataset's declared shapes."""


class InvalidEpisodeError(ProcbenchError):
    """Transition appended to a dataset after its episode was closed."""


class FormatVersionMismatchError(ProcbenchError):
    """Stored dataset uses an unsupported format version."""


class CorruptMetaError(ProcbenchError):
    """A dataset's meta.json is not an object holding the declared fields."""


class CorruptRowError(ProcbenchError):
    """A dataset row could not be parsed against the declared schema."""


class EmptyDatasetError(ProcbenchError):
    """Statistics requested for a dataset with no rows."""
