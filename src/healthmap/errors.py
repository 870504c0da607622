"""Exception hierarchy for the healthmap package.

Every error raised by the library derives from HealthMapError so callers
(and the CLI) can catch one base class for domain failures.
"""


class HealthMapError(Exception):
    """Base class for all healthmap errors."""


# --- model -----------------------------------------------------------------

class DuplicateIdError(HealthMapError):
    pass


class UnknownParentError(HealthMapError):
    pass


class UnknownModuleError(HealthMapError):
    pass


class UnknownDetectorError(HealthMapError):
    pass


class ZeroSeverityError(HealthMapError):
    """A fault or report severity, or a fault persistence, is ZERO."""


class SelfDependencyError(HealthMapError):
    pass


class FieldRangeError(HealthMapError):
    """A value does not fit its fixed-width unsigned field in the image."""


class ClassificationRangeError(FieldRangeError):
    """A fault classification does not fit the image's one-byte field."""


class FaultsNotBuiltError(HealthMapError):
    """A map whose load built the diag resource, fault and detection lists
    of some modules only, or of none, was asked to read every module's."""


class StructureInvalidError(HealthMapError):
    """Raised when an operation requires a structurally valid map."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "health map structure invalid: "
            + "; ".join(str(v) for v in self.violations)
        )


# --- serialized image (SHM) ------------------------------------------------

class ShmError(HealthMapError):
    """Base class for serialized image format errors."""


class BadMagicError(ShmError):
    pass


class BadVersionError(ShmError):
    pass


class HeaderCrcMismatchError(ShmError):
    pass


class BodyCrcMismatchError(ShmError):
    pass


class LengthMismatchError(ShmError):
    pass


class OffsetOutOfBoundsError(ShmError):
    pass


class OffsetMisalignedError(ShmError):
    pass


class LinkCycleError(ShmError):
    pass


class BadLinkError(ShmError):
    """A link points at a record of the wrong kind or inconsistent owner."""


class RecordCountError(ShmError):
    """Walked record count disagrees with the header counts."""


class AppendError(ShmError):
    """Invalid use of the append-only update path."""


# --- compiler ---------------------------------------------------------------

class CompileError(HealthMapError):
    pass


class XmlSyntaxError(CompileError):
    pass


class SchemaViolationError(CompileError):
    pass


class UnresolvedReferenceError(CompileError):
    pass


class BadEnumValueError(CompileError):
    pass


class IdRangeCollisionError(CompileError):
    pass


# --- resource map / reporting ------------------------------------------------

class MissingSymbolError(HealthMapError):
    pass


# --- scheduling --------------------------------------------------------------

class UnknownSubmoduleError(HealthMapError):
    pass


class NoCoreIdsError(HealthMapError):
    pass


class CoreIdRangeError(HealthMapError):
    """A core id is above the largest one an affinity mask may name."""


# --- hierarchy ----------------------------------------------------------------

class MessageError(HealthMapError):
    pass


class CrcMismatchError(MessageError):
    pass


class MalformedMessageError(MessageError):
    pass


class TooManyEntriesError(MessageError):
    pass


class UnknownNodeError(MessageError):
    pass


class ScenarioError(HealthMapError):
    pass


# --- footprint -----------------------------------------------------------------

class InvalidCoreCountError(HealthMapError):
    pass
