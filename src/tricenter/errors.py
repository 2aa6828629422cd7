"""Exception types shared across the package."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class ShapeError(ContractError):
    """Operands have incompatible shapes or dimensions."""


class DataFormatError(ValueError):
    """A file could not be parsed; message carries the offending line."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter."""
