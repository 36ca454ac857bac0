"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericsError -> 3.
"""

from contextlib import contextmanager


class MvkeError(Exception):
    """Base class for all package errors."""


class ConfigError(MvkeError):
    """Invalid configuration, shapes, routing, or API usage."""


class DataError(MvkeError):
    """Malformed or inconsistent input data."""


@contextmanager
def prefix_data_errors(where: str):
    """Re-raise a DataError from the block with ``where: `` before its message."""
    try:
        yield
    except DataError as e:
        raise DataError(f"{where}: {e}") from e


class UndefinedMetricError(DataError):
    """A metric was requested on data where it is undefined."""


class NumericsError(MvkeError):
    """Non-finite values or numerical divergence."""


class TrainingDivergenceError(NumericsError):
    """Training aborted because the loss became non-finite."""

    def __init__(self, epoch: int, batch: int, detail: str):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}: {detail}")
