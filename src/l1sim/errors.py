"""Exceptions shared across the package."""


class ConfigError(ValueError):
    """A scenario or controller configuration failed validation.

    The message always names the offending key or quantity.
    """


class SimulationDiverged(RuntimeError):
    """A closed-loop state became non-finite during the simulation.

    ``sample`` is the first sample boundary with a non-finite state and
    ``time`` its time; ``block`` names the first state block that is
    non-finite there (plant, reference model, predictor or law filter) and
    ``last_norm`` is the largest magnitude in the stacked state one sample
    earlier, the last finite one.
    """

    def __init__(self, time: float, sample: int, block: str, last_norm: float):
        self.time = time
        self.sample = sample
        self.block = block
        self.last_norm = last_norm
        super().__init__(
            f"simulation diverged at t = {time:.6g} s (sample {sample}: the {block} state "
            f"is non-finite; last finite state max-norm {last_norm:.6g})"
        )
