"""Independent reference values that the production closed forms are checked against."""

from scipy.special import gamma as gamma_fn


def stationary_variance_mode(a: float, phi: float, hurst: float) -> float:
    """Stationary variance ``phi^2 H Gamma(2H) a^{-2H}`` of one mode.

    This is the classical closed form for a scalar fractional
    Ornstein-Uhlenbeck process ``dx = -a x dt + phi dB^H``; at ``H = 1/2`` it
    reduces to ``phi^2/(2a)``.
    """
    if a <= 0:
        raise ValueError("mode rate a must be positive")
    h = float(hurst)
    return phi * phi * h * gamma_fn(2.0 * h) * a ** (-2.0 * h)
