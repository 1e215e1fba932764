"""Physical constants in the package unit system (MHz, microseconds, gauss)."""

# Bohr magneton divided by the Planck constant, in MHz per gauss.
# An electron with g-factor g has gyromagnetic ratio g * MU_B_MHZ_PER_G.
MU_B_MHZ_PER_G = 1.3996245

# Free-electron g-factor as used throughout (P1 centers and the N-V center).
ELECTRON_G = 2.00


def gyromagnetic_ratio(g: float) -> float:
    """Gyromagnetic ratio in MHz/G for a spin with g-factor ``g``."""
    return g * MU_B_MHZ_PER_G
