"""Seeded int-purity violations in a folded epilogue — fixture, never imported."""

import numpy as np


def leaky_epilogue(acc, mu, beta, lo, hi, out):
    """A requant epilogue that slips float math inside its fence."""
    # int-pure: begin
    acc *= mu
    acc += beta + 0.5  # seed: float-literal
    acc /= 2  # seed: float-division
    np.clip(acc, lo, hi, out=acc)
    np.floor(acc, out=out, casting="unsafe")
    acc.astype("float32")  # seed: float-dtype
    # int-pure: end
    return out
