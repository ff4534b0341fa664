"""Depolarizing noise flattens the anisotropy; an affine fit recovers it.

Every lowered gate is followed by a depolarizing channel, so deeper
circuits (more Trotter steps) accumulate a larger noise dose and a
flatter yield curve. The curve's shape survives, which is why a
two-parameter rescale lines it back up with the reference.

Runtime: a few seconds (two noisy 33-angle sweeps).
"""

import numpy as np

import rpsim as rp

system = rp.prototype_system()
thetas = np.linspace(0.0, np.pi, 33)
noise = rp.NoiseProfile()

reference = rp.yield_curve(system, thetas, mode="reference", dt=0.001)
print(f"reference anisotropy:        {rp.anisotropy(reference):.9f}")

for n in (5, 15):
    noisy = rp.yield_curve(system, thetas, mode="density", n=n, noise=noise, dt=0.01)
    print(f"noisy anisotropy (n = {n:2d}):   {rp.anisotropy(noisy):.9f}")
    if n == 5:
        curve_for_fit = noisy

fitted = rp.rescale_fit(curve_for_fit, reference)
r = rp.pearson_r(fitted.yields, reference.yields)
print()
print("affine fit of the n=5 noisy curve onto the reference:")
print(f"  scale a  = {fitted.metadata['rescale_a']:.6f}")
print(f"  offset b = {fitted.metadata['rescale_b']:+.6f}")
print(f"  pearson r = {r:.6f}")
print(f"  extrema after fit: min {fitted.yields.min():.9f}, max {fitted.yields.max():.9f}")
print(f"  reference extrema: min {reference.yields.min():.9f}, max {reference.yields.max():.9f}")
