"""The four Green kernels on (0, pi), each through two independent routes."""

import math

import spectral_cesaro as sc

t, x, y = 0.3, 1.0, 2.0
print(f"evaluation point: t = {t}, x = {x}, y = {y} on the interval (0, pi)")
print()

h1 = sc.heat_kernel("interval", t, x, y, "spectral_sum")
h2 = sc.heat_kernel("interval", t, x, y, "image_sum")
print(f"heat      eigen-series {h1.value:+.12e}  ({h1.truncation} terms)")
print(f"          image sum    {h2.value:+.12e}  ({h2.truncation} images)")
print(f"          |difference| {abs(h1.value - h2.value):.1e}")
print()

c1 = sc.cylinder_kernel("interval", t, x, y, "spectral_sum")
c2 = sc.cylinder_kernel("interval", t, x, y, "closed_form")
c3 = sc.cylinder_kernel("interval", t, x, y, "image_sum")
print(f"cylinder  eigen-series {c1.value:+.12e}  ({c1.truncation} terms)")
print(f"          closed form  {c2.value:+.12e}")
print(f"          image sum    {c3.value:+.12e}")
print(f"          worst pair difference "
      f"{max(abs(c1.value - c2.value), abs(c3.value - c2.value)):.1e}")
print()

w1 = sc.wightman_interval(t, x, y, "closed_form")
w2 = sc.wightman_interval(t, x, y, "spectral_sum", n_terms=10**4)
P = sc.wightman_P(t, x, y)
print(f"wightman  closed form  {w1.value:+.8f}")
print(f"          Cesaro-1 sum {w2.value:+.8f}  (1e4 terms)")
print(f"          |difference| {abs(w1.value - w2.value):.1e}"
      f"   (imaginary part is P/4 with P = {P})")
print()

u = sc.schrodinger_kernel("interval", t, x, y, "image_sum")
print(f"schrodinger image sum  {u.value:+.8f}   (truncated; every image has")
print("          the main term's modulus, so the pointwise error estimate is")
print(f"          infinite: {u.error_estimate}. Only smears of this kernel")
print("          converge -- see `spectral-cesaro verify")
print("          schrodinger-averaged`.")
print()

phi = sc.make_bump(0.5, 2.5)
smeared = sc.averaged_smear("heat", "interval", x, x, phi, 1e-4)
print(f"smeared heat kernel <K(eps t, x, x), phi(t)> at eps = 1e-4: "
      f"{smeared.real:.6f}")
print(f"leading scale (4 pi eps <1/sqrt(t)>): the kernel is classical here.")
