"""Record a computation on a tape, then get exact gradients backwards.

Builds a tiny two layer network head by hand, checks the reverse-mode
gradient against central finite differences, and shows forward-mode
directional derivatives from the same tape.
"""

import numpy as np

from proxfw.autodiff import Tape, backward_grad, fd_gradient_oracle

rng = np.random.default_rng(0)
d, h, k = 3, 4, 2
x = rng.normal(size=d)

p = d * h + h + h * k + k
tape = Tape(p)
W1 = tape.param(0, (d, h))
b1 = tape.param(d * h, (h,))
W2 = tape.param(d * h + h, (h, k))
b2 = tape.param(d * h + h + h * k, (k,))
xc = tape.constant(x)
scores = (xc @ W1 + b1).relu() @ W2 + b2
# scalar head: logsumexp of the scores minus the first score
m = scores.max()
head = m + (scores - m).exp().total().log() - scores.select(0)

w = 0.5 * rng.normal(size=p)

value = tape.forward(w)
grad = backward_grad(tape, w)
fd = fd_gradient_oracle(tape.forward, w)

print(f"objective value      {value:.6f}")
print(f"|grad|               {np.linalg.norm(grad):.6f}")
print(f"max |grad - fd|      {np.abs(grad - fd).max():.3e}")

# forward mode along a random direction agrees with grad . dw
dw = rng.normal(size=p)
_, tangent = tape.jvp(w, dw)
print(f"jvp vs grad dot dw   {abs(float(tangent) - grad @ dw):.3e}")
