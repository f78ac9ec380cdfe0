"""Tour of the tensor core: ops, the tape, and a finite-difference check.

Run:  python demos/demo_autodiff.py
"""

import numpy as np

from chestkit import Tape, Tensor, he_init
from chestkit.tensor import conv2d, max_pool2d, relu, softmax, sum_all

# every op takes a batch: here one 6x6 single-channel image, [B, C, H, W]
image = Tensor(np.linspace(0.0, 1.0, 36).reshape(1, 1, 6, 6), requires_grad=True)
kernel = he_init((2, 1, 3, 3), fan_in=9, seed=1, requires_grad=True)
bias = Tensor(np.zeros(2), requires_grad=True)

# record a forward pass on a tape, then pull gradients back through it
with Tape() as tape:
    feature_maps = relu(conv2d(image, kernel, bias, padding=1))
    pooled = max_pool2d(feature_maps)
    loss = sum_all(pooled)
grads = tape.backward(loss)

print(f"loss = {loss.item():.4f}")
print(f"gradient shapes: image {grads[image].shape}, kernel {grads[kernel].shape}")

# central finite differences agree with the reverse-mode result
flat = kernel.data.reshape(-1)
h = 1e-5
fd = np.zeros_like(flat)
for i in range(flat.size):
    orig = flat[i]
    flat[i] = orig + h
    up = sum_all(max_pool2d(relu(conv2d(image, kernel, bias, padding=1)))).item()
    flat[i] = orig - h
    down = sum_all(max_pool2d(relu(conv2d(image, kernel, bias, padding=1)))).item()
    flat[i] = orig
    fd[i] = (up - down) / (2 * h)

worst = np.max(np.abs(fd - grads[kernel].reshape(-1)))
print(f"max |finite difference - autodiff| over kernel entries: {worst:.2e}")

# softmax turns each row of scores, [B, K], into a probability vector
scores = Tensor([[1.0, 3.0, 0.2]])
print(f"softmax({scores.data}) = {np.round(softmax(scores).data, 4)}")
