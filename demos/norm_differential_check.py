"""The analytical differential dS of the deep-gradient norm, checked three
ways on one small network:

1. dS = (g, dg) against central finite differences of S with the forward
   trace frozen (this is the identity the gate relies on);
2. g against the deep delta that plain backpropagation produces;
3. the sign of dS against what actually happens to the deep norm after the
   candidate update is applied for real and everything is recomputed.

Run:  python3 demos/norm_differential_check.py
"""

import numpy as np

from srngate import bptt, model, regularizer as reg
from srngate.model import LossKind, SrnParams


def deep_delta(w_rec, trace, delta_top, h):
    """The deep delta as the explicit factor product over the horizon, with
    the forward trace frozen: h times g <- D * (g @ w_rec.T), where factor i
    takes its diagonal 1 - z**2 from the state z(T-i); z(0) is the zero
    start."""
    T = trace.n_steps
    g = delta_top
    for i in range(1, h + 1):
        z = trace.states[T - i]
        g = (1.0 - z * z) * (g @ w_rec.T)
    return g


def half_sq(w_rec, trace, delta_top, h):
    """S = 0.5 * ||batch-mean deep delta||^2 as a function of w_rec."""
    g = deep_delta(w_rec, trace, delta_top, h).mean(axis=0)
    return 0.5 * float(g @ g)


def backprop(params, seq, target, T):
    """Forward and backward over the one-sequence batch seq[None]."""
    trace = model.forward_batch(params, seq[None])
    _, deltas, _ = model.loss_batch(trace, target[None], LossKind.MSE)
    return trace, bptt.backward(params, trace, deltas, bptt.BpttConfig(h=T))


def main():
    rng = np.random.default_rng(7)
    n_hid, T = 6, 8
    params = model.init_gaussian(2, n_hid, 1, sigma=0.05, seed=7)
    seq = rng.standard_normal((T, 2))
    target = rng.standard_normal(1)
    trace, back = backprop(params, seq, target, T)
    top = back.deltas[:, 0, :]

    # 2. the two routes to the deep delta
    g = deep_delta(params.w_rec, trace, top, T)
    gap = np.abs(g - back.deltas[:, T, :]).max()
    print(f"g vs backprop deep delta      : max |difference| = {gap:.3e}")

    # 1. directional derivative vs finite differences
    dw = rng.standard_normal((n_hid, n_hid))
    dw /= np.linalg.norm(dw)
    report = reg.report_from_backward(params, trace, back, dw,
                                      reg.RegConfig(h=T, r0=1e300, r0_absolute=True))
    dS = report.dS
    eps = 1e-6
    fd = (half_sq(params.w_rec + eps * dw, trace, top, T)
          - half_sq(params.w_rec - eps * dw, trace, top, T)) / (2 * eps)
    print(f"dS = (g, dg)                  : {dS:+.6e}")
    print(f"central finite difference     : {fd:+.6e}")
    print(f"relative error                : {abs(dS - fd) / abs(fd):.2e}")

    # 3. apply a small real update in the direction dS likes / dislikes
    print("\napplying w_rec +/- 1e-5 * dw and recomputing the deep norm:")
    base = np.linalg.norm(back.deltas[0, T])
    for sign in (+1.0, -1.0):
        moved = SrnParams(params.w_in, params.w_rec + sign * 1e-5 * dw,
                          params.w_out, params.b, params.output_activation)
        _, back2 = backprop(moved, seq, target, T)
        new = np.linalg.norm(back2.deltas[0, T])
        direction = "grew" if new > base else "shrank"
        print(f"  step {sign:+.0f}e-5 * dw (dS {sign * dS:+.3e}): "
              f"deep norm {base:.6e} -> {new:.6e} ({direction})")


if __name__ == "__main__":
    main()
