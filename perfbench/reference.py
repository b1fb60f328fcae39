"""Independent numpy reference for the benchmark's output checks.

Reads srngate's model and dataset files by their documented formats
(FORMATS.md) without the package, runs its own forward pass, and computes
the gate's ``S = 0.5 * ||mean g||^2`` as an explicit product over a frozen
trace, so that ``dS`` can be checked against a central finite difference.
"""

import json

import numpy as np

TIE_MARGIN = 1e-9
CHUNK = 250          # sequences per reference forward
DS_REL_TOL = 1e-6    # allowed relative error of dS against the difference


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def load_weights(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    n_in, n_hid, n_out = doc["n_in"], doc["n_hid"], doc["n_out"]
    return {"w_in": np.array(doc["w_in"]).reshape(n_in, n_hid),
            "w_rec": np.array(doc["w_rec"]).reshape(n_hid, n_hid),
            "w_out": np.array(doc["w_out"]).reshape(n_hid, n_out),
            "b": np.array(doc["b"]),
            "softmax": doc["output_activation"] == "softmax"}


def load_dataset(path, limit: int | None = None):
    """(inputs (n, T, n_in), targets, success tolerance) of a dataset file,
    optionally only its first ``limit`` sequences."""
    with open(path, "rb") as f:
        if f.readline() != b"SRNDATA1\n":
            raise CheckError(f"{path}: bad magic")
        header = json.loads(f.readline())
        n, T, n_in = header["n"], header["T"], header["n_in"]
        m = n if limit is None else min(limit, n)
        offset = f.tell()
        inputs = np.fromfile(f, dtype="<f8", count=m * T * n_in).reshape(m, T, n_in)
        f.seek(offset + n * T * n_in * 8)
        row_shape = tuple(header["targets_shape"][1:])
        classes = header["targets_dtype"].startswith("int")
        targets = np.fromfile(f, dtype="<i8" if classes else "<f8",
                              count=m * int(np.prod(row_shape)))
    return inputs, targets.reshape((m,) + row_shape), header["success_tolerance"]


def hidden_states(w: dict, inputs: np.ndarray) -> np.ndarray:
    """z(k) for every step, shape (N, T, n_hid), from a zero initial state."""
    z = np.zeros((inputs.shape[0], w["w_rec"].shape[0]))
    states = []
    for k in range(inputs.shape[1]):
        z = np.tanh(inputs[:, k, :] @ w["w_in"] + z @ w["w_rec"] + w["b"])
        states.append(z)
    return np.stack(states, axis=1)


def outputs(w: dict, z_last: np.ndarray) -> np.ndarray:
    y = z_last @ w["w_out"]
    if not w["softmax"]:
        return y
    e = np.exp(y - y.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def count_correct(model_path, data_path) -> tuple:
    """(hits, n) of the model on the dataset, by srngate's success rule.

    Raises CheckError when any sequence lies within TIE_MARGIN of the rule's
    boundary (an argmax tie, or an error equal to the tolerance), where two
    correct implementations could disagree.
    """
    w = load_weights(model_path)
    inputs, targets, tolerance = load_dataset(data_path)
    hits = 0
    for start in range(0, len(inputs), CHUNK):
        y = outputs(w, hidden_states(w, inputs[start:start + CHUNK])[:, -1])
        t = targets[start:start + CHUNK]
        if w["softmax"]:
            top2 = np.sort(y, axis=1)[:, -2:]
            margin = top2[:, 1] - top2[:, 0]
            hit = np.argmax(y, axis=1) == t
        else:
            err = np.max(np.abs(y - t), axis=1)
            margin = np.abs(err - tolerance)
            hit = err < tolerance
        if margin.min() <= TIE_MARGIN:
            raise CheckError(f"{data_path}: a sequence lies within {TIE_MARGIN} "
                             f"of the success boundary")
        hits += int(hit.sum())
    return hits, len(inputs)


def deep_half_sq(w_rec: np.ndarray, fprime: np.ndarray, delta_top: np.ndarray,
                 h: int) -> float:
    """S for recurrent matrix w_rec with the trace's tanh derivatives frozen.

    g = D(T-h) W ... D(T-1) W delta(k)^T, averaged over the batch; the
    deepest diagonal falls on the zero initial state when h = T, where it is 1.
    """
    T = fprime.shape[1]
    g = delta_top
    for i in range(1, h + 1):
        step = T - i  # 1-based step carrying this factor's diagonal
        g = (g @ w_rec.T) * (fprime[:, step - 1] if step >= 1 else 1.0)
    g = g.mean(axis=0)
    return 0.5 * float(g @ g)


def frozen_trace(w: dict, inputs: np.ndarray, classes: np.ndarray):
    """(fprime (N, T, n_hid), delta(k) (N, n_hid)) under cross-entropy."""
    z = hidden_states(w, inputs)
    fprime = 1.0 - z * z
    out_delta = outputs(w, z[:, -1])
    out_delta[np.arange(len(classes)), classes] -= 1.0
    return fprime, (out_delta @ w["w_out"].T) * fprime[:, -1]


def check_ds(w: dict, inputs, classes, h: int, dw_rec, S: float, dS: float) -> None:
    """Check a gate report's S and dS against the product form.

    S is a polynomial of degree 2h in the step, so the plain central
    difference carries a truncation error of order step^2 that matters when
    dS is small next to S; one Richardson step removes it.
    """
    fprime, delta_top = frozen_trace(w, inputs, classes)
    w_rec = w["w_rec"]
    S_ref = deep_half_sq(w_rec, fprime, delta_top, h)
    if not abs(S - S_ref) <= 1e-9 * S_ref:
        raise CheckError(f"gate S {S!r} differs from the product form {S_ref!r}")

    def central(t):
        return (deep_half_sq(w_rec + t * dw_rec, fprime, delta_top, h)
                - deep_half_sq(w_rec - t * dw_rec, fprime, delta_top, h)) / (2 * t)

    t = 1e-6 * np.linalg.norm(w_rec) / np.linalg.norm(dw_rec)
    fd = (4 * central(t / 2) - central(t)) / 3
    if not abs(dS - fd) <= DS_REL_TOL * abs(fd) + 1e-12 * S_ref:
        raise CheckError(f"gate dS {dS!r} differs from the central difference {fd!r}")
