"""Run one fixed script of srngate commands against two source trees and
compare every file they write, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--tiny] [--work DIR]
                                    [--blas-threads K]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts; each
command runs as ``python -m srngate.cli`` with that directory on PYTHONPATH,
from its own working directory, so that the paths written into outputs are the
same on both sides, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to K, by default the number of usable cores, as
``perfbench/run.py`` sets them.  Every srngate command holds OpenBLAS at one
thread, so no output depends on K; K sets the number of row blocks that
scoring and the gate's walk split their rows into, so K = 1 runs both sides
on the one-block path and K >= 2 on the block path.

The script covers ``gen`` for four tasks and once more at an odd T (the
full-size train split then crosses a seam between generation blocks).  The
adding and temporal-order splits are written over the files of an earlier
``gen`` of the same task, with longer splits for adding and shorter ones for
temporal order, so those compared files are rewrites.  Then come a gated and
an ungated ``train --data`` (the ungated one with ``--record-dynamics``, then
an ``eval --out`` of its model on the adding test split, which scores a
regression file), an ungated ``train --data`` on the multiplication splits, a
gated ``train --data`` on the 3-special temporal order splits and an
``eval --out`` of its model, so that all four tasks go through the loader, a
``--batch 1`` run, a gated adding run without momentum under an ``r0``
that rejects some of its draws as too large a jump in S, a three-sigma
temporal-order ``scan`` at h = T and a two-sigma adding ``scan`` at h < T,
``eval --out``, an ``eval --out`` that names an existing directory, an
``eval`` of a hand-written model whose finite weights overflow an
activation, a run whose learning rate makes it fail, started twice, a
``--record-dynamics`` run whose initial network already fails validation, and
a run whose train split has fewer minibatches than ``--iters``.  ``--tiny``
shrinks every size so the whole script takes seconds.

Every file whose sha256 differs, or that exists on one side only, is listed,
as is every empty directory found on one side only (a leftover of a failed
command) and every command whose exit code differs.  The summary line ends
with K, and the last line gives each command's exit code on the change side,
so a command that fails the same way on both sides is still seen.  Under a
differing CSV or JSON file, indented lines say by how much it differs: the
largest relative difference |p - c| / max(|p|, |c|) of each float column
(each float-valued key of a JSON object, such as a model's weight arrays),
and whether the other columns or keys are equal, with the first rows where
they are not.  The exit code is 1 if anything is listed, 0 otherwise.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# r0_tight sits inside the spread of |dS|/S of the zero-momentum adding run at
# each size (3e-4 to 0.40 over its 75 draws at full size, 6.3e-6 to 2.1e-5
# over 8 with --tiny), so its gate rejects some draws as too large a jump and
# passes others
FULL = {"T_add": 200, "h_add": 100, "T_order": 100, "h_order": 100, "T_odd": 37,
        "hidden": 100, "sizes": (2000, 200, 1000), "epochs": 2, "iters": 20,
        "probes": 100, "r0_tight": "0.2"}
TINY = {"T_add": 20, "h_add": 10, "T_order": 20, "h_order": 20, "T_odd": 11,
        "hidden": 8, "sizes": (60, 20, 30), "epochs": 2, "iters": 3, "probes": 10,
        "r0_tight": "1.9e-5"}


# written into each work dir before the script runs: a temporal-order model
# whose recurrence overflows at step 2 (a = 1e308 at step 1, then z @ w_rec)
OVERFLOW_MODEL = {"format": "srngate-model-v1", "n_in": 6, "n_hid": 2, "n_out": 4,
                  "output_activation": "softmax", "seed": None,
                  "w_in": [1e308] * 12, "w_rec": [1e308] * 4, "w_out": [0.0] * 8,
                  "b": [0.0, 0.0]}


def script(size: dict) -> list:
    """(name, argv) pairs, run in order; paths are relative to the work dir."""
    def split_flags(scale=1.0):
        return [arg for flag, n in zip(("--train-size", "--valid-size", "--test-size"),
                                       size["sizes"])
                for arg in (flag, str(int(n * scale)))]

    add = ["--task", "adding", "--T", str(size["T_add"]), "--h", str(size["h_add"])]
    order = ["--task", "temporal_order", "--T", str(size["T_order"]),
             "--h", str(size["h_order"])]
    multiplication = ["--task", "multiplication", "--T", str(size["T_add"])]
    order3 = ["--task", "temporal_order_3bit", "--T", str(size["T_order"])]
    order3_odd = ["--task", "temporal_order_3bit", "--T", str(size["T_odd"])]
    train = ["train", "--hidden", str(size["hidden"]), "--epochs", str(size["epochs"]),
             "--iters", str(size["iters"]), "--seed", "1", "--out", "runs"]
    fail_sizes = ["--train-size", "40", "--valid-size", "10", "--test-size", "10"]
    failing = ["train", "--task", "adding", "--T", "20", "--hidden", "8",
               "--epochs", "2", "--iters", "4", "--batch", "5", "--alpha", "1e300",
               "--seed", "7", "--run-name", "fail", "--out", "runs", *fail_sizes]
    return [
        # the next gen of each task writes over these files, longer and shorter
        ("gen_adding_longer", ["gen", *add[:4], "--seed", "9", "--out", "data",
                               *split_flags(1.5)]),
        ("gen_order_shorter", ["gen", *order[:4], "--seed", "10", "--out", "data",
                               *split_flags(0.5)]),
        ("gen_adding", ["gen", *add[:4], "--seed", "1", "--out", "data", *split_flags()]),
        ("gen_order", ["gen", *order[:4], "--seed", "2", "--out", "data", *split_flags()]),
        ("gen_multiplication", ["gen", *multiplication, "--seed", "5", "--out", "data",
                                *split_flags()]),
        ("gen_order3", ["gen", *order3, "--seed", "6", "--out", "data", *split_flags()]),
        ("gen_order3_odd", ["gen", *order3_odd, "--seed", "8", "--out", "data",
                            *split_flags()]),
        ("train_gated", [*train, *order, "--reg", "on", "--data", "data",
                         "--run-name", "gated"]),
        ("train_ungated", [*train, *add, "--reg", "off", "--data", "data",
                           "--record-dynamics", "--run-name", "ungated"]),
        ("eval_adding", ["eval", "--model", "runs/ungated_seed1/model.json",
                         "--data", f"data/adding_T{size['T_add']}_test.dat",
                         "--out", "eval_adding.json"]),
        ("train_multiplication", [*train, *multiplication, "--h", str(size["h_add"]),
                                  "--reg", "off", "--data", "data",
                                  "--run-name", "multiplication"]),
        ("train_order3", [*train, *order3, "--reg", "on", "--data", "data",
                          "--run-name", "order3"]),
        ("eval_order3", ["eval", "--model", "runs/order3_seed1/model.json",
                         "--data", f"data/temporal_order_3bit_T{size['T_order']}_test.dat",
                         "--out", "eval_order3.json"]),
        ("train_batch1", [*train, *order, "--reg", "on", "--batch", "1", "--data", "data",
                          "--run-name", "batch1"]),
        ("train_tight_r0", [*train, *add, "--reg", "on", "--mu", "0",
                            "--r0", size["r0_tight"], "--data", "data",
                            "--run-name", "tight_r0"]),
        ("scan", ["scan", *order, "--hidden", str(size["hidden"]),
                  "--sigmas", "0.005,0.01,0.02", "--probes", str(size["probes"]),
                  "--seed", "3", "--out", "scan"]),
        ("scan_adding", ["scan", *add, "--hidden", str(size["hidden"]),
                         "--sigmas", "0.01,0.02", "--probes", str(size["probes"]),
                         "--seed", "4", "--out", "scan_adding"]),
        ("eval", ["eval", "--model", "runs/gated_seed1/model.json",
                  "--data", f"data/temporal_order_T{size['T_order']}_test.dat",
                  "--out", "eval.json"]),
        ("eval_out_dir", ["eval", "--model", "runs/gated_seed1/model.json",
                          "--data", f"data/temporal_order_T{size['T_order']}_test.dat",
                          "--out", "data"]),
        ("eval_overflow", ["eval", "--model", "overflow_model.json",
                           "--data", f"data/temporal_order_T{size['T_order']}_test.dat"]),
        ("train_failing", failing),
        ("train_failing_again", failing),
        ("train_failing_start", ["train", "--task", "adding", "--T", "15", "--hidden", "6",
                                 "--epochs", "1", "--iters", "4",
                                 "--sigma", "1e200", "--seed", "3", "--record-dynamics",
                                 "--run-name", "start", "--out", "runs", *fail_sizes]),
        # fixed sizes, in FULL and TINY alike: 3 batches of 10 cannot give an
        # epoch 5 corrections
        ("train_small_split", ["train", "--task", "adding", "--T", "20", "--hidden", "8",
                               "--epochs", "1", "--iters", "5", "--batch", "10",
                               "--train-size", "30", "--valid-size", "10", "--test-size", "10",
                               "--seed", "1", "--reg", "off", "--run-name", "small",
                               "--out", "runs"]),
    ]


def run_script(src: Path, work: Path, size: dict, blas_threads: int) -> dict:
    """Run the script from ``work`` against the package in ``src``, at
    ``blas_threads`` BLAS threads whatever the caller's environment says;
    returns the exit code of each command by name."""
    count = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS=count,
               OMP_NUM_THREADS=count, MKL_NUM_THREADS=count)
    (work / "overflow_model.json").write_text(json.dumps(OVERFLOW_MODEL))
    codes = {}
    for name, argv in script(size):
        proc = subprocess.run([sys.executable, "-m", "srngate.cli", *argv], cwd=work,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        codes[name] = proc.returncode
    return codes


def digests(root: Path) -> dict:
    """sha256 of every file under root, keyed by its relative path, and
    "empty directory" for every empty directory, keyed by its path and "/"."""
    found = {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if path.is_file():
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.is_dir() and not any(path.iterdir()):
            found[name + "/"] = "empty directory"
    return found


def differences(parent: dict, change: dict, parent_codes: dict, change_codes: dict) -> list:
    """One line per file or exit code that is not the same on both sides."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"only in parent: {name}")
        elif name not in parent:
            lines.append(f"only in change: {name}")
        elif parent[name] != change[name]:
            lines.append(f"differs: {name}")
    for name in parent_codes:
        if parent_codes[name] != change_codes[name]:
            lines.append(f"exit code of {name}: parent {parent_codes[name]}, "
                         f"change {change_codes[name]}")
    return lines


def relative_difference(p: str, c: str) -> float:
    """|p - c| / max(|p|, |c|) of two float cells; 0 when they are equal
    (two nans or two empty cells included), inf when only one is finite
    or only one is empty."""
    if p == c:
        return 0.0
    if p == "" or c == "":
        return math.inf
    p, c = float(p), float(c)
    if p == c or (math.isnan(p) and math.isnan(c)):
        return 0.0
    if not (math.isfinite(p) and math.isfinite(c)):
        return math.inf
    return abs(p - c) / max(abs(p), abs(c))


def _is_float_column(cells: list) -> bool:
    """Floats are written with repr, so a float column holds a cell that is
    no integer (``1.0``, ``2e-05``, ``nan``); empty cells are allowed."""
    def parses(text, kind):
        try:
            kind(text)
        except ValueError:
            return False
        return True

    filled = [text for text in cells if text != ""]
    return (all(parses(text, float) for text in filled)
            and any(not parses(text, int) for text in filled))


def _column_lines(columns: dict) -> list:
    """Describe matched columns: {name: (parent cells, change cells)}."""
    lines, equal = [], []
    for name, (parent, change) in columns.items():
        if _is_float_column(parent + change):
            worst = max(map(relative_difference, parent, change), default=0.0)
            lines.append(f"{name}: max relative difference {worst:.3g}")
        elif parent == change:
            equal.append(name)
        else:
            rows = [i for i, (p, c) in enumerate(zip(parent, change)) if p != c]
            lines.append(f"{name}: differs in {len(rows)} of {len(parent)} rows, "
                         f"first at {rows[:5]}")
    if equal:
        lines.append(f"equal: {', '.join(equal)}")
    return lines


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _flatten_json(doc, prefix="") -> dict:
    """Leaves of a JSON document as {dotted key: list of cell texts}; a list
    of numbers is one column, any other leaf one cell."""
    if isinstance(doc, dict):
        return {key: value for name, item in doc.items()
                for key, value in _flatten_json(item, f"{prefix}{name}.").items()}
    key = prefix[:-1]
    if isinstance(doc, list) and all(isinstance(x, (int, float)) for x in doc):
        return {key: [repr(float(x)) if isinstance(x, float) else str(x) for x in doc]}
    return {key: [repr(doc) if isinstance(doc, float) else json.dumps(doc)]}


def explain(parent_file: Path, change_file: Path) -> list:
    """Lines that quantify how a differing CSV or JSON file differs; none
    for other files."""
    if parent_file.suffix == ".csv":
        parent, change = _read_csv(parent_file), _read_csv(change_file)
    elif parent_file.suffix == ".json":
        parent = _flatten_json(json.loads(parent_file.read_text()))
        change = _flatten_json(json.loads(change_file.read_text()))
    else:
        return []
    if list(parent) != list(change):
        return [f"columns differ: parent {list(parent)}, change {list(change)}"]
    uneven = [f"{name}: parent {len(parent[name])} rows, change {len(change[name])} rows"
              for name in parent if len(parent[name]) != len(change[name])]
    if uneven:
        return uneven
    return _column_lines({name: (parent[name], change[name]) for name in parent})


def compare(parent_src: Path, change_src: Path, work: Path, size: dict,
            blas_threads: int) -> tuple:
    """(difference lines, number of parent files (an empty directory counts
    as one), change-side exit codes)
    of one run per side; under each differing file come its indented
    ``explain`` lines, which the count of differences leaves out."""
    results = []
    for side, src in (("parent", parent_src), ("change", change_src)):
        side_dir = work / side
        side_dir.mkdir(parents=True)
        codes = run_script(src, side_dir, size, blas_threads)
        results.append((digests(side_dir), codes))
    (parent, parent_codes), (change, change_codes) = results
    lines = []
    for line in differences(parent, change, parent_codes, change_codes):
        lines.append(line)
        if line.startswith("differs: "):
            name = line[len("differs: "):]
            lines += ["    " + detail
                      for detail in explain(work / "parent" / name, work / "change" / name)]
    return lines, len(parent), change_codes


def _positive(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--work", type=Path,
                        help="keep the outputs in this new directory (default: a "
                             "temporary one, deleted at exit)")
    # the default is perfbench/run.py's setting: a thread count that a
    # command leaves changed shows only at two threads or more
    parser.add_argument("--blas-threads", type=_positive, metavar="K",
                        default=len(os.sched_getaffinity(0)),
                        help="BLAS thread count of every command on both sides "
                             "(default: the number of usable cores)")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "srngate" / "cli.py").is_file():
            parser.error(f"{src} does not hold the srngate package")
    size = TINY if args.tiny else FULL
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        lines, n_files, codes = compare(args.parent_src, args.change_src, work, size,
                                        args.blas_threads)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    n_differences = sum(not line.startswith(" ") for line in lines)
    print(f"{n_differences} difference(s) over {n_files} parent file(s) "
          f"and {len(script(size))} commands at {args.blas_threads} BLAS thread(s)")
    print("exit codes: " + " ".join(f"{name}={code}" for name, code in codes.items()))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
