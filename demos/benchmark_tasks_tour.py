"""Tour of the four synthetic benchmarks: what a sequence looks like, where
the information hides, and how the target follows from it.

Run:  python3 demos/benchmark_tasks_tour.py
"""

import numpy as np

from srngate import tasks

np.set_printoptions(precision=3, suppress=True)


def show_marked_value_task(name, batch):
    print(f"\n=== {name} (T={batch.spec.T}) ===")
    seq = batch.dense_inputs(slice(0, 1))[0]
    marked = np.flatnonzero(seq[:, 1] == 1.0)
    print(f"value channel, first 12 steps : {seq[:12, 0]}")
    print(f"marker channel set at steps   : {marked + 1} (1-based)")
    v1, v2 = seq[marked, 0]
    print(f"marked values                 : {v1:.3f}, {v2:.3f}")
    print(f"target                        : {batch.targets[0, 0]:.3f}")
    print(f"success criterion             : |prediction - target| < "
          f"{batch.spec.success_tolerance}")
    held = batch.symbols[0].nbytes + batch.values[0].nbytes
    print(f"in memory                     : uint8 marker + float64 value, "
          f"{held} bytes per sequence ({seq.nbytes} as float64 inputs)")


def show_temporal_order_task(name, batch):
    print(f"\n=== {name} (T={batch.spec.T}) ===")
    symbols = batch.symbols[0]
    letters = np.array(list("abcdXY"))
    text = "".join(letters[symbols])
    print(f"symbol stream : {text}")
    pos = np.flatnonzero(symbols >= tasks.SYMBOL_X)
    read = "".join(letters[symbols[pos]])
    print(f"specials      : {read!r} at steps {pos + 1} (1-based)")
    print(f"class         : {batch.targets[0]} of {batch.spec.n_out} "
          f"(binary reading of the tuple, X=0, Y=1)")
    dense = batch.dense_inputs(slice(0, 1))
    print(f"in memory     : {symbols.dtype} symbol ids, {symbols.nbytes} bytes per "
          f"sequence ({dense.nbytes} as float64 one-hot inputs)")


def main():
    kinds = tasks.TaskKind
    show_marked_value_task("adding", tasks.generate(
        tasks.TaskSpec(kinds.ADDING, 100), 3, seed=0))
    show_marked_value_task("multiplication", tasks.generate(
        tasks.TaskSpec(kinds.MULTIPLICATION, 100), 3, seed=1))
    show_temporal_order_task("temporal order", tasks.generate(
        tasks.TaskSpec(kinds.TEMPORAL_ORDER, 100), 3, seed=2))
    show_temporal_order_task("temporal order, 3 specials", tasks.generate(
        tasks.TaskSpec(kinds.TEMPORAL_ORDER_3BIT, 100), 3, seed=3))

    print("\n=== split protocol ===")
    spec = tasks.TaskSpec(tasks.TaskKind.ADDING, 100)
    splits = tasks.make_splits(spec, seed=4, sizes=(200, 50, 100))
    for name, batch in splits.items():
        print(f"{name:5s}: {batch.n} sequences, targets mean "
              f"{batch.targets.mean():.3f}")
    print("(default sizes are 20000 / 1000 / 10000)")


if __name__ == "__main__":
    main()
