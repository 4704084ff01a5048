#!/usr/bin/env python3
"""
Tour of the nine loss families and the decoders that turn head outputs
into age predictions.

Each family is evaluated at the same toy point so the numbers are easy
to compare. The second half shows the expected-absolute-error decoder:
for any posterior over ages, the label at the weighted median minimizes
the expected absolute error, and a brute-force scan agrees with it.
"""

import numpy as np

from ordibench.data import LabelSet
from ordibench.methods import (
    FAMILIES,
    MethodConfig,
    encode_targets,
    loss_eval,
    soft_targets,
    softmax,
)
from ordibench.prediction import bayes_mae_predict, decode_output
from ordibench.util import rng_from_seed


def main():
    labels = LabelSet(tuple(range(20, 28)))
    k = len(labels.values)
    true_age = 23.0
    rng = rng_from_seed(0)

    print("=== Loss values at a random head output (true age 23) ===")
    for family in FAMILIES:
        cfg = MethodConfig(family=family)
        z = rng.normal(size=cfg.head_size(k))
        ev = loss_eval(cfg, z, encode_targets(cfg, true_age, labels), labels)
        print(f"{cfg.display_name:<22} head size {cfg.head_size(k):>2}  "
              f"loss {ev.value:8.4f}")

    print()
    print("=== Soft targets for age 23 ===")
    at_23 = labels.indices_of(23)
    d = soft_targets(MethodConfig(family="dldl", sigma=1.0), at_23, labels)
    s = soft_targets(MethodConfig(family="sord", alpha=1.0), at_23, labels)
    print("normal-shaped:", np.round(d, 3))
    print("exp-distance :", np.round(s, 3))

    print()
    print("=== Median decoder vs brute force ===")
    z = rng.normal(size=k) * 2
    p = softmax(z)
    med = bayes_mae_predict(p, labels)
    # brute force: the age of least expected absolute error, the first on a tie
    ages = labels.as_array()
    brute = ages[np.argmin([np.abs(ages - a) @ p for a in ages])]
    print("posterior:", np.round(p, 3))
    print(f"median decoder -> age {med}, brute force -> age {brute}")

    # decode_output picks the right route for each family
    print()
    print("=== decode_output dispatch ===")
    for family in ("cross-entropy", "or-cnn", "coral", "regression"):
        cfg = MethodConfig(family=family)
        z = rng.normal(size=cfg.head_size(k))
        print(f"{family:<14} -> age {decode_output(cfg, z, labels)}")


if __name__ == "__main__":
    main()
