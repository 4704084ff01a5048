#!/usr/bin/env python3
"""
Train a single method end to end and inspect the training history.

Shows epoch-by-epoch validation MAE, which epoch the selector kept, and the
held-out test MAE of the selected model. Run it twice and the numbers do not
move: everything is seeded.
"""

import argparse

from ordibench.data import SynthSpec, generate_synthetic
from ordibench.methods import MethodConfig
from ordibench.splitting import MODE_SUBJECT_EXCLUSIVE, make_split
from ordibench.training import TrainConfig, evaluate_mae, train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", default="cross-entropy")
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()

    spec = SynthSpec(n_identities=60, samples_per_identity=4, dimension=16,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=11)
    table = generate_synthetic(spec)
    split = make_split(table, MODE_SUBJECT_EXCLUSIVE, (0.6, 0.2, 0.2), 0)

    method = MethodConfig(family=args.family)
    tc = TrainConfig(epochs=args.epochs, seed=0)
    [[result]] = train(table, [split], [method], [tc])
    if isinstance(result, Exception):  # train() returns a run's failure as its outcome
        raise result

    print(f"=== {method.display_name} on {len(table)} samples ===")
    for ep, (train_loss, val_mae) in enumerate(result.history, start=1):
        marker = " <- selected" if ep == result.selected_epoch else ""
        print(f"epoch {ep:>3}: train loss {train_loss:7.4f}  "
              f"val MAE {val_mae:6.3f}{marker}")

    test_mae = evaluate_mae(result, table, split.test)
    print()
    print(f"selected epoch {result.selected_epoch}, "
          f"val MAE {result.best_val_mae:.3f}, test MAE {test_mae:.3f}")


if __name__ == "__main__":
    main()
