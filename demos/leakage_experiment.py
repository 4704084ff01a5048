#!/usr/bin/env python3
"""
Measure how much a random split flatters test MAE when identities repeat.

Same data, same trainer, same seeds; the only difference between the two
arms is whether a person's rows can land in different folds. With a strong
per-identity signature the random arm looks consistently better, because
the model has already seen the test identities. Setting sigma_id to zero
removes the signature and the gap collapses into noise.
"""

import dataclasses

from ordibench.harness import LeakageParams, leakage_demo


def show(tag, report):
    print(f"=== {tag} (sigma_id={report.params.synth.sigma_id}) ===")
    print("seed  random-MAE  exclusive-MAE    gap")
    for s, r, e, g in zip(report.seeds, report.random_mae,
                          report.subject_exclusive_mae, report.gaps):
        print(f"{s:>4}  {r:>10.3f}  {e:>13.3f}  {g:+.3f}")
    print(f"mean gap {report.mean_gap:+.3f} (std {report.std_gap:.3f}), "
          f"random lower in {report.n_random_lower}/{len(report.seeds)} seeds")
    print()


def main():
    params = LeakageParams()
    show("identity noise present", leakage_demo(params))
    no_identity = dataclasses.replace(params.synth, sigma_id=0.0)
    show("identity noise removed",
         leakage_demo(dataclasses.replace(params, synth=no_identity)))
    print("gap = subject-exclusive MAE minus random MAE; positive means the "
          "random split scored optimistically.")


if __name__ == "__main__":
    main()
