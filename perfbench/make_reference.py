"""Write reference.json: the digests every benchmark output is checked by.

Run it only at a commit whose outputs are known good (the reference in
the repository was taken at the initial commit), from the checkout root:

    python3 perfbench/make_reference.py

It runs each workload once at its benchmark size and at its self-check
size, and every ring of the single-configuration pool, which it draws
here: POOL_PER_SIZE distinct non-homogeneous rings of each odd size.
For each pool ring it also records its work, the ``engine.step`` calls
it takes, by which the single-configuration sample is stratified.
"""
from __future__ import annotations

import json
import random

import run

POOL_SEED = 250108684
POOL_PER_SIZE = 32


def pool_configs(workload) -> list[str]:
    rng = random.Random(POOL_SEED)
    out = []
    for n in range(workload.n_lo, workload.n_hi + 1, 2):
        drawn: set[str] = set()
        while len(drawn) < POOL_PER_SIZE:
            bits = rng.getrandbits(n)
            if 0 < bits < (1 << n) - 1:
                drawn.add("".join(str((bits >> i) & 1) for i in range(n)))
        out.extend(sorted(drawn))
    return out


def main() -> None:
    run.import_package()
    import workloads
    from parityca import lattice, rule

    single = workloads.WORKLOADS["single-config"]
    table = rule.build_rule_table(single.variant)
    pool = pool_configs(single)
    reference = {
        "single-config": {
            text: workloads.digest(workloads.canonical(
                workloads.single_output(table, lattice.parse(text))))
            for text in pool
        },
        "single-config-steps": {
            text: workloads.step_count(table, lattice.parse(text)) for text in pool
        },
    }
    for table in (workloads.WORKLOADS, workloads.tiny_workloads()):
        for name, w in table.items():
            if name == "single-config":
                continue
            w.prepare(0, reference)
            known = reference.setdefault(name, {})
            for key, value in w.run_pass(w.workers).outputs.items():
                if known.setdefault(key, value) != value:
                    raise SystemExit(f"{name} {key}: output depends on the workload size")
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
