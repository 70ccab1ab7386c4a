"""The benchmark's workloads: generated inputs and the op list of one pass.

An op is one CLI command on one input, run in its own process.  The seed
draws the generated inputs (see gen.py) and the order of the op list; the
program sees only the resulting argv and spec files.
"""

import os
import random
from collections import namedtuple

BUILTINS = ("group_algebra:2", "group_algebra:3", "sweedler", "exterior_line",
            "nichols_cyclic:3", "taft:2")
COMMANDS = ("check-hopf", "antipode", "yd-check", "bosonize", "reconstruct",
            "verify-reconstruction", "stability")
RECONSTRUCT_COMMANDS = ("reconstruct", "verify-reconstruction", "stability")
AXIOM_COMMANDS = ("check-hopf", "antipode", "yd-check", "bosonize")

# Left out of every workload: `bosonize nichols_cyclic:3` (about 33 s and
# 725 MB, because it builds the 9-dim taft:3); see README.md for the rest.
SKIPPED_BUILTIN_OPS = (("bosonize", "nichols_cyclic:3"),)


class Op(namedtuple("Op", ["command", "builtin", "spec"])):
    """One CLI command on a builtin (by name) or on a generated spec file."""

    @property
    def id(self):
        return "%s %s" % (self.command, self.builtin or self.spec + ".json")

    def argv(self, spec_dir):
        if self.builtin:
            return [self.command, "--builtin", self.builtin]
        return [self.command, os.path.join(spec_dir, self.spec + ".json")]


def _spec_ops(commands, specs):
    return [Op(c, None, s) for s in specs for c in commands]


# name -> (inputs: spec name -> (base datum, dense?), ops of one pass)
WORKLOADS = {
    "cli_builtins": (
        {"sweedler-dense": ("sweedler", True),
         "taft2-dense": ("taft:2", True)},
        [Op(c, b, None) for b in BUILTINS for c in COMMANDS
         if (c, b) not in SKIPPED_BUILTIN_OPS]
        + _spec_ops(("check-hopf", "antipode", "verify-reconstruction"),
                    ("sweedler-dense", "taft2-dense"))),
    "coend_cyclo5": (
        {"cyclo5-diag": ("nichols_cyclic:5", False)},
        _spec_ops(("verify-reconstruction", "stability"), ("cyclo5-diag",))),
    "axioms_rational": (
        {"ga%d-diag" % n: ("group_algebra:%d" % n, False) for n in range(2, 7)},
        _spec_ops(("check-hopf", "antipode", "yd-check"),
                  ["ga%d-diag" % n for n in range(2, 7)])),
}


def op_list(workload, seed):
    """The ops of one pass, in the order drawn from the seed."""
    ops = list(WORKLOADS[workload][1])
    random.Random("%s|%d" % (workload, seed)).shuffle(ops)
    return ops
