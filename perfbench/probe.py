"""Set-up probe of the switchseq benchmark: a fresh process that does only
what every run of a workload does before its real work, then exits.

    python perfbench/probe.py CONFIG evaluator
    python perfbench/probe.py CONFIG load SEQUENCE [SEQUENCE ...]

It imports ``switchseq.cli``, loads the config and builds the array; then
it either builds the ObjectiveEvaluator (workloads that anneal) or loads the
given sequence files (the surface workload). The parent times the process
from spawn to exit, so interpreter start and imports count. The last line
printed is the path the package was imported from.
"""

import sys


def main(argv: list[str]) -> int:
    import switchseq.cli
    from switchseq.ambiguity import ObjectiveEvaluator
    from switchseq.config import ExperimentConfig
    from switchseq.switching import SwitchingSequence

    config = ExperimentConfig.from_file(argv[1])
    array = config.build_array()
    if argv[2] == "evaluator":
        spec = config.sequence_spec
        ObjectiveEvaluator(array, config.build_region(), config.build_objective(),
                           spec["delta_t_s"], spec["snapshots"])
    else:
        for path in argv[3:]:
            SwitchingSequence.load(path)
    print(switchseq.cli.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
