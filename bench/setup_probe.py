"""Set-up probe: import the CLI in a fresh interpreter and parse the configs.

    python3 setup_probe.py <src dir> <config.json>...

run.py times this whole process, interpreter start included; that wall time
is the benchmark's ``setup_s``.  Configs go through the CLI's own loader and
section parsers, the same calls a command makes before it computes anything.
A parser that a later version of the CLI no longer has is skipped.
"""

import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    from schedlab import cli

    parse_scenario = getattr(cli, "parse_scenario", None)
    parse_schedule = getattr(cli, "parse_schedule", None)
    for path in argv[1:]:
        data = cli.load_config(path)
        if "sampler" in data and parse_scenario is not None:
            parse_scenario(data, None)
        elif parse_schedule is not None:
            parse_schedule(data["schedule"])
    print(len(argv) - 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
