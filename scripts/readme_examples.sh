#!/bin/sh
# Run every command of the README's CLI section on the bundled problems,
# twice, each time into a fresh temporary directory, and compare the two
# directories with `diff -r`.
#
#     sh scripts/readme_examples.sh
#
# Run it from the repository root: it puts the checkout's src/ first on
# PYTHONPATH itself, so the commands run this checkout's waveplan, installed
# or not. The oracle runs at its default grid and the sweep is kept small;
# the bound report of the sigmoid problem, which has no water level, is
# added. Any nonzero exit of a command, any RuntimeWarning
# (raised as an error, as the test suite does), and any difference between
# the two runs stops the script with a nonzero status. The temporary
# directories are removed on exit.
set -e
PYTHONPATH="$(pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
first=$(mktemp -d)
second=$(mktemp -d)
trap 'rm -rf "$first" "$second"' EXIT
waveplan() { python -W error::RuntimeWarning -m waveplan.cli "$@"; }
run_examples() {
    waveplan solve problems/seven_agents.json --out "$1/seven" --emit-plot-data
    waveplan simulate problems/seven_agents.json --schedule "$1/seven/schedule.json" --out "$1/sim"
    waveplan bounds problems/seven_agents.json --out "$1/bounds"
    waveplan bounds problems/seven_agents_sigmoid.json --out "$1/bounds_sigmoid"
    waveplan oracle problems/seven_agents.json --out "$1/oracle"
    waveplan sweep --n 20:60:20 --instances 5 --seed 1 --out "$1/sweep"
    waveplan sigmoid problems/seven_agents_sigmoid.json --out "$1/sigmoid"
}
run_examples "$first"
run_examples "$second"
diff -r "$first" "$second"
