"""Scenario files: the batch interface behind the orbitkit CLI.

Run:  python3 demos/06_scenario_files.py      (writes demo_scenario.out/)

The demo writes its scenario to demo_scenario.out/demo.okit, checks it as
``orbitkit check`` does, then runs it.

Equivalent shell usage:
    orbitkit check demo.okit
    orbitkit run demo.okit --out demo_scenario.out --seed 42
"""

from pathlib import Path

from orbitkit.cli import main, run_scenario
from orbitkit.scenario import parse_scenario

TEXT = """\
version 1
family {
  builtin grushin {
    radius 9
  }
}
lb {
  order 2
}
defaults {
  tol 1e-09
  seed 42
}
command verdict {
  point 0 0
  k-max 3
}
command bracket-chain {
  point 0 1
  k-max 2
}
command orbit-sample {
  point 0 0
  budget 500
  max-word-len 8
  exploration-radius 1.0
  out grushin_cloud.txt
  spot-check on
}
"""

out = Path("demo_scenario.out")
out.mkdir(exist_ok=True)
scenario_file = out / "demo.okit"
scenario_file.write_text(TEXT)
# `check` reads every section and every command's options, running nothing
if main(["check", str(scenario_file)]) != 0:
    raise SystemExit("the demo scenario does not check")

scenario = parse_scenario(TEXT)
print("canonical form round-trips byte-identically:",
      scenario.emit() == parse_scenario(scenario.emit()).emit())

code = run_scenario(scenario, out)
print(f"exit code {code}; wrote:")
for p in sorted(out.iterdir()):
    print(f"  {p}")
print()
print((out / "report-01-verdict.txt").read_text())
