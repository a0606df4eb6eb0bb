"""Compare the outputs of every shipped config between two result trees.

Each tree holds one directory per config, named after the config file
(``DIR/equilibrium/``, ``DIR/upper_semi/``, ...).  A tree that does not
exist yet is first filled by running every ``configs/*.json`` into it with
the package found under ``--src-a`` or ``--src-b`` (default: this
checkout's ``src``); an existing tree is taken as it is.  Per config the
script reports whether the CSV files are byte-identical and whether the
summaries are equal once ``metadata`` (the timestamp) and
``config.output.directory`` are dropped, since those two differ between
identical runs.

Usage:
    python3 scripts/compare_outputs.py DIR_A DIR_B
    python3 scripts/compare_outputs.py DIR_A DIR_B --src-a OTHER_CHECKOUT/src

Exits 0 when every config matches, 1 on any difference (a missing summary
included) and 2 when there is no config, or no package to fill a missing
tree with.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fill(tree: str, src: str, configs: list[str]) -> None:
    """Run every config into its own directory under ``tree``, one process each."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for config in configs:
        out = os.path.join(tree, stem_of(config))
        done = subprocess.run(
            [sys.executable, "-m", "pullbacklab.cli", "run", "--config", config,
             "--output-dir", out, "--quiet"],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        # exit 1 is a failed check, which the summary records; anything
        # else means the run did not get that far
        print(f"ran {stem_of(config)} into {tree} (exit {done.returncode})")
        if done.returncode not in (0, 1):
            print(done.stderr, file=sys.stderr)


def stem_of(config: str) -> str:
    return os.path.splitext(os.path.basename(config))[0]


def comparable(summary: dict) -> dict:
    """The summary without what differs between identical runs."""
    summary = dict(summary)
    summary.pop("metadata", None)
    config = dict(summary.get("config", {}))
    output = dict(config.get("output", {}))
    output.pop("directory", None)
    config["output"] = output
    summary["config"] = config
    return summary


def compare(dir_a: str, dir_b: str) -> list[str]:
    """Differences between the outputs of one config in two trees."""
    names_a = sorted(os.listdir(dir_a)) if os.path.isdir(dir_a) else []
    names_b = sorted(os.listdir(dir_b)) if os.path.isdir(dir_b) else []
    problems = []
    if names_a != names_b:
        problems.append(f"file lists differ: {names_a} vs {names_b}")
    for name in sorted(set(names_a) & set(names_b)):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name.endswith(".csv"):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name} differs")
        elif name.endswith("_summary.json"):
            with open(path_a) as fa, open(path_b) as fb:
                if comparable(json.load(fa)) != comparable(json.load(fb)):
                    problems.append(f"{name} differs outside metadata")
    if not any(name.endswith("_summary.json") for name in names_a):
        problems.append("no summary written")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--src-a", default=os.path.join(ROOT, "src"),
                        help="package source that fills DIR_A if it does not exist")
    parser.add_argument("--src-b", default=os.path.join(ROOT, "src"),
                        help="package source that fills DIR_B if it does not exist")
    parser.add_argument("--configs", default=os.path.join(ROOT, "configs"),
                        help="directory of the configs to run and compare")
    args = parser.parse_args(argv)

    configs = sorted(glob.glob(os.path.join(args.configs, "*.json")))
    if not configs:
        print(f"no configs in {args.configs}", file=sys.stderr)
        return 2
    for tree, src in ((args.dir_a, args.src_a), (args.dir_b, args.src_b)):
        if not os.path.exists(tree):
            if not os.path.isdir(os.path.join(src, "pullbacklab")):
                print(f"no pullbacklab package under {src}", file=sys.stderr)
                return 2
            fill(tree, src, configs)

    differing = 0
    for config in configs:
        stem = stem_of(config)
        problems = compare(os.path.join(args.dir_a, stem), os.path.join(args.dir_b, stem))
        if problems:
            differing += 1
            print(f"{stem}: DIFFERENT: " + "; ".join(problems))
        else:
            print(f"{stem}: CSVs byte-identical, summaries equal outside metadata")
    print(f"{len(configs) - differing} of {len(configs)} configs match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
