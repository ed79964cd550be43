"""Workload table and the CLI stage sequence each workload runs.

Standard library only: the runner (run.py) imports this module and must stay small,
because on Linux a child's ``ru_maxrss`` starts from the RSS of the process
that spawned it.
"""

from __future__ import annotations

from dataclasses import dataclass

MODELS = ("lr", "wnn", "dnn", "cart", "gbt")

# Every stage name the benchmark can run, in pipeline order.
STAGES = (
    "clean",
    "aggregate",
    "join",
    "featurize",
    *(f"train-{m}" for m in MODELS),
    "evaluate",
    "importance",
    "plot",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    days: int
    base_rate: float
    anonymized: bool
    stages: tuple[str, ...]

    @property
    def frames_file(self) -> str:
        return "frames.csv.gz" if self.anonymized else "frames.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default-30d",
            why="The paper's verification scenario through all 12 stages; "
            "model fits take most of the time, so tree, MLP and store changes show here.",
            days=30,
            base_rate=2.6,
            anonymized=False,
            stages=STAGES,
        ),
        Workload(
            name="anon-gz-60d",
            why="Gzipped digest-form input over 60 days: the randomized filter is skipped "
            "and zero-filled hours make aggregation and join do most of the work.",
            days=60,
            base_rate=2.6,
            anonymized=True,
            stages=("clean", "aggregate", "join", "plot"),
        ),
    )
}


def stage_argv(stage: str, frames: str, weather: str) -> list[str]:
    """CLI arguments for one stage; output paths are relative to the run directory."""
    if stage == "clean":
        return ["clean", "--frames", frames, "--out-segments", "segments.csv",
                "--out-report", "clean.json"]
    if stage == "aggregate":
        return ["aggregate", "--segments", "segments.csv", "--out-hourly", "hourly.csv"]
    if stage == "join":
        return ["join", "--hourly", "hourly.csv", "--weather", weather,
                "--out-joined", "joined.csv", "--out-report", "join.json"]
    if stage == "featurize":
        return ["featurize", "--joined", "joined.csv", "--out-train", "train.csv",
                "--out-val", "val.csv", "--out-test", "test.csv", "--out-meta", "meta.json"]
    if stage.startswith("train-"):
        model = stage.removeprefix("train-")
        argv = ["train", "--model", model, "--train", "train.csv", "--meta", "meta.json",
                "--out-model", f"{model}.json"]
        if model in ("wnn", "dnn"):
            argv += ["--val", "val.csv", "--out-history", f"{model}_history.csv"]
        return argv
    if stage == "evaluate":
        argv = ["evaluate", "--test", "test.csv", "--meta", "meta.json"]
        for model in MODELS:
            argv += ["--model", f"{model}.json"]
        return argv + ["--out-report", "eval.json"]
    if stage == "importance":
        return ["importance", "--model", "gbt.json", "--out", "importance.csv"]
    if stage == "plot":
        # Not hourly.svg: plot writes its series CSV next to the SVG and
        # would overwrite the hourly.csv it reads.
        return ["plot", "--counts", "hourly.csv", "--out", "counts.svg"]
    raise ValueError(f"unknown stage {stage!r}")


def stage_outputs(argv: list[str]) -> list[str]:
    """The files a stage invocation writes, read off its ``--out*`` flags."""
    outs = [argv[i + 1] for i, a in enumerate(argv) if a.startswith("--out")]
    if argv[0] == "plot":
        outs.append(outs[0].removesuffix(".svg") + ".csv")
    return outs
