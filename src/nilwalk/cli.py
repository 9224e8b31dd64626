"""Batch command-line interface: one subcommand per experiment."""

from __future__ import annotations

import json

import click

from .errors import InputError
from .experiments import RUNNERS, ExperimentConfig, _jsonable


def _run(name: str, config: str, out: str, seed, workers) -> None:
    try:
        cfg = ExperimentConfig.from_file(config).override(seed=seed, workers=workers)
        metrics = RUNNERS[name](cfg, out)
    except InputError as exc:
        # an input error is reported in one line; a numerical fault keeps its traceback
        raise click.ClickException(str(exc)) from exc
    click.echo(json.dumps(_jsonable({"experiment": name, "out": str(out), "metrics": metrics}),
                          sort_keys=True, allow_nan=False, default=str))


def _experiment_command(name: str, help_text: str):
    @click.command(name=name, help=help_text)
    @click.option("--config", required=True, type=click.Path(),
                  help="JSON experiment configuration.")
    @click.option("--out", required=True, type=click.Path(file_okay=False),
                  help="Output directory for CSV/JSON artifacts.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    @click.option("--workers", type=int, default=None, help="Override the config worker count.")
    def cmd(config, out, seed, workers):
        _run(name, config, out, seed, workers)

    return cmd


@click.group()
def main():
    """Random walks on nilpotent covering graphs: analysis and experiments."""


for _name, _help in [
    ("albanese", "Invariant measure, drift, harmonic realization, covariance matrices."),
    ("lln", "Law-of-large-numbers error quantiles over an n grid."),
    ("clt", "Monte Carlo covariance versus the exact matrix."),
    ("mdp", "Moderate-deviation tail decay (exact enumeration or Monte Carlo)."),
    ("lil", "Iterated-logarithm scatter and rate-bound containment."),
    ("rate", "Endpoint rate-function bound at a target point."),
]:
    main.add_command(_experiment_command(_name, _help))


if __name__ == "__main__":
    main()
