"""The four benchmark workloads: CLI argument lists, model lists, expected counts.

Each workload is one ``ringwalk`` CLI command run in-process; NOTES.md and
BENCHMARK.json say why each exists.  This module imports neither numpy nor
ringwalk at load time, so the set-up probe can time ``import ringwalk``
after importing it.
"""

from dataclasses import dataclass

#: Reference outputs are stored for CLI seeds 0..REFERENCE_SEEDS-1; the
#: benchmark seed is reduced modulo this count before it reaches the CLI.
REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple
    grid: tuple  # (d_s, d_e) per sweep point; d_e is None for the local model
    samples: int
    steps: int

    def argv(self, cli_seed: int, output: str) -> list:
        # The local model takes no --samples; it always runs one.
        samples = [] if self.local else ["--samples", str(self.samples)]
        return [self.command, *self.flags, *samples, "--steps", str(self.steps),
                "--seed", str(cli_seed), "--output", output]

    @property
    def local(self) -> bool:
        return self.grid[0][1] is None

    def expected_counts(self) -> dict:
        """Calls per operation that the traced run asserts exactly."""
        models = len(self.grid) * self.samples
        return {
            "step": models * self.steps,
            "mixedness": models * (self.steps + 1),
            "sample": 0 if self.local else models,
        }

    def siblings(self) -> tuple:
        """Files the command must leave beside its CSV, as suffixes of its stem."""
        if self.command == "saturation-sweep":
            return (".manifest.json", ".fit.json")
        return (".manifest.json",)


def _saturation_grid(sites, ratios):
    # Same rounding as the CLI's --ratios handling.
    return tuple((d_s, max(1, round(r * d_s / 2.0))) for d_s in sites for r in ratios)


_LOCAL_GATES = ("--theta0", "0.2628", "--phi0", "0", "--theta1", "0.2628", "--phi1", "1.5708")
_SAT_SITES, _SAT_RATIOS = (11, 19, 31), (0.5, 2, 4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quench_observer",
            "simulate",
            ("--model", "nonlocal", "--sites", "51", "--env-dim", "32"),
            ((51, 32),), 8, 500,
        ),
        Workload(
            "quench_matmul",
            "simulate",
            ("--model", "nonlocal", "--sites", "51", "--env-dim", "320"),
            ((51, 320),), 2, 500,
        ),
        Workload(
            "local_bath",
            "simulate",
            ("--model", "local", "--sites", "9", *_LOCAL_GATES),
            ((9, None),), 1, 1500,
        ),
        Workload(
            "saturation_sweep",
            "saturation-sweep",
            ("--sites-list", ",".join(map(str, _SAT_SITES)),
             "--ratios", ",".join(map(str, _SAT_RATIOS))),
            _saturation_grid(_SAT_SITES, _SAT_RATIOS), 2, 600,
        ),
    )
}


def build_models(workload: Workload, cli_seed: int) -> list:
    """Construct every model the command evolves, through the public API.

    Sample k of sweep point j draws from the stream the CLI uses:
    ``(seed, k)`` for ``simulate`` and ``(seed, j, k)`` for sweeps.
    """
    import ringwalk

    if workload.local:
        flags = dict(zip(_LOCAL_GATES[::2], map(float, _LOCAL_GATES[1::2])))
        gates = [
            ringwalk.make_local_gate(ringwalk.GateAngles(flags[f"--theta{b}"], flags[f"--phi{b}"]))
            for b in (0, 1)
        ]
        env = ringwalk.LocalEnvironment(*gates)
        return [ringwalk.WalkModel(d_s=workload.grid[0][0], environment=env, seed=cli_seed)]
    sweep = workload.command == "saturation-sweep"
    models = []
    for j, (d_s, d_e) in enumerate(workload.grid):
        template = ringwalk.NonlocalTemplate(d_s=d_s, d_e=d_e)
        path = (cli_seed, j) if sweep else (cli_seed,)
        models.extend(template.realize(*path, k) for k in range(workload.samples))
    return models
