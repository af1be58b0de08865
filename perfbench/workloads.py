"""The benchmark's workloads: fixed drives through the default world.

Each workload is one scripted episode that a run repeats. The seed sets
only the lidar noise (``ScenarioConfig.seed``); pose, mode timeline and
world are fixed, so every repetition of an episode in one run does the
same work and runs with different seeds are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from apgm import ScenarioConfig, ScenarioScript, default_world

CYCLE_S = 0.1
# Default-script keyframes (t, x, y, heading): 2 m/s out of the first lot
# (0-15 s), 13.3 m/s down the corridor (15-45 s), into the second lot.
DEFAULT_KEYFRAMES = (
    (0.0, 0.0, 0.0, 0.0),
    (15.0, 30.0, 0.0, 0.0),
    (45.0, 430.0, 0.0, 0.0),
    (60.0, 460.0, 0.0, 0.0),
)


@dataclass(frozen=True)
class Workload:
    name: str
    keyframes: tuple[tuple[float, float, float, float], ...]
    mode_times: tuple[tuple[float, str], ...]
    # Cycles per episode, sized so one episode takes about 8 s on the
    # 2-core fallback-path machine the benchmark was tuned on.
    episode_cycles: int

    def scenario(self, seed: int, cycles: int | None = None):
        """(script, world, config) for one episode of ``cycles`` cycles."""
        n = self.episode_cycles if cycles is None else cycles
        script = ScenarioScript(
            keyframes=list(self.keyframes),
            mode_times=list(self.mode_times),
            duration_s=round(n * CYCLE_S, 9),
            cycle_s=CYCLE_S,
        )
        return script, default_world(), ScenarioConfig(seed=seed)


def _toggling(period: int, cycles: int) -> tuple[tuple[float, str], ...]:
    # Switch times are rounded like the runner's cycle times, so each
    # switch lands exactly on cycle j * period.
    return tuple(
        (round(j * period * CYCLE_S, 9), "parking" if j % 2 == 0 else "road")
        for j in range((cycles + period - 1) // period)
    )


SWITCH_PERIOD = 3
_SWITCHING_CYCLES = 36

# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parking",
            DEFAULT_KEYFRAMES[:2],
            ((0.0, "parking"),),
            episode_cycles=35,
        ),
        Workload(
            "road",
            ((0.0, 30.0, 0.0, 0.0), (30.0, 430.0, 0.0, 0.0)),
            ((0.0, "road"),),
            episode_cycles=55,
        ),
        Workload(
            "switching",
            DEFAULT_KEYFRAMES,
            _toggling(SWITCH_PERIOD, _SWITCHING_CYCLES),
            episode_cycles=_SWITCHING_CYCLES,
        ),
    )
}
