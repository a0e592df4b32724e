"""Sampling hot-path profiler for the molecular access engine.

Timing every access with a clock read would multiply the cost of the
hot loop several times over — useless as an instrument. Instead the
profiler combines three measurements, each cheap where it runs often and
exact where it runs rarely:

* **wall clock** — every profiled stream (or the caller, for per-access
  sessions) contributes its measured wall time; every profiled access
  counts itself;
* **sampled outcomes** — every ``sample_every``-th reference the
  profiler sees (counted across all streams and sessions) runs the
  unmodified session access, timed whole
  (:meth:`repro.prof.engine.ProfiledAccessEngine.sample`) and classed as
  a local hit, remote hit, clean miss or dirty miss, accumulating
  per-class and per-region sampled time;
* **exact resize timing** — resize rounds are rare and expensive, so the
  resizer times every fire directly instead of relying on sampling; a
  sample that contains a fire has the fire's time taken off.

The report distributes the measured wall clock (minus the exactly-timed
resize share) across the outcome classes proportionally to their sampled
time. By construction the per-class times sum to the wall clock — the
breakdown answers "where did this run's time go", and the per-class mean
of the sampled accesses answers "what does one such access cost".

The equivalence contract of :mod:`repro.molecular.engine` extends to the
profiled paths: a profiled run's stats, resize log and telemetry stream
are byte-identical to an unprofiled one (``tests/test_prof_profiler.py``
asserts it). Disabled, profiling costs nothing on the per-reference
path: ``MolecularCache.access_many``/``access_session`` check
``cache.profiler`` once per call and hand the stream to the ordinary
engine.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

#: The report's ``stages``: the outcome classes of a sampled access, in
#: report order.
PROFILE_STAGES = ("local_hit", "remote_hit", "clean_miss", "dirty_miss")


class HotPathProfiler:
    """Accumulates sampled outcome time, wall clock and resize time.

    Parameters
    ----------
    sample_every:
        One reference in every ``sample_every`` is timed and classified.
        The default keeps the enabled overhead on the molecular access
        benchmark under the 5 % budget
        (``benchmarks/test_perf_prof_overhead.py`` guards it).
    """

    __slots__ = (
        "sample_every",
        "enabled",
        "stage_s",
        "stage_samples",
        "asid_s",
        "asid_samples",
        "samples",
        "refs",
        "wall_s",
        "resize_s",
        "resize_fires",
        "streams",
        "countdown",
    )

    def __init__(self, sample_every: int = 512) -> None:
        if sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (a fresh measurement window)."""
        self.stage_s = dict.fromkeys(PROFILE_STAGES, 0.0)
        self.stage_samples = dict.fromkeys(PROFILE_STAGES, 0)
        self.asid_s: dict[int, float] = {}
        self.asid_samples: dict[int, int] = {}
        self.samples = 0
        self.refs = 0
        self.wall_s = 0.0
        self.resize_s = 0.0
        self.resize_fires = 0
        self.streams = 0
        #: References left until the next sampled one. Kept here, not on
        #: the engine, so sampling runs on across the many short streams
        #: a chunked driver issues (one engine per ``access_many`` call).
        self.countdown = self.sample_every

    # ------------------------------------------------------------- feeding

    def add_sample(self, asid: int, outcome: str, seconds: float) -> None:
        """One sampled access: its outcome class and duration."""
        self.stage_s[outcome] += seconds
        self.stage_samples[outcome] += 1
        self.asid_s[asid] = self.asid_s.get(asid, 0.0) + seconds
        self.asid_samples[asid] = self.asid_samples.get(asid, 0) + 1
        self.samples += 1

    def add_stream(self, wall_s: float) -> None:
        """One profiled stream's measured wall time (its references were
        counted access by access)."""
        self.wall_s += wall_s
        self.streams += 1

    def add_resize(self, seconds: float) -> None:
        """One resize round, timed exactly at the resizer."""
        self.resize_s += seconds
        self.resize_fires += 1

    # ----------------------------------------------------------- reporting

    def report(self, wall_s: float | None = None) -> dict:
        """The attributed breakdown as a plain dict.

        ``wall_s`` overrides the accumulated stream wall clock — drivers
        that issue references one at a time (sessions) measure the run
        wall themselves and pass it here.
        """
        wall = self.wall_s if wall_s is None else wall_s
        resize = min(self.resize_s, wall) if wall > 0 else self.resize_s
        distributable = max(wall - resize, 0.0)
        sampled_total = sum(self.stage_s.values())
        stages: dict[str, dict[str, float]] = {}
        for outcome in PROFILE_STAGES:
            share = (
                self.stage_s[outcome] / sampled_total if sampled_total > 0 else 0.0
            )
            samples = self.stage_samples[outcome]
            stages[outcome] = {
                "share": share,
                "time_s": distributable * share,
                "samples": samples,
                "mean_us": self.stage_s[outcome] / samples * 1e6 if samples else 0.0,
            }
        regions: dict[int, dict[str, float]] = {}
        for asid in sorted(self.asid_s):
            regions[asid] = {
                "share": (
                    self.asid_s[asid] / sampled_total
                    if sampled_total > 0
                    else 0.0
                ),
                "samples": self.asid_samples[asid],
            }
        return {
            "wall_s": wall,
            "refs": self.refs,
            "refs_per_sec": self.refs / wall if wall > 0 else 0.0,
            "samples": self.samples,
            "sample_every": self.sample_every,
            "stages": stages,
            "resize": {"time_s": resize, "fires": self.resize_fires},
            "regions": regions,
        }

    def format_report(self, wall_s: float | None = None) -> str:
        """The breakdown as the text block ``repro simulate --profile`` prints."""
        data = self.report(wall_s)
        wall = data["wall_s"]
        lines = [
            "hot-path profile "
            f"({data['refs']} refs in {wall * 1e3:.1f} ms, "
            f"{data['refs_per_sec']:,.0f} refs/s; "
            f"{data['samples']} sampled, 1/{data['sample_every']})",
            f"  {'outcome':<20s} {'time':>12s} {'wall':>6s} "
            f"{'samples':>8s} {'us/access':>10s}",
        ]
        for outcome, info in data["stages"].items():
            lines.append(
                f"  {outcome.replace('_', '-'):<20s} "
                f"{info['time_s'] * 1e3:9.2f} ms "
                f"{info['time_s'] / wall if wall > 0 else 0.0:6.1%} "
                f"{info['samples']:>8d} {info['mean_us']:>10.2f}"
            )
        resize = data["resize"]
        lines.append(
            f"  {'resize (%d fires)' % resize['fires']:<20s} "
            f"{resize['time_s'] * 1e3:9.2f} ms "
            f"{resize['time_s'] / wall if wall > 0 else 0.0:6.1%}"
        )
        total = resize["time_s"] + sum(
            info["time_s"] for info in data["stages"].values()
        )
        lines.append(
            f"  {'total':<20s} {total * 1e3:9.2f} ms "
            f"{total / wall if wall > 0 else 0.0:6.1%}"
        )
        if data["regions"]:
            lines.append("  per-region sampled share:")
            for asid, info in data["regions"].items():
                lines.append(
                    f"    asid {asid:<4d} {info['share']:6.1%} "
                    f"({info['samples']} samples)"
                )
        return "\n".join(lines)
