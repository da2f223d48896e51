"""§6.3.2 sensitivity: the certifier as a delay center.

Two experiments back the paper's modelling decision:

* the group-committing certifier's latency is nearly constant (~12 ms)
  from 25 to 500 requests/s — batching absorbs load, so no queueing model
  is needed;
* predictions barely move when the certification delay is halved or
  doubled, because only update transactions pay it and it is small next to
  the think time.
"""

from conftest import run_once

from repro.engine import run_scenario
from repro.experiments import certifier_capacity


def test_certifier_latency_constant_under_load(benchmark):
    result = run_once(
        benchmark, lambda: certifier_capacity(duration=240.0)
    )
    print("\n" + result.to_text())
    latencies = [p.mean_latency for p in result.points]
    # ~half a write of waiting plus one 8 ms write: 8-14 ms at every load.
    assert all(0.008 <= latency <= 0.014 for latency in latencies)
    # Insensitive to two orders of magnitude of load (spread < 5 ms).
    assert result.latency_spread() < 0.005
    # Batching is what absorbs the load.
    assert result.points[-1].mean_batch_size > 2.0


def test_certifier_delay_sensitivity(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("sens-certifier-delay", settings, jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    # Throughput is insensitive to 6 vs 24 ms certification.
    assert result.max_throughput_drop() < 0.02
