"""Figure 7: the ransomware and Zeus-botnet case studies (Section VI).

Regenerates, for each attack:

* the victim's per-aspect anomaly-score sparklines over the test month
  (Figure 7's waveforms), and
* the paper's in-prose claim: the victim is ranked first on the
  investigation list shortly after the attack day.
"""

import pytest

from benchmarks.conftest import save_result
from repro.eval.experiments import build_case_study, case_study_config, run_case_study
from repro.eval.reporting import sparkline


@pytest.fixture(scope="module", params=["wannacry", "zeus"])
def case_result(request):
    config = case_study_config(request.param)
    benchmark = build_case_study(config)
    return run_case_study(benchmark)


def test_fig7_case_study(benchmark, case_result):
    result = case_result
    cfg = result.benchmark.config
    run = result.run
    victim = result.benchmark.victim

    lines = [
        f"Case study: {cfg.attack} against {victim} on {cfg.attack_day}",
        f"({cfg.n_employees} employees, window {cfg.window} days, critic N={cfg.critic_n})",
        "",
        "Victim per-aspect anomaly-score trends over the test period:",
    ]
    for aspect in run.scores:
        lines.append(f"  {aspect:10s} {sparkline(run.score_trend(aspect, victim))}")
    lines.append(
        "  " + " " * 10 + " " + "".join("A" if d == cfg.attack_day else "." for d in run.test_days)
    )
    lines.append("")
    lines.append("Victim daily investigation rank:")
    lines.append(
        "  " + " ".join(f"{result.daily_rank[d]}" for d in sorted(result.daily_rank))
    )
    rank_one = result.days_at_rank_one()
    lines.append(f"Days at rank 1: {', '.join(str(d) for d in rank_one) or 'none'}")
    save_result(f"fig7_{cfg.attack}", "\n".join(lines))

    # Paper shape, asserted at this scale: the victim reaches the very
    # top of the daily investigation list shortly after the attack, and
    # the Config-aspect waveform rises at the attack day.  (The stricter
    # "top-ranked only after the attack" contrast is asserted at small
    # scale in tests/integration/test_case_study.py; at this bench's
    # 60-employee population the deliberately quiet victim's pre-attack
    # daily ranks are noisy -- see EXPERIMENTS.md.)
    ordered_days = sorted(result.daily_rank)
    post = {d: result.daily_rank[d] for d in ordered_days if d >= cfg.attack_day}
    best_post = min(post.values())
    first_top = min(d for d, r in post.items() if r == best_post)
    assert best_post <= 2, f"victim only reached rank {best_post} after the attack"
    assert (first_top - cfg.attack_day).days <= 14

    config_trend = run.score_trend("config", victim)
    before = [s for d, s in zip(run.test_days, config_trend) if d < cfg.attack_day]
    after = [s for d, s in zip(run.test_days, config_trend) if d >= cfg.attack_day]
    assert max(after) > max(before), "config aspect did not rise at the attack"

    # Benchmark: one day's critic pass over the full population.
    from repro.core.critic import investigation_list

    users = run.users
    last = len(run.test_days) - 1
    aspect_scores = {
        aspect: {u: float(arr[i, last]) for i, u in enumerate(users)}
        for aspect, arr in run.scores.items()
    }
    benchmark(investigation_list, aspect_scores, cfg.critic_n)
