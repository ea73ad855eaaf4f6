import numpy as np
import pytest

from technet.acs import decompose
from technet.synth import (
    SynthConfig,
    SynthConfigError,
    generate_events,
    planted_cycle_pairs,
    synth_field_codes,
    synth_hierarchy,
)

from drivers import synthetic_config, yearly_networks


def small_cfg(**overrides):
    base = dict(
        n_regions=40, n_fields=9, n_sections=3, year_min=1990, year_max=1995,
        baseline_presence=0.1, families_per_presence=2, master_seed=13,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_contiguous_equal_blocks(self):
        assert synth_field_codes(6, 3) == ["A01", "A02", "B01", "B02", "C01", "C02"]
        assert synth_field_codes(7, 3)[:3] == ["A01", "A02", "A03"]

    def test_hierarchy_sections(self):
        h = synth_hierarchy(9, 3)
        assert h.sections == ("A", "B", "C")
        assert len(h.codes_at("class")) == 9

    def test_validation(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(n_regions=0)
        with pytest.raises(SynthConfigError):
            small_cfg(baseline_presence=1.5)
        with pytest.raises(SynthConfigError):
            small_cfg(catalytic_pairs=(("A01", "Z99", 5.0),))
        with pytest.raises(SynthConfigError):
            small_cfg(catalytic_pairs=(("A01", "A02", 0.5),))
        with pytest.raises(SynthConfigError):
            small_cfg(year_min=2000, year_max=1999)

    def test_planted_cycle_needs_three_fields(self):
        with pytest.raises(SynthConfigError):
            planted_cycle_pairs(["A01", "A02"], 5.0)


class TestGeneration:
    def test_byte_identical_determinism(self):
        a = generate_events(small_cfg())
        b = generate_events(small_cfg())
        assert a.events_text == b.events_text
        assert a.truth_edges_text == b.truth_edges_text
        assert a.config_echo == b.config_echo

    def test_different_seed_differs(self):
        a = generate_events(small_cfg())
        b = generate_events(small_cfg(master_seed=14))
        assert a.events_text != b.events_text

    def test_event_format_and_family_mass(self):
        res = generate_events(small_cfg(families_per_presence=3))
        lines = res.events_text.splitlines()
        assert lines[0] == "family_id,year,region_id,code"
        body = [ln.split(",") for ln in lines[1:]]
        assert all(len(cells) == 4 for cells in body)
        presences = {(c[1], c[2], c[3]) for c in body}
        assert len(body) == 3 * len(presences)

    def test_baseline_marginal_frequency(self):
        cfg = small_cfg(n_regions=300, year_min=1990, year_max=1999,
                        baseline_presence=0.07, master_seed=2)
        res = generate_events(cfg)
        draws = 0
        hits = 0
        for year, presence in res.presence_history.items():
            draws += presence.size
            hits += int(presence.sum())
        p_hat = hits / draws
        se = np.sqrt(0.07 * 0.93 / draws)
        assert abs(p_hat - 0.07) <= 3 * se

    def test_planted_pair_boosts_conditional_frequency(self):
        codes = synth_field_codes(9, 3)
        cfg = small_cfg(
            n_regions=400, year_min=1990, year_max=1999, baseline_presence=0.05,
            catalytic_pairs=(("A01", "A02", 10.0),), master_seed=3,
        )
        res = generate_events(cfg)
        years = sorted(res.presence_history)
        i, j = codes.index("A01"), codes.index("A02")
        cond_hits = cond_draws = base_hits = base_draws = 0
        for y0, y1 in zip(years, years[1:]):
            prev = res.presence_history[y0]
            nxt = res.presence_history[y1]
            mask = prev[:, i] == 1
            cond_hits += int(nxt[mask, j].sum())
            cond_draws += int(mask.sum())
            base_hits += int(nxt[~mask, j].sum())
            base_draws += int((~mask).sum())
        assert cond_hits / cond_draws > 5 * (base_hits / base_draws)

    def test_single_planted_link_creates_no_core(self):
        # a lone boosted link is not a cycle: ground truth network has no core,
        # and the pipeline's detected cores stay (almost always) empty
        cfg = synthetic_config(seed=5, beta=1.0, n_years=6, n_regions=150, n_fields=12)
        cfg = SynthConfig(
            **{**cfg.__dict__, "catalytic_pairs": (("A01", "A02", 20.0),)}
        )
        from drivers import net_from_edges

        truth = net_from_edges(2, [(0, 1)])
        assert decompose(truth).core == frozenset()
        nonempty_cores = 0
        for net, _ in yearly_networks(cfg, n_replicates=150, null_seed=77):
            nonempty_cores += bool(decompose(net).core)
        assert nonempty_cores <= 2
