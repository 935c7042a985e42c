"""convergence_sweep quantizes its widths as the rows of blocks: every row
against a per-width loop written out here, its failures against
quantize_density's, its memory against one width's, and the convergence
study script against the CLI."""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from entrokit import (
    DensitySpec,
    ValidationError,
    cli,
    convergence_sweep,
    density_from_json,
    distributions,
    quantize,
    quantize_density,
    total_entropy_from_density,
)
from entrokit.distributions import BLOCK_ELEMENTS

from conftest import peak_bytes

ROOT = Path(__file__).resolve().parents[1]


def reference_total_entropy(f, h):
    """The total entropy of f at width h, one width alone: the grid's edges
    (x0 + s h) + h t, formed again at a quarter of the scale where that sum
    is not finite, their bin masses, and math.fsum of -p (ln p - ln h), 0
    where p = 0.  The logs are numpy's, as the sweep's are: math.log differs
    from numpy's log in the last bit for some arguments."""
    x0, s, n = quantize._grid(f, h)

    def edge(t):
        x = (x0 + s * h) + h * t
        return x if math.isfinite(x) else 4.0 * ((0.25 * x0 + s * (0.25 * h)) + (0.25 * h) * t)

    p = np.maximum(f.bin_masses(np.array([edge(t) for t in range(n + 1)])), 0.0)
    log_h = np.log(h)
    return math.fsum(-x * ((np.log(x) if x > 0 else 0.0) - log_h) for x in p.tolist())


def halvings(h0, count):
    return [h0 * 2.0**-j for j in range(count)]


SWEEPS = {
    # 15 to 30,500 bins: the first ten rows fill one block, and each of the
    # last two is larger than what is left of it; the last is a block of its own
    "gaussian": (DensitySpec.gaussian(0.0, 1.0), halvings(1.0, 12)),
    "exponential": (DensitySpec.exponential(3.0), halvings(0.5, 12)),
    "uniform": (DensitySpec.uniform(-1.0, 2.0), halvings(0.7, 10)),
    "gaussian-off-centre": (DensitySpec.gaussian(-3.0, 1e-3), halvings(1e-3, 8)),
    # the float-limit grids of test_quantize.py, and a point-mass gaussian
    "last-edge-beyond-the-float-range": (
        density_from_json('{"family":"uniform","a":-1e308,"b":1e300}'), [1e308, 5e307]),
    "finite-points-past-overflow": (DensitySpec.gaussian(0.0, 1e307), [1.3e308, 1e308]),
    "left-edge-past-the-float-range": (DensitySpec.gaussian(0.0, 1.2e307), [1.3e308]),
    "sigma-1e-300": (DensitySpec.gaussian(0.0, 1e-300), [1.0, 1e-300, 2.5e-301]),
}


@pytest.mark.parametrize("block", [BLOCK_ELEMENTS, 64, 1])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_rows_match_the_per_width_loop(name, block, monkeypatch):
    """Bit for bit, whatever the block size: blocks of the default size,
    of a few rows, and of one row each."""
    monkeypatch.setattr(distributions, "BLOCK_ELEMENTS", block)
    f, hs = SWEEPS[name]
    rows = convergence_sweep(f, hs)
    assert [r.h for r in rows] == hs
    for r, h in zip(rows, hs):
        assert r.total_entropy.hex() == reference_total_entropy(f, h).hex(), h
        assert r.total_entropy == total_entropy_from_density(f, h).value


def test_blocks_hold_at_most_block_elements_unless_one_grid(monkeypatch):
    f, hs = SWEEPS["gaussian"]
    blocks = []

    def record(f, hs, grids):
        blocks.append([n for _, _, n in grids])
        return quantized_rows(f, hs, grids)

    quantized_rows = quantize._quantized_rows
    monkeypatch.setattr(quantize, "_quantized_rows", record)
    convergence_sweep(f, hs)
    assert [n for block in blocks for n in block] == [quantize._grid(f, h)[2] for h in hs]
    assert len(blocks) == 3 and len(blocks[0]) == 10
    for block in blocks:
        assert sum(block) <= BLOCK_ELEMENTS or len(block) == 1
    assert blocks[-1][0] > BLOCK_ELEMENTS


# mu = 1e10, where doubles are 1.9e-6 apart, with sigma = 1e-5: from h = 1e-6
# down, neighbouring midpoints round to the same double
COLLAPSING = DensitySpec.gaussian(1e10, 1e-5)


@pytest.mark.parametrize("block", [BLOCK_ELEMENTS, 1])
@pytest.mark.parametrize("hs", [[1e-5, 4e-6, 1e-6, 5e-7], [1e-5, 1e-6], [1e-6]])
def test_a_failing_width_raises_what_quantize_density_raises(hs, block, monkeypatch):
    monkeypatch.setattr(distributions, "BLOCK_ELEMENTS", block)
    with pytest.raises(ValidationError) as alone:
        quantize_density(COLLAPSING, 1e-6)
    assert str(alone.value) == "values must be strictly increasing"
    with pytest.raises(type(alone.value)) as swept:
        convergence_sweep(COLLAPSING, hs)
    assert str(swept.value) == str(alone.value)
    with pytest.raises(type(alone.value)) as total:
        total_entropy_from_density(COLLAPSING, 1e-6)
    assert str(total.value) == str(alone.value)


def test_rows_before_a_failing_width_are_formed_first():
    """At k = 1e308 the first width's k * S is past the float range, and the
    sweep says so before it reaches the failing width in the same block."""
    with pytest.raises(ValidationError, match="entropy value must be finite"):
        convergence_sweep(COLLAPSING, [1e-5, 1e-6], k=1e308)


@pytest.mark.parametrize("count", [11, 13])
@pytest.mark.parametrize("f", [DensitySpec.gaussian(0.0, 1.0), DensitySpec.exponential(1.0)],
                         ids=["gaussian", "exponential"])
def test_sweep_memory_is_about_one_widths(f, count):
    """About 16,000 and 65,000 bins at the finest width: the sweep holds one
    block at a time, so its peak stays near that of the finest width alone."""
    lo, hi = f.support
    hs = halvings((hi - lo) / 16, count)
    alone = peak_bytes(lambda: total_entropy_from_density(f, hs[-1]))
    assert peak_bytes(lambda: convergence_sweep(f, hs)) <= 1.5 * alone


def test_convergence_study_writes_what_converge_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"),
         "--h-start", "0.5", "--halvings", "4", "--out-dir", str(tmp_path)],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    densities = {
        "uniform_0_2": '{"family":"uniform","a":0,"b":2}',
        "gaussian_0_1": '{"family":"gaussian","mu":0,"sigma":1}',
        "exponential_1": '{"family":"exponential","rate":1}',
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"convergence_{name}.csv" for name in densities)
    for name, density in densities.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["converge", "--density", density, "--h-start", "0.5",
                             "--halvings", "4", "--format", "csv"])
        assert code == 0
        written = (tmp_path / f"convergence_{name}.csv").read_bytes()
        assert written == out.getvalue().encode()
        assert len(written.splitlines()) == 5
