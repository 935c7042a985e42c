import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrokit import cli, entropy


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


GAUSSIAN = '{"family":"gaussian","mu":0,"sigma":1}'


def strict_json(text):
    """RFC 8259 JSON only: NaN and Infinity are rejected."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant} in output")

    return json.loads(text, parse_constant=reject)


class TestParseArgs:
    def test_inline_discrete_bits(self, tmp_path):
        # --probs takes inline JSON or a file path; --input always a path
        f = tmp_path / "coin.json"
        f.write_text("[0.5,0.5]")
        expected = (0, '{"value":1.0,"unit":"bits"}\n')
        for source in (["--probs", "[0.5,0.5]"], ["--probs", str(f)], ["--input", str(f)]):
            assert invoke(["discrete", *source, "--unit", "bits"])[:2] == expected

    def test_density_flag_accepts_a_path(self, tmp_path):
        f = tmp_path / "gaussian.json"
        f.write_text(GAUSSIAN)
        opts = ["--h-start", "0.5", "--halvings", "6", "--format", "csv"]
        code, inline, _ = invoke(["converge", "--density", GAUSSIAN, *opts])
        assert code == 0
        lines = inline.splitlines()
        assert len(lines) == 7 and lines[1].startswith("0.5,")
        assert invoke(["converge", "--density", str(f), *opts])[:2] == (0, inline)
        assert invoke(["converge", "--input", str(f), *opts])[:2] == (0, inline)
        assert invoke(["converge", "--density", GAUSSIAN, "--input", str(f), *opts])[0] == 2

    def test_fit_phi_data_is_always_inline_csv(self, tmp_path):
        rows = "0.1,2.0\n0.2,1.3\n0.5,0.4\n0.9,-0.2"
        f = tmp_path / "phi.csv"
        f.write_text(rows)
        code, out, _ = invoke(["fit-phi", "--data", rows])
        assert code == 0
        assert invoke(["fit-phi", "--input", str(f)])[:2] == (0, out)
        # a --data value naming a file is still read as CSV text, not opened
        code, out, _ = invoke(["fit-phi", "--data", str(f)])
        assert code == 65
        assert "expected 'p,phi_prime'" in json.loads(out)["error"]["message"]

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete", "--probs", "[0.5,0.5]", "--bogus"])
        assert exc.value.code == 2

    def test_input_source_is_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete", "--probs", "[0.5,0.5]", "--input", "x.json"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete"])
        assert exc.value.code == 2


class TestRunOutputs:
    def test_fair_coin_nats_bytes(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 0
        assert out == '{"value":0.6931471805599453,"unit":"nats"}\n'

    def test_fair_coin_bits_bytes(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--unit", "bits"])
        assert code == 0
        assert out == '{"value":1.0,"unit":"bits"}\n'

    def test_custom_k(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--k", "2.0"])
        assert code == 0
        body = json.loads(out)
        assert body["value"] == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert body["unit"] == "custom"

    def test_renormalize_flag(self):
        code, out, _ = invoke(["discrete", "--probs", "[2,2]", "--renormalize"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_renormalize_overflowing_weights(self):
        # the weights sum past the largest double
        code, out, _ = invoke(["discrete", "--probs", "[1e308,1e308]", "--renormalize"])
        assert code == 0
        assert strict_json(out)["value"] == math.log(2.0)

    def test_renormalize_reads_the_probs_object(self):
        code, out, _ = invoke(["discrete", "--probs", '{"probs":[1,3]}', "--renormalize"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5623351446188083, abs=1e-15)
        code, out, _ = invoke(["discrete", "--probs", '{"p":[1,3]}', "--renormalize"])
        assert code == 65
        assert json.loads(out)["error"]["kind"] == "ValidationError"

    def test_total_from_file(self, tmp_path):
        f = tmp_path / "binned.json"
        f.write_text('{"values":[0,1],"probs":[0.5,0.5],"widths":[2,2]}')
        code, out, _ = invoke(["total", "--input", str(f)])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_differential(self):
        code, out, _ = invoke(["differential", "--density", GAUSSIAN])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-8
        )

    def test_modified(self):
        code, out, _ = invoke(
            ["modified", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.1"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(10.0), abs=1e-8)

    def test_quantize_roundtrips_into_total(self):
        code, out, _ = invoke(
            ["quantize", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.25"]
        )
        assert code == 0
        binned = json.loads(out)["binned"]
        code2, out2, _ = invoke(
            ["total", "--data", json.dumps(binned, separators=(",", ":"))]
        )
        assert code2 == 0
        # masses equal widths here, so every log term vanishes
        assert json.loads(out2)["value"] == pytest.approx(0.0, abs=1e-10)
        # emitted JSON is accepted back unchanged
        code3, out3, _ = invoke(
            ["quantize", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.25"]
        )
        assert json.loads(out3)["binned"] == binned

    def test_converge_csv_shape(self):
        code, out, _ = invoke(
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "3",
             "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "h,total_entropy,differential_entropy,abs_error"
        assert len(lines) == 4
        assert "\r" not in out
        errs = [float(line.split(",")[3]) for line in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_quantize_point_mass_is_one_bin(self):
        # sigma far below h: the whole mass falls in the central bin
        code, out, _ = invoke(
            ["quantize", "--density", '{"family":"gaussian","mu":0,"sigma":1e-300}',
             "--h", "1"]
        )
        assert code == 0
        assert json.loads(out)["binned"]["probs"] == [1.0]

    def test_converge_json(self):
        code, out, _ = invoke(
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "2"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["h"] for r in rows] == [0.5, 0.25]

    def test_fit_phi_from_csv_file(self, tmp_path):
        f = tmp_path / "phi.csv"
        rows = ["p,phi_prime"] + [
            f"{p},{-2.0 * math.log(p) + 3.0}" for p in (0.1, 0.2, 0.4, 0.8)
        ]
        f.write_text("\n".join(rows))
        code, out, _ = invoke(["fit-phi", "--input", str(f)])
        assert code == 0
        body = json.loads(out)
        assert body["A"] == pytest.approx(-2.0, abs=1e-10)
        assert body["B"] == pytest.approx(3.0, abs=1e-10)
        assert body["admissible"] is True

    def test_statmech_ideal_gas(self):
        code, out, _ = invoke(
            ["statmech", "ideal-gas", "--E", "150", "--dE", "1.5", "--V", "1000",
             "--N", "100", "--indistinguishable"]
        )
        assert code == 0
        body = json.loads(out)
        assert set(body) == {"lnOmega", "S", "S_sackur_tetrode", "rel_diff"}
        assert body["rel_diff"] == pytest.approx(0.007155662091160249, rel=1e-9)

    @pytest.mark.parametrize(
        "gas, s_sackur_tetrode",
        [
            (["--E", "1e300", "--dE", "1", "--V", "1", "--N", "1", "--planck-h", "1e-10"],
             1109.8894625745937),
            (["--E", "1e-300", "--dE", "1e-300", "--V", "1e-300", "--N", "1",
              "--planck-h", "1e10"], -1791.3677545979039),
        ],
    )
    @pytest.mark.filterwarnings("ignore:shell thickness")
    def test_statmech_ideal_gas_at_float_extremes(self, gas, s_sackur_tetrode):
        # the Sackur-Tetrode bracket over- and underflows a float here
        code, out, _ = invoke(["statmech", "ideal-gas", *gas, "--indistinguishable"])
        assert code == 0
        body = strict_json(out)
        assert body["S_sackur_tetrode"] == pytest.approx(s_sackur_tetrode, rel=1e-14)

    def test_statmech_compare_with_ln_omega(self):
        code, out, _ = invoke(
            ["statmech", "compare", "--E", "1", "--dE", "0.001", "--V", "1", "--N", "1",
             "--planck-h", "2", "--ln-omega", "8"]
        )
        assert code == 0
        body = json.loads(out)
        assert body["gap"] == pytest.approx(8 - 3 * math.log(2) - 1, abs=1e-10)

    def test_statmech_compare_overflow_is_null(self):
        code, out, _ = invoke(
            ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "1000",
             "--planck-h", "0.1"]
        )
        assert code == 0
        body = strict_json(out)
        assert body["S_prefactor"] is None and body["gap"] is None
        assert body["S_prefactor_sign"] == 1
        assert body["S_prefactor_log_magnitude"] > 700.0
        assert math.isfinite(body["S_cell_in_log"])

    @pytest.mark.parametrize(
        "gas, ln_omega, k",
        [
            # k |ln_omega| underflows to 0
            (["--N", "10"], "1e-200", "1e-200"),
            (["--N", "10"], "-1e-200", "1e-200"),
            # k |ln_omega| overflows, while ln_omega - 3N ln h stays finite
            (["--N", "1" + "0" * 299, "--planck-h", repr(math.e)], "3e299", "1e10"),
        ],
    )
    def test_statmech_compare_where_k_ln_omega_leaves_the_float_range(self, gas, ln_omega, k):
        code, out, _ = invoke(["statmech", "compare", "--E", "1", "--dE", "0.01", "--V", "1",
                               *gas, f"--ln-omega={ln_omega}", "--k", k])
        assert code == 0
        body = strict_json(out)
        assert body["S_prefactor"] == 0.0
        assert body["S_prefactor_sign"] == math.copysign(1, float(ln_omega))
        n, h = int(gas[1]), float(gas[3]) if len(gas) > 2 else 1.0
        with mpmath.workdps(40):
            log_mag = (mpmath.log(mpmath.mpf(k) * abs(mpmath.mpf(ln_omega)))
                       - 3 * n * mpmath.log(mpmath.mpf(h)))
            assert abs(body["S_prefactor_log_magnitude"] - log_mag) <= 1e-15 * abs(log_mag)

    def test_axioms_max_n_1_without_majorization_pairs(self):
        code, out, _ = invoke(["axioms", "--max-n", "1", "--majorization-pairs", "0",
                               "--n-dists", "20", "--additivity-pairs", "5"])
        assert code == 0
        assert strict_json(out)["passed"] is True

    def test_axioms_seeded(self):
        argv = ["axioms", "--seed", "3", "--n-dists", "200",
                "--additivity-pairs", "40", "--majorization-pairs", "40"]
        code, out, _ = invoke(argv)
        assert code == 0
        assert json.loads(out)["passed"] is True


COMPARE = ["statmech", "compare", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"]
IDEAL_GAS = ["statmech", "ideal-gas", "--E", "1", "--dE", "0.01", "--V", "1"]

#: a probability object with a Latin-1 byte in it
NOT_UTF8 = str(Path(__file__).parent / "data" / "not_utf8.json")


def density(params):
    return ["differential", "--density", "{" + params + "}"]


#: bad data: non-finite or non-numeric parameters, results that overflow,
#: grids too fine to allocate, an input file that is not UTF-8; each must
#: exit 65 with strict-JSON stdout
BAD_VALUES = {
    "sigma-nan": density('"family":"gaussian","mu":0,"sigma":NaN'),
    "sigma-inf": density('"family":"gaussian","mu":0,"sigma":Infinity'),
    "mu-nan": density('"family":"gaussian","mu":NaN,"sigma":1'),
    "mu-minus-inf": density('"family":"gaussian","mu":-Infinity,"sigma":1'),
    "mu-1e300": density('"family":"gaussian","mu":1e300,"sigma":1'),
    "param-string": density('"family":"gaussian","mu":"0","sigma":"one"'),
    "a-nan": density('"family":"uniform","a":NaN,"b":1'),
    "a-minus-inf": density('"family":"uniform","a":-Infinity,"b":1'),
    "rate-nan": density('"family":"exponential","rate":NaN'),
    "rate-inf": density('"family":"exponential","rate":Infinity'),
    "k-1e308": ["discrete", "--probs", json.dumps([0.125] * 8), "--k", "1e308"],
    "quantize-h-1e-300": ["quantize", "--density", GAUSSIAN, "--h", "1e-300"],
    "converge-40-halvings": [
        "converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "40"
    ],
    "axioms-seed-minus-1": ["axioms", "--seed=-1"],
    "axioms-n-dists-1": ["axioms", "--n-dists", "1"],
    "axioms-n-dists-minus-4": ["axioms", "--n-dists", "-4"],
    "axioms-max-n-0": ["axioms", "--max-n", "0"],
    "axioms-max-n-1-with-majorization-pairs": ["axioms", "--max-n", "1"],
    "axioms-additivity-pairs-minus-3": ["axioms", "--additivity-pairs", "-3"],
    "axioms-majorization-pairs-minus-1": ["axioms", "--majorization-pairs", "-1"],
    "axioms-k-1e308": ["axioms", "--n-dists", "100", "--k", "1e308"],
    "compare-ln-omega-nan": [*COMPARE, "--ln-omega", "nan"],
    "compare-ln-omega-inf": [*COMPARE, "--ln-omega", "inf"],
    "compare-ln-omega-minus-inf": [*COMPARE, "--ln-omega=-inf"],
    "input-not-utf8": ["discrete", "--input", NOT_UTF8],
    # the wire takes only JSON numbers
    "probs-bools": ["discrete", "--probs", "[true,false]"],
    "probs-strings": ["discrete", "--probs", '["0.5","0.5"]'],
    "probs-strings-renormalize": ["discrete", "--probs", '["0.5","0.5"]', "--renormalize"],
    "probs-400-digit-integer": ["discrete", "--probs", "[1" + "0" * 400 + ",0]"],
    "widths-bool": ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[true,1]}'],
    "params-string-and-bool": density('"family":"gaussian","mu":"0","sigma":true'),
    # counts out of range
    "axioms-n-dists-3": ["axioms", "--n-dists", "3"],
    "ideal-gas-N-1e400": [*IDEAL_GAS, "--N", "1" + "0" * 400],
    "compare-N-1e400": [*COMPARE[:-2], "--N", "1" + "0" * 400],
}

#: probability vectors whose sum leaves the float range: not normalized, so
#: each must exit 65 with strict-JSON stdout and kind NotNormalized
BAD_SUMS = {
    "probs-sum-overflows": ["discrete", "--probs", "[1e308,1e308]"],
    "binned-probs-sum-overflows": [
        "total", "--data", '{"values":[0,1],"probs":[1e308,1e308],"widths":[1,1]}'
    ],
}


#: valid input where k S_ST underflows to 0 or k (S - S_ST) overflows: each
#: must exit 0 with strict-JSON stdout and the rel_diff of nats
K_EXTREMES = {
    "ideal-gas-S-ST-underflows-at-k": [
        "statmech", "ideal-gas", "--E", "1", "--dE", "0.01", "--V", "0.0106", "--N", "1",
        "--k", "5e-324",
    ],
    "ideal-gas-gap-overflows-at-k": [*IDEAL_GAS, "--N", "1", "--k", "3e307"],
}


class TestExitCodes:
    @pytest.mark.parametrize("argv", K_EXTREMES.values(), ids=K_EXTREMES.keys())
    def test_ideal_gas_at_extreme_k_is_0_with_the_rel_diff_of_nats(self, argv):
        code, out, _ = invoke(argv)
        assert code == 0
        code, nats, _ = invoke(argv[:-2])
        assert code == 0
        assert strict_json(out)["rel_diff"] == strict_json(nats)["rel_diff"]

    def test_domain_error_is_65_with_envelope(self):
        code, out, err = invoke(["discrete", "--probs", "[0.6,0.5]"])
        assert code == 65
        body = json.loads(out)
        assert body["error"]["kind"] == "NotNormalized"
        assert "1.1" in body["error"]["message"]
        assert err  # diagnostics on stderr

    def test_missing_file_is_66(self):
        code, out, _ = invoke(["discrete", "--input", "/no/such/file.json"])
        assert code == 66
        assert json.loads(out)["error"]["kind"] == "FileNotFound"

    @pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
    def test_bad_k_is_65(self, k):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--k", k])
        assert code == 65
        assert json.loads(out)["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_values_are_65_with_strict_json(self, argv):
        code, out, _ = invoke(argv)
        body = strict_json(out)
        assert code == 65
        assert body["error"]["kind"] == "ValidationError"
        assert body["error"]["message"]

    @pytest.mark.parametrize("argv", BAD_SUMS.values(), ids=BAD_SUMS.keys())
    def test_sums_beyond_the_float_range_are_65_not_normalized(self, argv):
        code, out, _ = invoke(argv)
        body = strict_json(out)
        assert code == 65
        assert body["error"] == {
            "kind": "NotNormalized",
            "message": "probabilities sum beyond the float range (tolerance 1.0e-09)",
        }

    def test_huge_max_n_is_refused_before_any_draw(self, monkeypatch):
        # the draw would ask for 475 GiB: fail loudly instead
        def no_draw(rng, offsets):
            raise AssertionError(f"drew a block of {offsets[-1]} elements")

        monkeypatch.setattr(entropy, "_simplex_rows", no_draw)
        code, out, _ = invoke(["axioms", "--max-n", "100000000000", "--n-dists", "2",
                               "--additivity-pairs", "0", "--majorization-pairs", "0"])
        assert code == 65
        assert "max_n must be an integer <=" in strict_json(out)["error"]["message"]

    def test_huge_halvings_are_refused_before_any_allocation(self):
        # a list of 10^8 widths would take gigabytes: in a child whose
        # address space is capped at 512 MiB it shows as a MemoryError
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        argv = ["converge", "--density", GAUSSIAN, "--h-start", "0.5",
                "--halvings", "100000000"]
        run = subprocess.run(
            [sys.executable, "-m", "entrokit", *argv], env=env, capture_output=True,
            text=True, preexec_fn=cap_address_space, timeout=60,
        )
        assert run.returncode == 65
        assert strict_json(run.stdout)["error"] == {
            "kind": "ValidationError",
            "message": "--halvings must be an integer <= 2100, got 100000000",
        }

    @pytest.mark.parametrize("m", ["1e200", "1e-200"])
    def test_ideal_gas_where_2_pi_m_e_leaves_the_float_range(self, m):
        e, de = m, str(float(m) / 1000)
        code, out, _ = invoke([*IDEAL_GAS[:2], "--E", e, "--dE", de, "--V", "1", "--N", "1",
                               "--mass", m])
        assert code == 0
        with mpmath.workdps(40):
            E, dE, M = (mpmath.mpf(x) for x in (e, de, m))
            ln_omega = (1.5 * mpmath.log(2 * mpmath.pi * M * E) - mpmath.loggamma(2.5)
                        + mpmath.log(mpmath.expm1(1.5 * mpmath.log1p(dE / E))))
            assert abs(strict_json(out)["lnOmega"] - ln_omega) <= 1e-15 * abs(ln_omega)

    def test_bad_width_is_the_same_kind_everywhere(self):
        for cmd in ("modified", "quantize"):
            code, out, _ = invoke([cmd, "--density", GAUSSIAN, "--h", "0"])
            assert code == 65
            assert strict_json(out)["error"] == {
                "kind": "NonPositiveWidth",
                "message": "h must be a positive finite real, got 0.0",
            }

    def test_usage_error_is_2(self):
        code, _, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--frobnicate"])
        assert code == 2

    def test_internal_error_is_70(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli._HANDLERS, "discrete", boom)
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 70
        assert json.loads(out)["error"]["kind"] == "InternalError"

    def test_non_finite_result_is_an_internal_error_not_bare_nan(self, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "discrete", lambda ns: {"value": math.nan})
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 70
        assert strict_json(out)["error"]["kind"] == "InternalError"

    def test_success_is_0(self):
        code, _, _ = invoke(["discrete", "--probs", "[1.0]"])
        assert code == 0


#: values for every float flag and density parameter: the special doubles,
#: or as often ordinary ones, so that some draws succeed
REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-308, -1e-308, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 150.0, -1.0]),
)
CSV_HEADER = "h,total_entropy,differential_entropy,abs_error\n"


def flag(name, value):
    """`--name=value`: a negative value after a space reads as an option."""
    return f"--{name}={value}"


@st.composite
def optional_flags(draw, **pools):
    return [flag(name, draw(pool)) for name, pool in pools.items() if draw(st.booleans())]


@st.composite
def unit_flags(draw):
    return draw(optional_flags(unit=st.sampled_from(["nats", "bits"]), k=REALS))


@st.composite
def density_json(draw):
    family = draw(st.sampled_from(["uniform", "gaussian", "exponential"]))
    keys = {"uniform": ("a", "b"), "gaussian": ("mu", "sigma"), "exponential": ("rate",)}
    return json.dumps({"family": family, **{key: draw(REALS) for key in keys[family]}})


@st.composite
def argvs(draw):
    """One command line of any subcommand.  Counts come from small fixed
    sets; huge ones only where the count is bounded before any work."""
    cmd = draw(st.sampled_from(["discrete", "total", "differential", "modified", "quantize",
                                "converge", "axioms", "fit-phi", "ideal-gas", "compare"]))
    if cmd == "discrete":
        probs = draw(st.one_of(st.lists(REALS, min_size=1, max_size=4), st.just([0.5, 0.5])))
        argv = [cmd, f"--probs={json.dumps(probs)}", *draw(optional_flags(tolerance=REALS))]
        return argv + draw(st.sampled_from([[], ["--renormalize"]])) + draw(unit_flags())
    if cmd == "total":
        n = draw(st.integers(1, 3))
        data = {key: draw(st.lists(REALS, min_size=n, max_size=n))
                for key in ("values", "probs", "widths")}
        return [cmd, f"--data={json.dumps(data)}", *draw(unit_flags())]
    if cmd == "axioms":
        counts = {
            "seed": st.sampled_from([0, 1, -1, 10**30]),
            "n-dists": st.sampled_from([0, 1, 2, 3, 20]),
            "max-n": st.sampled_from([0, 1, 2, 64, 10**11, 10**30]),
            "additivity-pairs": st.sampled_from([-3, 0, 1, 5]),
            "majorization-pairs": st.sampled_from([-1, 0, 1, 5]),
        }
        return [cmd, *(flag(name, draw(pool)) for name, pool in counts.items()),
                *draw(unit_flags())]
    if cmd == "fit-phi":
        rows = draw(st.lists(st.tuples(REALS, REALS), min_size=1, max_size=4))
        return [cmd, "--data=" + "\n".join(f"{p!r},{g!r}" for p, g in rows)]
    if cmd in ("ideal-gas", "compare"):
        n = draw(st.sampled_from([-1, 0, 1, 2, 100, 10**299, 10**300, 10**400]))
        argv = ["statmech", cmd, flag("E", draw(REALS)), flag("dE", draw(REALS)),
                flag("V", draw(REALS)), flag("N", n)]
        argv += draw(optional_flags(mass=REALS, **{"planck-h": REALS}))
        argv += draw(st.sampled_from([[], ["--indistinguishable"]])) + draw(unit_flags())
        if cmd == "compare":
            argv += draw(optional_flags(**{"ln-omega": REALS}))
        return argv
    argv = [cmd, f"--density={draw(density_json())}"]
    if cmd in ("modified", "quantize"):
        argv.append(flag("h", draw(REALS)))
    if cmd == "converge":
        halvings = draw(st.sampled_from([0, 1, 3, 40, cli.MAX_HALVINGS, 10**8, 10**30]))
        argv += [flag("h-start", draw(REALS)), flag("halvings", halvings),
                 *draw(optional_flags(format=st.sampled_from(["json", "csv"])))]
    if cmd != "quantize":
        argv += draw(unit_flags())
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argvs())
    # bin-edge arguments beyond the float range, which numpy warns of
    @example(["quantize", '--density={"family": "gaussian", "mu": 0.0, "sigma": 5e-324}',
              "--h=1e+308"])
    @example(["quantize", '--density={"family": "exponential", "rate": 1e+308}', "--h=1e+308"])
    def test_stdout_is_strict_json_and_the_exit_code_documented(self, argv):
        code, out, _ = invoke(argv)
        assert code in (0, 2, 65, 66)
        if code == 2:
            assert out == ""  # argparse's usage message goes to stderr
        elif out.startswith(CSV_HEADER):
            assert code == 0
            for line in out.splitlines()[1:]:
                assert all(math.isfinite(float(x)) for x in line.split(","))
        else:
            strict_json(out)

    for _argv in (*BAD_VALUES.values(), *BAD_SUMS.values(), *K_EXTREMES.values()):
        test_stdout_is_strict_json_and_the_exit_code_documented = example(_argv)(
            test_stdout_is_strict_json_and_the_exit_code_documented
        )
    del _argv


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["discrete", "--probs", "[0.3,0.7]"],
            ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[1,2]}'],
            ["differential", "--density", GAUSSIAN],
            ["modified", "--density", GAUSSIAN, "--h", "0.5"],
            ["quantize", "--density", GAUSSIAN, "--h", "0.5"],
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "2",
             "--format", "csv"],
            ["axioms", "--seed", "9", "--n-dists", "100", "--additivity-pairs", "20",
             "--majorization-pairs", "20"],
            ["statmech", "ideal-gas", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"],
            ["statmech", "compare", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a scipy import anywhere under
    # the CLI would show up here
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import entrokit.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
